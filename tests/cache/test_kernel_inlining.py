"""The compiled access kernel against the dispatched path, for the keyed
rankings (exact LRU and Belady's OPT).

The kernel generator inlines exact types only (``type(x) is ...``), so a
trivial subclass of a ranking or scheme compiles the bound-method path
over the same state: ranking hooks, the reference-futility query and the
scheme's ``choose_victim``.  One stream fed to both must leave identical
caches.  The remaining tests pin what the inlining buys (which calls the
figure pairings no longer make) and what it guards (the integer OPT key,
non-``int`` next-use values, hits from a partition that does not own the
line).
"""

import copy
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import build_cache
from repro.cache.arrays import (
    DirectMappedArray,
    FullyAssociativeArray,
    RandomCandidatesArray,
    SetAssociativeArray,
    ZCacheArray,
)
from repro.cache.cache import PartitionedCache
from repro.core.futility import LRURanking, OPTRanking
from repro.core.schemes.base import make_scheme
from repro.core.schemes.full_assoc import FullAssocScheme
from repro.core.schemes.partitioning_first import PartitioningFirstScheme
from repro.errors import ConfigurationError
from repro.experiments.fig2 import Fig2Config
from repro.experiments.fig6 import _cell_cache
from repro.trace.access import annotate_next_use

PARTS = 2
ARRAYS = {
    "set-assoc-16": lambda: SetAssociativeArray(256, 16),
    "set-assoc-2": lambda: SetAssociativeArray(256, 2),
    "direct-mapped": lambda: DirectMappedArray(256),
    "direct-mapped-h3": lambda: DirectMappedArray(256, hash_kind="h3"),
    "full-assoc": lambda: FullyAssociativeArray(128),
    "random": lambda: RandomCandidatesArray(256, 16, seed=3),
    "zcache": lambda: ZCacheArray(256, 4, 16, hash_seed=5),
}
SCHEMES = {
    "unpartitioned": {},
    "pf": {},
    "fs": {"alphas": [1.0, 2.0]},
    "vantage": {},
}
RANKINGS = {"lru": LRURanking, "opt": OPTRanking}
GRID = ([(a, s) for a in ARRAYS for s in SCHEMES]
        + [("full-assoc", "full-assoc")])
#: The bound-method calls an inlined kernel no longer makes.
RANKING_CALLS = ("r_hit(", "r_ins(", "r_evi(", "r_move(", "ref_fut(")


def dispatched(cls):
    """A trivial subclass: same behaviour, compiled without inlining."""
    return type("Dispatched" + cls.__name__, (cls,), {})


def make_pair(array_kind, scheme_kind, ranking_kind):
    """(compiled, dispatched) caches over identical arrays and targets."""
    caches = []
    for wrap in (lambda cls: cls, dispatched):
        array = ARRAYS[array_kind]()
        scheme_cls = type(make_scheme(scheme_kind))
        scheme = wrap(scheme_cls)(**SCHEMES.get(scheme_kind, {}))
        ranking = wrap(RANKINGS[ranking_kind])()
        n = array.num_lines
        caches.append(PartitionedCache(array, ranking, scheme, PARTS,
                                       targets=[3 * n // 4, n // 4],
                                       deviation_partitions=(0,)))
    return caches


def make_stream(accesses=2500, seed=0):
    """Partition-private ``(addr, part, next_use, is_write)`` accesses: a
    hot set (hits) and a cold space (misses) per partition, next-use
    annotated per partition as the trace feeders do."""
    rng = random.Random(seed)
    addrs = {p: [] for p in range(PARTS)}
    order = []
    for _ in range(accesses):
        p = rng.randrange(PARTS)
        a = (rng.randrange(40) if rng.random() < 0.6
             else 40 + rng.randrange(600))
        addrs[p].append(p * 10**6 + a)
        order.append((p, rng.random() < 0.2))
    next_use = {p: annotate_next_use(s) for p, s in addrs.items()}
    pos = dict.fromkeys(addrs, 0)
    stream = []
    for p, is_write in order:
        i = pos[p]
        pos[p] = i + 1
        stream.append((addrs[p][i], p, next_use[p][i], is_write))
    return stream


def snapshot(cache):
    """Everything an access can change, as comparable plain data."""
    stats = cache.stats
    state = {
        "tags": list(cache.lines.tag),
        "owners": list(cache.owner),
        "dirty": list(cache._dirty),
        "sizes": list(cache.actual_sizes),
        "resident": cache._resident,
        "stats": stats.summary(),
        "occupancy": list(stats._occupancy_sum),
        "deviations": {p: list(b) for p, b in stats.size_deviations.items()},
        "ranking": copy.deepcopy(vars(cache.ranking)),
    }
    if stats.eviction_futilities is not None:
        state["futilities"] = [list(b) for b in stats.eviction_futilities]
    if cache._separate_reference:
        state["reference"] = copy.deepcopy(vars(cache.reference))
    return state


@pytest.mark.parametrize("ranking_kind", sorted(RANKINGS))
@pytest.mark.parametrize("array_kind,scheme_kind", GRID)
def test_compiled_kernel_matches_dispatched_path(array_kind, scheme_kind,
                                                 ranking_kind):
    compiled, reference = make_pair(array_kind, scheme_kind, ranking_kind)
    fast_src = compiled.access.__kernel_source__
    slow_src = reference.access.__kernel_source__
    # The pair really compares the inlined bodies with the method calls.
    for call in RANKING_CALLS[:3]:
        assert call not in fast_src
        assert call in slow_src
    fast, slow = compiled.access, reference.access
    for addr, part, next_use, is_write in make_stream():
        assert (fast(addr, part, next_use, is_write=is_write)
                == slow(addr, part, next_use, is_write=is_write))
        assert compiled.writeback_pending == reference.writeback_pending
    compiled.check_invariants()
    assert snapshot(compiled) == snapshot(reference)
    assert sum(compiled.stats.evictions) > 100
    assert sum(compiled.stats.hits) > 100


def test_direct_mapped_victim_needs_one_way():
    """Only a one-way array under the unpartitioned scheme skips choose."""
    for array_kind in ("direct-mapped", "direct-mapped-h3"):
        compiled, reference = make_pair(array_kind, "unpartitioned", "opt")
        assert "choose(" not in compiled.access.__kernel_source__
        assert "choose(" in reference.access.__kernel_source__
    for array_kind, scheme_kind in (("set-assoc-2", "unpartitioned"),
                                    ("direct-mapped", "pf")):
        compiled, _ = make_pair(array_kind, scheme_kind, "opt")
        assert "choose(" in compiled.access.__kernel_source__


@pytest.mark.parametrize("ranking", ["lru", "opt"])
@pytest.mark.parametrize("organization", ["fa", "dm"])
def test_fig6_pairings_call_no_ranking_or_scheme_method(organization,
                                                        ranking):
    src = _cell_cache(256, ranking, organization).access.__kernel_source__
    for call in RANKING_CALLS + ("choose(",):
        assert call not in src
    # fig6 reads IPC only, so no eviction futility is computed.
    assert "fut = " not in src


def test_fig2_pairing_calls_no_ranking_method():
    config = Fig2Config.scaled()
    n = 4
    cache = build_cache(
        array=SetAssociativeArray(config.partition_lines * n, config.ways),
        ranking=config.ranking, scheme=PartitioningFirstScheme(),
        num_partitions=n)
    assert config.ranking == "opt"
    src = cache.access.__kernel_source__
    for call in RANKING_CALLS:
        assert call not in src
    # Its eviction-futility samples come from the inline bisect.
    assert "fut = (bisect_left(_ks, rk_key[victim]) + 1) / _sz" in src


def test_full_assoc_opt_evicts_the_farthest_next_use():
    cache = PartitionedCache(FullyAssociativeArray(4), OPTRanking(),
                             FullAssocScheme(), 1)
    for addr, next_use in ((1, 50), (2, 90), (3, 10), (4, 70)):
        cache.access(addr, 0, next_use)
    cache.access(5, 0, 20)
    assert not cache.contains(2)
    assert all(cache.contains(a) for a in (1, 3, 4, 5))
    assert list(cache.stats.eviction_futility_samples(0)) == [1.0]


# -- the integer OPT key -------------------------------------------------------

@st.composite
def opt_lines(draw):
    """``num_lines`` plus distinct-slot ``(next_use, idx)`` pairs whose
    next-use values are what a wrapping trace cursor serves: a position
    in ``[0, 2 * length)`` (finite next uses below ``length``, never-again
    sentinels ``length + i`` above it) plus ``wraps * length``."""
    num_lines = draw(st.integers(1, 1 << 20))
    length = draw(st.integers(1, 10**7))
    slots = draw(st.lists(st.integers(0, num_lines - 1), min_size=1,
                          max_size=24, unique=True))
    lines = []
    for idx in slots:
        wraps = draw(st.integers(0, 1000))
        pos = draw(st.integers(0, 2 * length - 1))
        lines.append((pos + wraps * length, idx))
    return num_lines, lines


@given(opt_lines())
@settings(max_examples=100, deadline=None)
def test_opt_keys_order_like_tuples(drawn):
    num_lines, lines = drawn
    ranking = OPTRanking()
    ranking.bind(num_lines, 1)
    for next_use, idx in lines:
        ranking.on_insert(idx, 0, next_use=next_use)
    for a in lines:
        ka = ranking._key[a[1]]
        assert ka == a[0] * num_lines + a[1]
        for b in lines:
            kb = ranking._key[b[1]]
            assert (ka < kb) == (a < b)
            assert (ka == kb) == (a == b)
    tuples = sorted(lines)
    for rank, (_next_use, idx) in enumerate(tuples):
        assert ranking.futility(idx) == (rank + 1) / len(tuples)
    assert ranking.most_futile(0) == tuples[-1][1]


# -- rejected inputs leave the cache unchanged ---------------------------------

def _opt_caches():
    yield _cell_cache(64, "opt", "fa")
    yield _cell_cache(64, "opt", "dm")
    yield build_cache(array="set-assoc", num_lines=64, ways=4, ranking="opt",
                      scheme="pf", num_partitions=1)
    yield build_cache(array="set-assoc", num_lines=64, ways=4,
                      ranking=dispatched(OPTRanking)(), scheme="pf",
                      num_partitions=1)


@pytest.mark.parametrize("bad", [None, 3.0, float("inf"), "7"])
def test_non_int_next_use_raises_before_any_change(bad):
    for cache in _opt_caches():
        for addr, next_use in ((1, 10), (2, 20), (3, 30)):
            cache.access(addr, 0, next_use)
        before = snapshot(cache)
        with pytest.raises(ConfigurationError, match="int next_use"):
            cache.access(1, 0, bad)          # a hit
        with pytest.raises(ConfigurationError, match="int next_use"):
            cache.access(99, 0, bad)         # a miss
        assert snapshot(cache) == before
        cache.check_invariants()


@pytest.mark.parametrize("bad", [None, 2.5])
def test_opt_ranking_methods_reject_non_int_next_use(bad):
    ranking = OPTRanking()
    ranking.bind(8, 1)
    ranking.on_insert(0, 0, next_use=5)
    before = copy.deepcopy(vars(ranking))
    with pytest.raises(ConfigurationError):
        ranking.on_insert(1, 0, next_use=bad)
    with pytest.raises(ConfigurationError):
        ranking.on_hit(0, 0, next_use=bad)
    assert vars(ranking) == before


@pytest.mark.parametrize("other_holds_lines", [False, True])
@pytest.mark.parametrize("ranking", ["lru", "opt", "coarse-ts-lru"])
def test_hit_from_a_non_owning_partition_is_rejected(ranking,
                                                     other_holds_lines):
    cache = build_cache(array="set-assoc", scheme="fs", num_partitions=2,
                        num_lines=256, ranking=ranking)
    cache.access(5, 0, 1)
    if other_holds_lines:
        cache.access(7, 1, 2)
        cache.access(9, 1, 3)
    before = snapshot(cache)
    with pytest.raises(ConfigurationError, match="share addresses"):
        cache.access(5, 1, 4)
    assert snapshot(cache) == before
    cache.check_invariants()
    assert cache.access(5, 0, 5)
