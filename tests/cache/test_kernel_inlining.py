"""The compiled access kernel against the dispatched path, for the keyed
rankings (exact LRU and Belady's OPT).

The kernel generator inlines exact types only (``type(x) is ...``), so a
trivial subclass of a ranking, scheme or array compiles the bound-method
path over the same state: ranking hooks, the reference-futility query,
the scheme's ``choose_victim`` (and through it
:mod:`repro.core.schemes.kernels`) and the array's ``candidates``.  One
stream fed to both must leave identical caches.  The remaining tests pin
what the inlining buys (which calls the figure pairings no longer make)
and what it guards (the victim scan's float expression and tie rule, the
integer OPT key, non-``int`` next-use values, hits from a partition that
does not own the line).
"""

import copy
import dataclasses
import random

import pytest
from hypothesis import example, given, settings
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
from repro.core.schemes.futility_scaling import FutilityScalingScheme
from repro.core.schemes.partitioning_first import PartitioningFirstScheme
from repro.errors import ConfigurationError
from repro.experiments.fig2 import Fig2Config
from repro.experiments.fig5 import Fig5Config
from repro.experiments.fig5 import _cell_cache as fig5_cell_cache
from repro.experiments.fig6 import _cell_cache
from repro.trace.access import annotate_next_use

PARTS = 2
#: Array factories; ``wrap`` is applied to the class (identity for the
#: compiled side, :func:`dispatched` for the reference side).
ARRAYS = {
    "set-assoc-16": lambda wrap: wrap(SetAssociativeArray)(256, 16),
    "set-assoc-2": lambda wrap: wrap(SetAssociativeArray)(256, 2),
    "direct-mapped": lambda wrap: wrap(DirectMappedArray)(256),
    "direct-mapped-h3": lambda wrap: wrap(DirectMappedArray)(256,
                                                             hash_kind="h3"),
    "full-assoc": lambda wrap: wrap(FullyAssociativeArray)(128),
    "random": lambda wrap: wrap(RandomCandidatesArray)(256, 16, seed=3),
    "zcache": lambda wrap: wrap(ZCacheArray)(256, 4, 16, hash_seed=5),
}
SCHEMES = {
    "unpartitioned": {},
    "pf": {},
    "fs": {"alphas": [1.0, 2.0]},
    "fs-feedback": {},
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
        array = ARRAYS[array_kind](wrap)
        scheme_cls = type(make_scheme(scheme_kind))
        scheme = wrap(scheme_cls)(**SCHEMES.get(scheme_kind, {}))
        ranking = wrap(RANKINGS[ranking_kind])()
        n = array.num_lines
        caches.append(PartitionedCache(array, ranking, scheme, PARTS,
                                       targets=[3 * n // 4, n // 4],
                                       deviation_partitions=(0,)))
    return caches


def make_stream(accesses=2500, seed=0, parts=PARTS):
    """Partition-private ``(addr, part, next_use, is_write)`` accesses: a
    hot set (hits) and a cold space (misses) per partition, next-use
    annotated per partition as the trace feeders do."""
    rng = random.Random(seed)
    addrs = {p: [] for p in range(parts)}
    order = []
    for _ in range(accesses):
        p = rng.randrange(parts)
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
    # The dispatched side chooses through the scheme's method; the compiled
    # side scans inline for every exact scheme but Vantage.
    assert "choose(" in slow_src
    assert ("choose(" in fast_src) == (scheme_kind == "vantage")
    if array_kind == "random":
        # The compiled side draws inline and calls candidates() only on
        # the slow path; the dispatched one calls it on every miss.
        assert "rc._buf[" in fast_src and "rc._buf[" not in slow_src
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
    """Only a one-way array under the unpartitioned scheme takes the set's
    base slot without a scan.  Every other exact pairing scans inline, and
    a Vantage or subclass pairing still dispatches."""
    for array_kind in ("direct-mapped", "direct-mapped-h3"):
        compiled, reference = make_pair(array_kind, "unpartitioned", "opt")
        src = compiled.access.__kernel_source__
        assert "victim = _base" in src
        assert "choose(" not in src and "_bc = {}" not in src
        assert "choose(" in reference.access.__kernel_source__
    for array_kind, scheme_kind in (("set-assoc-2", "unpartitioned"),
                                    ("direct-mapped", "pf"),
                                    ("direct-mapped", "fs")):
        compiled, reference = make_pair(array_kind, scheme_kind, "opt")
        src = compiled.access.__kernel_source__
        assert "victim = _base" not in src
        assert "choose(" not in src and "_bc = {}" in src
        assert "choose(" in reference.access.__kernel_source__
    compiled, _ = make_pair("direct-mapped", "vantage", "opt")
    assert "choose(" in compiled.access.__kernel_source__


def _fig5_cache(scheme_kind):
    return lambda ranking: fig5_cell_cache(
        dataclasses.replace(Fig5Config.smoke(), ranking=ranking),
        scheme_kind, (0.9, 0.1))


#: Pairings whose figures read no eviction futility: fig6 reports IPC
#: only, and fig5 partition 0's size deviation only.
NO_FUTILITY_PAIRINGS = {
    "fa": lambda ranking: _cell_cache(256, ranking, "fa"),
    "dm": lambda ranking: _cell_cache(256, ranking, "dm"),
    "fig5-fs": _fig5_cache("fs"),
    "fig5-pf": _fig5_cache("pf"),
}


@pytest.mark.parametrize("ranking", ["lru", "opt"])
@pytest.mark.parametrize("organization", sorted(NO_FUTILITY_PAIRINGS))
def test_fig6_pairings_call_no_ranking_or_scheme_method(organization,
                                                        ranking):
    cache = NO_FUTILITY_PAIRINGS[organization](ranking)
    src = cache.access.__kernel_source__
    for call in RANKING_CALLS + ("choose(",):
        assert call not in src
    # Nothing reads an eviction futility, so none is computed.
    assert "fut = " not in src
    # Nothing reads ranks either, so the direct-mapped kernels keep no key
    # order and FullAssoc takes its victim from a heap, not the index.
    if organization == "dm":
        assert "bisect_left(" not in src and "insort(" not in src
    elif organization == "fa":
        assert "_index_of" not in src and "heappop(" in src


def test_fig2_pairing_calls_no_ranking_method():
    config = Fig2Config.scaled()
    n = 4
    cache = build_cache(
        array=SetAssociativeArray(config.partition_lines * n, config.ways),
        ranking=config.ranking, scheme=PartitioningFirstScheme(),
        num_partitions=n)
    assert config.ranking == "opt"
    src = cache.access.__kernel_source__
    for call in RANKING_CALLS + ("choose(",):
        assert call not in src
    # PF's scan compares raw keys only.  The eviction ranks the victim
    # once, for both its futility sample and the key-list delete; the
    # other bisect is the hit's delete.
    assert "_vr = bisect_left(_ks, rk_key[victim])" in src
    assert "fut = (_vr + 1) / _sz" in src
    assert "del _ks[_vr]" in src
    assert src.count("bisect_left(") == 2


# -- the inline victim scan ----------------------------------------------------

#: Non-dyadic weights: products and quotients of these round, so the
#: scan's float expression order decides exact ties (2.835 is the Fig. 3
#: alpha at I2 = 0.9, S2 = 0.2, R = 16).
ALPHAS = (2.835, 0.1, 1 / 3, 7.3, 1.0)


@st.composite
def scaled_runs(draw):
    """An FS run: array, partitions, alphas before and after a mid-run
    ``set_alphas``, ranking and stream seed."""
    parts = draw(st.integers(1, 4))
    alpha = st.one_of(st.sampled_from(ALPHAS),
                      st.floats(0.01, 100.0, allow_nan=False))
    alphas = [draw(st.lists(alpha, min_size=parts, max_size=parts))
              for _ in range(2)]
    return (draw(st.sampled_from(["random", "set-assoc-16"])), parts,
            alphas, draw(st.sampled_from(sorted(RANKINGS))),
            draw(st.integers(0, 2**16)))


#: Equal non-dyadic alphas tie exactly whenever two winners have the
#: same futility; these streams reach such a tie where
#: (2.835 * size) / size != 2.835 decides the victim.
EQUAL_ALPHAS = [[2.835, 2.835], [2.835, 2.835]]


@given(scaled_runs())
@example(("random", 2, EQUAL_ALPHAS, "lru", 19))
@example(("set-assoc-16", 2, EQUAL_ALPHAS, "lru", 8))
@settings(max_examples=40, deadline=None)
def test_fs_victim_matches_dispatched_for_any_alphas(run):
    """The compiled FS victim is the dispatched one after every access,
    for any positive alphas, and after set_alphas swaps the list (the
    kernel reads it on every miss, without a rebuild)."""
    array_kind, parts, (before, after), ranking_kind, seed = run
    caches = []
    for wrap in (lambda cls: cls, dispatched):
        caches.append(PartitionedCache(
            ARRAYS[array_kind](wrap), wrap(RANKINGS[ranking_kind])(),
            wrap(FutilityScalingScheme)(alphas=before), parts))
    compiled, reference = caches
    stream = make_stream(1200, seed=seed, parts=parts)
    for i, (addr, part, next_use, is_write) in enumerate(stream):
        if i == len(stream) // 2:
            for cache in caches:
                cache.scheme.set_alphas(after)
        assert (compiled.access(addr, part, next_use, is_write=is_write)
                == reference.access(addr, part, next_use, is_write=is_write))
        assert compiled.lines.where[addr] == reference.lines.where[addr], i
    assert snapshot(compiled) == snapshot(reference)


#: One 4-way set; slots fill in order.  Each layout is the insertion
#: order, then a hit that makes that partition-0 line its most recent:
#: partition 0 holds 3 lines and partition 1 one, so each partition's
#: least recent line has futility 1.0 and, with equal alphas, the two
#: scaled futilities tie exactly.
TIE_LAYOUTS = {
    # p0's first line (slot 0) is its most recent, p1's line (slot 1)
    # comes before p0's least recent (slot 2): the earliest *candidate*
    # wins, not the partition that appears first.
    "p1-first": ((("a", 0), ("c", 1), ("b", 0), ("d", 0)), "a", "c"),
    # p0's least recent line (slot 0) comes first.
    "p0-first": ((("b", 0), ("c", 1), ("a", 0), ("d", 0)), "a", "b"),
}


#: Equal weights, so the scaled futilities tie.  2.835 * (3 / 3) equals
#: 2.835 * (1 / 1), but (2.835 * 3) / 3 does not.
TIE_SCHEMES = {"fs": {"alphas": [2.835, 2.835]}, "unpartitioned": {}}


@pytest.mark.parametrize("path", ["compiled", "dispatched"])
@pytest.mark.parametrize("scheme_kind", sorted(TIE_SCHEMES))
@pytest.mark.parametrize("layout", sorted(TIE_LAYOUTS))
def test_exact_cross_partition_tie_goes_to_the_earliest_candidate(
        layout, scheme_kind, path):
    fills, touched, victim = TIE_LAYOUTS[layout]
    wrap = (lambda cls: cls) if path == "compiled" else dispatched
    scheme = wrap(type(make_scheme(scheme_kind)))(**TIE_SCHEMES[scheme_kind])
    cache = PartitionedCache(wrap(SetAssociativeArray)(4, 4),
                             wrap(LRURanking)(), scheme, 2)
    names = {name: 10 + i for i, name in enumerate("abcde")}
    for name, part in fills:
        assert not cache.access(names[name], part)
    assert cache.access(names[touched], 0)
    assert [cache.lines.where[names[n]] for n, _ in fills] == [0, 1, 2, 3]
    cache.access(names["e"], 0)
    assert not cache.contains(names[victim])
    assert list(cache.stats.eviction_futility_samples(
        dict(fills)[victim])) == [1.0]


def test_random_candidates_drawn_inline_until_a_repeat_or_refill():
    """The kernel takes the array's buffered fast path itself.  Counted
    through an instance wrapper, as perfbench counts it, candidates() runs
    only when the next R draws repeat one or run past the buffer, and the
    stream ends where one candidates() call per miss leaves it."""
    cache = build_cache(array=RandomCandidatesArray(4096, 16, seed=3),
                        ranking="lru", scheme="fs", num_partitions=2)
    array = cache.array
    calls = []
    candidates = array.candidates

    def counted(addr):
        calls.append(addr)
        return candidates(addr)
    array.candidates = counted
    source = cache.access.__kernel_source__
    cache._rebuild_kernel()
    assert cache.access.__kernel_source__ == source
    slow = 0
    for addr, part, next_use, _ in make_stream():
        picked = array._buf[array._pos:array._pos + 16]
        if not cache.access(addr, part, next_use):
            slow += len(set(picked)) < 16
    misses = sum(cache.stats.misses)
    # fig4/fig5's geometry: about 97% of 16-draw windows are distinct.
    assert 0 < len(calls) == slow < misses // 10
    twin = RandomCandidatesArray(4096, 16, seed=3)
    for _ in range(misses):
        twin.candidates(0)
    assert (array._pos, array._buf) == (twin._pos, twin._buf)


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
