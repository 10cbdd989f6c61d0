"""Order only when read: the compiled kernels that keep less than the
sorted key lists against an eagerly ordered twin.

A compiled FullAssoc cache that records no eviction futility keeps one
lazy min-heap per partition instead of its exact ranking's sorted lists
(``"extreme"`` upkeep), and a compiled direct-mapped unpartitioned cache
keeps per-line keys only (``"none"``).  The twin compiles the dispatched
path over trivial subclasses (see ``test_kernel_inlining.dispatched``),
so its ranking keeps every list eagerly.  One stream drives both; the
ranking's readers must see on the compiled side exactly what the twin
keeps.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cache.arrays import DirectMappedArray, FullyAssociativeArray
from repro.cache.cache import PartitionedCache
from repro.cache.events import CacheObserver
from repro.core.futility import LRURanking, OPTRanking
from repro.core.schemes.full_assoc import FullAssocScheme
from repro.core.schemes.unpartitioned import UnpartitionedScheme

from .test_kernel_inlining import dispatched

#: (array class, lines, scheme class, the compiled side's upkeep).
ORGANIZATIONS = {
    "fa": (FullyAssociativeArray, 32, FullAssocScheme, "extreme"),
    "dm": (DirectMappedArray, 64, UnpartitionedScheme, "none"),
}
RANKINGS = {"lru": LRURanking, "opt": OPTRanking}


class HitProbe(CacheObserver):
    """A dispatched observer: subscribing it makes the kernel keep order."""

    def __init__(self) -> None:
        self.hits = 0

    def on_cache_hit(self, idx, part, next_use):
        self.hits += 1


def make_twins(organization, ranking_kind, parts):
    """(compiled, eagerly ordered) caches over identical configurations."""
    array_cls, lines, scheme_cls, _ = ORGANIZATIONS[organization]
    caches = []
    for wrap in (lambda cls: cls, dispatched):
        caches.append(PartitionedCache(
            wrap(array_cls)(lines), wrap(RANKINGS[ranking_kind])(),
            wrap(scheme_cls)(), parts, track_eviction_futility=False))
    return caches


def upkeep_of(cache):
    ranking = cache.ranking
    if ranking._sorted is not None:
        return "ranks"
    return "extreme" if ranking._heaps is not None else "none"


def assert_same_order(compiled, twin):
    """Every ranking reader sees the twin's order on the compiled side."""
    ranking, eager = compiled.ranking, twin.ranking
    assert ranking._keys == eager._keys
    for p in range(compiled.num_partitions):
        assert ranking.partition_size(p) == eager.partition_size(p)
        if eager.partition_size(p):
            assert ranking.most_futile(p) == eager.most_futile(p)
    resident = [i for i in range(compiled.num_lines)
                if compiled.lines.tag[i] >= 0]
    assert ([ranking.futility(i) for i in resident]
            == [eager.futility(i) for i in resident])
    assert ranking.futilities(resident) == eager.futilities(resident)
    if ranking._heaps is not None:
        # The rebuild bound holds after every access.
        cap = ranking.HEAP_SLACK * compiled.num_lines
        assert all(len(heap) <= cap for heap in ranking._heaps)
    compiled.check_invariants()


@st.composite
def runs(draw):
    return (draw(st.sampled_from(sorted(ORGANIZATIONS))),
            draw(st.sampled_from(sorted(RANKINGS))),
            draw(st.integers(1, 4)), draw(st.integers(0, 2**16)))


@given(runs())
@example(("fa", "opt", 3, 0))
@example(("fa", "lru", 2, 1))
@example(("dm", "opt", 2, 2))
@settings(max_examples=30, deadline=None)
def test_lazy_upkeep_matches_an_eagerly_ordered_twin(run):
    organization, ranking_kind, parts, seed = run
    compiled, twin = make_twins(organization, ranking_kind, parts)
    lazy = ORGANIZATIONS[organization][3]
    assert upkeep_of(compiled) == lazy and upkeep_of(twin) == "ranks"
    rng = random.Random(seed)
    lines = compiled.num_lines
    # OPT next uses from a small range repeat keys across partitions at
    # one slot (next_use is thread-local), and stale heap entries then
    # name a line another partition owns.
    next_uses = (lambda: rng.randrange(6)) if ranking_kind == "opt" else (
        lambda: None)

    def access(addr, part):
        next_use = next_uses()
        is_write = rng.random() < 0.2
        hit = compiled.access(addr, part, next_use, is_write=is_write)
        assert hit == twin.access(addr, part, next_use, is_write=is_write)
        # The victim slot: where the missing line landed.
        assert compiled.lines.where[addr] == twin.lines.where[addr]
        assert compiled.writeback_pending == twin.writeback_pending

    def random_access():
        part = rng.randrange(parts)
        a = (rng.randrange(lines // 2) if rng.random() < 0.6
             else lines + rng.randrange(8 * lines))
        access(part * 10**6 + a, part)

    def resident_of(part):
        return sorted(addr for addr, idx in compiled.lines.where.items()
                      if compiled.owner[idx] == part)

    probe = HitProbe()
    phases = ["warm", "flush", "hit-run", "retarget", "subscribe",
              "unsubscribe", "tail"]
    for phase in phases:
        if phase == "flush":
            for _ in range(4):
                slots = [i for i in range(lines)
                         if compiled.lines.tag[i] >= 0]
                victim = rng.choice(slots)
                compiled.invalidate_index(victim)
                twin.invalidate_index(victim)
        elif phase == "hit-run":
            # More hits to one partition than its heap may hold: a
            # rebuild must happen and drop the stale entries.
            part = max(range(parts), key=lambda p: compiled.actual_sizes[p])
            hot = resident_of(part)
            for i in range(3 * lines):
                access(hot[i % len(hot)], part)
        elif phase == "retarget":
            targets = [rng.randrange(lines // parts + 1) for _ in range(parts)]
            compiled.set_targets(targets)
            twin.set_targets(targets)
            assert upkeep_of(compiled) == lazy
        elif phase == "subscribe":
            compiled.events.subscribe(probe)
            assert upkeep_of(compiled) == "ranks"
            assert "bisect_left(" in compiled.access.__kernel_source__
        elif phase == "unsubscribe":
            compiled.events.unsubscribe(probe)
            assert upkeep_of(compiled) == lazy
        for i in range(300):
            random_access()
            if i % 100 == 99:
                assert_same_order(compiled, twin)
        assert_same_order(compiled, twin)
    assert probe.hits > 0
    assert compiled.stats.summary() == twin.stats.summary()
    assert sum(compiled.stats.evictions) > 100


@pytest.mark.parametrize("ranking_kind", sorted(RANKINGS))
def test_fullassoc_recording_futility_keeps_the_sorted_lists(ranking_kind):
    """A reader of ranks (here the eviction-futility samples) keeps the
    eager lists and the most-futile index."""
    cache = PartitionedCache(FullyAssociativeArray(32),
                             RANKINGS[ranking_kind](), FullAssocScheme(), 2)
    assert upkeep_of(cache) == "ranks"
    assert cache.ranking._index_of is not None
    src = cache.access.__kernel_source__
    assert "rk._index_of[_bp]" in src and "heappop(" not in src


def test_heap_rebuild_drops_stale_entries():
    """A hit run on one line grows the heap by one entry per hit until the
    rebuild leaves exactly the live entries."""
    cache = PartitionedCache(FullyAssociativeArray(8), LRURanking(),
                             FullAssocScheme(), 1,
                             track_eviction_futility=False)
    for a in range(8):
        cache.access(a, 0)
    heap = cache.ranking._heaps[0]
    cap = cache.ranking.HEAP_SLACK * cache.num_lines
    for i in range(cap - len(heap)):
        cache.access(0, 0)
    assert len(heap) == cap
    cache.access(0, 0)
    assert len(heap) == 8
    assert sorted(heap) == sorted(cache.ranking._key[i] * 8 + i
                                  for i in range(8))
