"""The native access kernel against the Python kernel it replaces.

fig6's builds (FullAssoc on the exact fully-associative array and the
direct-mapped unpartitioned cache, over exact LRU or OPT, with no observer
but the cache's own statistics) run ``_native_kernel.c`` where it builds
(:mod:`repro.cache.native`).  A twin of each cache runs the Python kernel
of the same build: its ``_build_access`` hands out the native kernel's
``python_kernel``.  One stream drives both, and after every access all the
state either kernel writes must agree.  The tests that need the native
module skip when it cannot be built here; CI asserts that it builds, so
they cannot skip there unnoticed.
"""

import copy
import gc
import os
import pickle
import random
import subprocess
import sys
import textwrap
import warnings
import weakref

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.api import build_cache
from repro.cache import native
from repro.cache.arrays import (DirectMappedArray, FullyAssociativeArray,
                                RandomCandidatesArray, ZCacheArray)
from repro.cache.cache import PartitionedCache
from repro.cache.events import CacheObserver
from repro.core.futility import (CoarseTimestampLRURanking, LRURanking,
                                 OPTRanking)
from repro.core.schemes.base import make_scheme
from repro.core.schemes.full_assoc import FullAssocScheme
from repro.core.schemes.unpartitioned import UnpartitionedScheme
from repro.errors import ConfigurationError
from repro.experiments.fig6 import _cell_cache
from repro.sim.config import TABLE_II
from repro.sim.engine import simulate_single_thread
from repro.trace.spec import get_profile

#: (array class, lines, scheme class) of fig6's two organizations.
ORGANIZATIONS = {
    "fa": (FullyAssociativeArray, 32, FullAssocScheme),
    "dm": (DirectMappedArray, 64, UnpartitionedScheme),
}
RANKINGS = {"lru": LRURanking, "opt": OPTRanking}


@pytest.fixture(scope="module")
def native_module():
    module = native.load()
    if module is None:
        pytest.skip("native kernel unavailable: %s" % native.unavailable())
    return module


def is_native(kernel):
    return type(kernel).__name__ == "NativeKernel"


def on_python_kernel(cache):
    """``cache``, running the Python kernel of every build from now on."""
    build = cache._build_access

    def python_kernel():
        kernel = build()
        return getattr(kernel, "python_kernel", kernel)
    cache._build_access = python_kernel
    cache._rebuild_kernel()
    return cache


def make_twins(organization, ranking, parts):
    """(native, Python) kernels over identical fig6-style caches."""
    array_cls, lines, scheme_cls = ORGANIZATIONS[organization]

    def make():
        return PartitionedCache(array_cls(lines), RANKINGS[ranking](),
                                scheme_cls(), parts,
                                track_eviction_futility=False)
    return make(), on_python_kernel(make())


def state(cache):
    """Everything either kernel writes, as comparable plain data (the
    residency map in its insertion order)."""
    ranking = cache.ranking
    return {
        "tag": list(cache.lines.tag),
        "owner": list(cache.owner),
        "dirty": bytes(cache._dirty),
        "where": list(cache.lines.where.items()),
        "key": list(ranking._key),
        "part": list(ranking._part),
        "heaps": copy.deepcopy(ranking._heaps),
        "seq": getattr(ranking, "_seq", None),
        "free": list(getattr(cache.array, "_free", ())),
        "sizes": list(cache.actual_sizes),
        "resident": cache._resident,
        "writeback_pending": cache.writeback_pending,
        "stats": {name: copy.deepcopy(value)
                  for name, value in vars(cache.stats).items()
                  if name != "_cache"},
    }


class HitProbe(CacheObserver):
    """A dispatched observer: while it is subscribed, no build is native."""

    def __init__(self):
        self.hits = 0

    def on_cache_hit(self, idx, part, next_use):
        self.hits += 1


@st.composite
def runs(draw):
    return (draw(st.sampled_from(sorted(ORGANIZATIONS))),
            draw(st.sampled_from(sorted(RANKINGS))),
            draw(st.integers(1, 4)), draw(st.integers(0, 2**16)))


@given(runs())
@example(("fa", "opt", 3, 0))
@example(("fa", "lru", 2, 1))
@example(("dm", "opt", 2, 2))
@example(("dm", "lru", 1, 3))
@settings(max_examples=20, deadline=None)
def test_native_kernel_matches_the_python_kernel(native_module, run):
    organization, ranking, parts, seed = run
    fast, twin = make_twins(organization, ranking, parts)
    assert is_native(fast.access) and not is_native(twin.access)
    rng = random.Random(seed)
    lines = fast.num_lines
    # OPT next uses from a small range repeat keys across partitions at
    # one slot, so stale heap entries name lines another partition owns.
    next_uses = (lambda: rng.randrange(6)) if ranking == "opt" else (
        lambda: None)

    def access(addr, part):
        next_use = next_uses()
        is_write = rng.random() < 0.2
        hit = fast.access(addr, part, next_use, is_write=is_write)
        assert hit == twin.access(addr, part, next_use, is_write=is_write)
        assert state(fast) == state(twin)

    def random_access():
        part = rng.randrange(parts)
        a = (rng.randrange(lines // 2) if rng.random() < 0.6
             else lines + rng.randrange(8 * lines))
        access(part * 10**6 + a, part)

    def refused(addr, part, next_use=0):
        before = state(fast)
        raised = []
        for cache in (fast, twin):
            with pytest.raises(Exception) as info:
                cache.access(addr, part, next_use)
            raised.append(type(info.value))
        assert raised[0] is raised[1] is ConfigurationError
        assert state(fast) == before == state(twin)

    def resident_of(part):
        return sorted(addr for addr, idx in fast.lines.where.items()
                      if fast.owner[idx] == part)

    probe = HitProbe()
    for phase in ("warm", "invalid", "flush", "hit-run", "retarget",
                  "reset", "subscribe", "unsubscribe", "tail"):
        if phase == "invalid":
            for addr in (-1, -2**70, 2**63, 2**64 + 5):
                refused(addr, rng.randrange(parts))
            if parts > 1:
                shared, slot = next(iter(fast.lines.where.items()))
                refused(shared, (fast.owner[slot] + 1) % parts)
            if ranking == "opt":
                for next_use in (None, 1.5, True):
                    refused(rng.randrange(lines), 0, next_use)
        elif phase == "flush":
            for _ in range(4):
                slot = rng.choice([i for i in range(lines)
                                   if fast.lines.tag[i] >= 0])
                fast.invalidate_index(slot)
                twin.invalidate_index(slot)
                assert state(fast) == state(twin)
        elif phase == "hit-run":
            # More hits to one partition than its heap may hold: the
            # rebuild happens inside the native kernel's call.
            part = max(range(parts), key=lambda p: fast.actual_sizes[p])
            hot = resident_of(part)
            for i in range(3 * lines):
                access(hot[i % len(hot)], part)
        elif phase == "retarget":
            targets = [rng.randrange(lines // parts + 1) for _ in range(parts)]
            fast.set_targets(targets)
            twin.set_targets(targets)
            assert is_native(fast.access)
        elif phase == "reset":
            fast.reset_stats()
            twin.reset_stats()
        elif phase == "subscribe":
            fast.events.subscribe(probe)
            twin.events.subscribe(probe)
            assert not is_native(fast.access)
        elif phase == "unsubscribe":
            fast.events.unsubscribe(probe)
            twin.events.unsubscribe(probe)
            assert is_native(fast.access)
        for _ in range(150):
            random_access()
    assert probe.hits > 0
    fast.check_invariants()
    assert sum(fast.stats.evictions) > 50


def test_other_argument_forms_go_to_the_python_kernel(native_module):
    """Every argument by keyword, an is_write that is not a bool, a bool
    partition, a wrong argument count: the native kernel hands such calls
    to the Python kernel, so both twins return, raise and end alike."""
    fast, twin = make_twins("fa", "opt", 2)
    calls = [
        ((5, 0, 9), {"is_write": True}),
        ((), {"addr": 6, "part": 1, "next_use": 3}),
        ((5, 0), {"next_use": 2, "is_write": 1}),
        ((7, True, 4), {}),
        ((8, 0), {"next_use": 11, "is_write": None}),
    ]
    for args, kwargs in calls * 3:
        assert fast.access(*args, **kwargs) == twin.access(*args, **kwargs)
        assert state(fast) == state(twin)
    for args, kwargs in (((5,), {}), ((5, 0, 1, 2), {}),
                         ((5, 0), {"next_use": 1, "bogus": 2})):
        with pytest.raises(TypeError):
            fast.access(*args, **kwargs)
        with pytest.raises(TypeError):
            twin.access(*args, **kwargs)
    assert state(fast) == state(twin)


@pytest.mark.parametrize("organization", sorted(ORGANIZATIONS))
def test_next_uses_beyond_int64_keep_python_int_keys(native_module,
                                                     organization):
    """OPT keys and heap entries past 64 bits (next_use * num_lines +
    slot) take the kernel's Python-int path, with the same keys, heap
    order and victims."""
    fast, twin = make_twins(organization, "opt", 2)
    rng = random.Random(7)
    big = 0
    for _ in range(1500):
        part = rng.randrange(2)
        addr = part * 10**6 + rng.randrange(90)
        next_use = rng.choice((rng.randrange(50), 2**62 + rng.randrange(50),
                               2**80 + rng.randrange(50),
                               -2**70 - rng.randrange(50)))
        assert (fast.access(addr, part, next_use)
                == twin.access(addr, part, next_use))
        assert state(fast) == state(twin)
        big += abs(fast.ranking._key[fast.lines.where[addr]]) >= 2**63
    assert big > 500 and sum(fast.stats.evictions) > 500


def test_only_order_free_builds_run_natively(native_module):
    """fig6's four builds are native; a reader of ranks, another observer,
    deviation samples, another index hash or a wrapped free_slot keeps the
    Python kernel."""
    from repro.obs.timeseries import TimeSeriesRecorder
    for ranking in RANKINGS:
        for organization in ORGANIZATIONS:
            assert is_native(_cell_cache(256, ranking, organization).access)
    kept = [
        build_cache(array="full-assoc", num_lines=64, ranking="lru",
                    scheme="full-assoc", num_partitions=2),
        build_cache(array="direct-mapped", num_lines=64, ranking="opt",
                    scheme="unpartitioned", num_partitions=2,
                    track_eviction_futility=False, deviation_partitions=(0,)),
        PartitionedCache(DirectMappedArray(64, hash_kind="h3"), LRURanking(),
                         UnpartitionedScheme(), 1,
                         track_eviction_futility=False),
    ]
    recorded = _cell_cache(256, "lru", "dm")
    recorded.events.subscribe(TimeSeriesRecorder(64).attach(recorded))
    kept.append(recorded)
    wrapped = _cell_cache(256, "lru", "fa")
    wrapped.array.free_slot = wrapped.array.free_slot
    wrapped._rebuild_kernel()
    kept.append(wrapped)
    assert not any(is_native(cache.access) for cache in kept)


def test_kernel_source_names_the_native_kernel(native_module):
    kernel = _cell_cache(256, "opt", "fa").access
    first, rest = kernel.__kernel_source__.split("\n", 1)
    assert first == ("# native kernel repro.cache._native_kernel "
                     "(C source sha256 %s)" % native.source_hash()[:16])
    assert rest == kernel.python_kernel.__kernel_source__
    assert rest.startswith("def access(addr, part, next_use=None, *,")


def test_a_dropped_native_cache_is_freed(native_module):
    cache = _cell_cache(64, "lru", "fa")
    for addr in range(200):
        cache.access(addr % 90, 0)
    assert is_native(cache.access)
    ref = weakref.ref(cache)
    del cache
    gc.collect()
    assert ref() is None


def test_a_pickled_native_cache_unpickles_onto_a_native_kernel(
        native_module):
    cache = _cell_cache(64, "opt", "fa")
    rng = random.Random(5)
    stream = [(rng.randrange(150), rng.randrange(300)) for _ in range(600)]
    for addr, next_use in stream[:300]:
        cache.access(addr, 0, next_use)
    restored = pickle.loads(pickle.dumps(cache))
    assert is_native(restored.access)
    assert state(restored) == state(cache)
    for addr, next_use in stream[300:]:
        assert (restored.access(addr, 0, next_use)
                == cache.access(addr, 0, next_use))
    assert state(restored) == state(cache)


def _cell_results():
    trace = get_profile("mcf").trace(3000, seed=0, scale=1 / 64)
    return [simulate_single_thread(_cell_cache(128, ranking, organization),
                                   trace, TABLE_II)
            for ranking in RANKINGS for organization in ORGANIZATIONS]


def test_a_failed_build_falls_back_to_the_python_kernel(monkeypatch,
                                                        tmp_path):
    """With no module cached and the compile step failing, every covered
    build runs the Python kernel, one warning says so, and the results are
    the native kernel's."""
    expected = _cell_results()

    def failing_compile(target):
        raise OSError("no C compiler here")
    monkeypatch.setattr(native, "_module", None)
    monkeypatch.setattr(native, "_failure", None)
    monkeypatch.setattr(native, "CACHE_DIR", tmp_path)
    monkeypatch.setattr(native, "_compile", failing_compile)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        caches = [_cell_cache(256, ranking, organization)
                  for ranking in RANKINGS for organization in ORGANIZATIONS]
        assert _cell_results() == expected
    assert [w.category for w in caught] == [RuntimeWarning]
    assert "no C compiler here" in str(caught[0].message)
    assert not any(is_native(cache.access) for cache in caches)
    assert "no C compiler here" in native.unavailable()
    assert list(tmp_path.iterdir()) == []


def test_concurrent_builds_leave_one_loadable_module(native_module,
                                                     tmp_path):
    """Two processes compiling into one empty build cache at once leave
    one whole module, which a third process loads and runs."""
    cache_dir = tmp_path / "native"
    go = tmp_path / "go"
    build = textwrap.dedent("""
        import sys, time
        from pathlib import Path
        from repro.cache import native
        while not Path(sys.argv[2]).exists():
            time.sleep(0.005)
        native.build(Path(sys.argv[1]))
    """)
    procs = [subprocess.Popen([sys.executable, "-c", build,
                                  str(cache_dir), str(go)])
                for _ in range(2)]
    go.touch()
    assert [p.wait(timeout=120) for p in procs] == [0, 0]
    module = native.module_path(cache_dir, native.source_hash())
    assert sorted(os.listdir(cache_dir)) == [module.name]
    run = textwrap.dedent("""
        import sys
        from pathlib import Path
        from repro.cache import native
        from repro.experiments.fig6 import _cell_cache
        native.CACHE_DIR = Path(sys.argv[1])
        cache = _cell_cache(256, "opt", "fa")
        assert type(cache.access).__name__ == "NativeKernel"
        for addr in range(1000):
            cache.access(addr % 300, 0, addr + 300)
        cache.check_invariants()
    """)
    before = module.stat().st_mtime_ns
    subprocess.run([sys.executable, "-c", run, str(cache_dir)], check=True,
                   timeout=120)
    assert sorted(os.listdir(cache_dir)) == [module.name]
    assert module.stat().st_mtime_ns == before


def _fill(cache):
    for addr in range(12):
        cache.access(addr, 0, addr + 100)
    return cache


#: One 8-line cache per kernel kind: fig6's four builds on each kernel,
#: then Python kernels that reach the miss path by other routes (a
#: choose call, the inline FS scan and draw, the feedback-FS shift scan,
#: a relocating array, the eager FullAssoc index).
KERNEL_KINDS = {
    "%s-%s-%s" % (organization, ranking, kernel): (
        lambda o=organization, r=ranking, k=kernel: (
            lambda cache: cache if k == "native" else on_python_kernel(cache))(
            PartitionedCache(ORGANIZATIONS[o][0](8), RANKINGS[r](),
                             ORGANIZATIONS[o][2](), 1,
                             track_eviction_futility=False)))
    for organization in ORGANIZATIONS for ranking in RANKINGS
    for kernel in ("native", "python")
}
KERNEL_KINDS.update({
    "set-assoc-vantage": lambda: build_cache(
        array="set-assoc", num_lines=8, ways=4, ranking="lru",
        scheme="vantage", num_partitions=1),
    "random-fs": lambda: PartitionedCache(
        RandomCandidatesArray(8, 4, seed=1), LRURanking(),
        make_scheme("fs", alphas=[1.0]), 1),
    "dm-fs-feedback-coarse": lambda: PartitionedCache(
        DirectMappedArray(8), CoarseTimestampLRURanking(),
        make_scheme("fs-feedback"), 1),
    "zcache-pf": lambda: PartitionedCache(
        ZCacheArray(8, 2, 4, hash_seed=1), LRURanking(), make_scheme("pf"),
        1),
    "fa-lru-ranks": lambda: PartitionedCache(
        FullyAssociativeArray(8), LRURanking(), FullAssocScheme(), 1),
})


@pytest.mark.parametrize("addr", [1 << 63, (1 << 64) + 3, -1, 1.5, 11.0])
@pytest.mark.parametrize("kind", sorted(KERNEL_KINDS))
def test_an_address_outside_int64_is_refused_before_any_change(kind, addr):
    """An address of 2**63 or more used to evict a line and count a miss
    and an eviction before ``tag[victim] = addr`` raised OverflowError.
    A float used to do the same before a ``TypeError``, and one equal to
    a resident address (11 is) counted a hit."""
    if kind.endswith("-native") and native.load() is None:
        pytest.skip("native kernel unavailable: %s" % native.unavailable())
    cache = _fill(KERNEL_KINDS[kind]())
    assert is_native(cache.access) == kind.endswith("-native")
    before = (cache.stats.summary(), sorted(cache.lines.where.items()),
              list(cache.actual_sizes), cache._resident)
    with pytest.raises(ConfigurationError, match=r"\[0, 2\*\*63\)"):
        cache.access(addr, 0, 5)
    assert before == (cache.stats.summary(),
                      sorted(cache.lines.where.items()),
                      list(cache.actual_sizes), cache._resident)
    cache.check_invariants()
