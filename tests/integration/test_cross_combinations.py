"""Cross-product integration tests: schemes x rankings x arrays.

The library's composability claim — any scheme runs on any array with any
ranking (subject to documented constraints) — exercised on a matrix of
combinations the figure experiments do not cover, with full invariant
checking.
"""

import random

import pytest

from repro.cache.cache import PartitionedCache
from repro.core.futility import make_ranking
from repro.core.schemes.base import make_scheme
from repro.api import build_array
from repro.trace.access import annotate_next_use

ARRAYS = ("set-assoc", "random", "skew", "zcache")
SCHEMES = ("pf", "cqvp", "fs", "fs-feedback", "vantage", "prism",
           "unpartitioned")
RANKINGS = ("lru", "lfu", "coarse-ts-lru")


def drive_checked(cache, accesses=2500, parts=2, space=700, seed=0):
    rng = random.Random(seed)
    for _ in range(accesses):
        part = rng.randrange(parts)
        cache.access(part * 10**6 + rng.randrange(space), part)
    cache.check_invariants()
    return cache


@pytest.mark.parametrize("array_kind", ARRAYS)
@pytest.mark.parametrize("scheme_kind", SCHEMES)
def test_scheme_array_matrix(array_kind, scheme_kind):
    """Every (scheme, array) pair runs cleanly under exact LRU."""
    array = build_array(array_kind, 256, ways=8, candidates=8, seed=3)
    cache = PartitionedCache(array, make_ranking("lru"),
                             make_scheme(scheme_kind), 2)
    drive_checked(cache, seed=hash((array_kind, scheme_kind)) & 0xFFFF)
    assert sum(cache.actual_sizes) > 0


@pytest.mark.parametrize("ranking_kind", RANKINGS)
@pytest.mark.parametrize("scheme_kind", ("pf", "fs-feedback", "vantage"))
def test_scheme_ranking_matrix(ranking_kind, scheme_kind):
    """Scheme x ranking combinations on the Table II-style array."""
    cache = PartitionedCache(build_array("set-assoc", 256, ways=8),
                             make_ranking(ranking_kind),
                             make_scheme(scheme_kind), 2)
    drive_checked(cache, seed=hash((ranking_kind, scheme_kind)) & 0xFFFF)


@pytest.mark.parametrize("scheme_kind", ("pf", "fs", "vantage"))
def test_opt_ranking_with_schemes(scheme_kind):
    """OPT needs per-access next-use; every scheme must accept it."""
    rng = random.Random(5)
    parts = [rng.randrange(2) for _ in range(3000)]
    addrs = [parts[i] * 10**6 + rng.randrange(400) for i in range(3000)]
    # Next-use must be computed per thread-local stream, as the feeders do.
    streams = {0: [], 1: []}
    for i, (p, a) in enumerate(zip(parts, addrs)):
        streams[p].append(a)
    next_use = {p: annotate_next_use(s) for p, s in streams.items()}
    cursor = {0: 0, 1: 0}
    cache = PartitionedCache(build_array("set-assoc", 256, ways=8),
                             make_ranking("opt"), make_scheme(scheme_kind), 2)
    for p, a in zip(parts, addrs):
        cache.access(a, p, next_use=next_use[p][cursor[p]])
        cursor[p] += 1
    cache.check_invariants()


def test_zcache_with_fs_feedback_and_writes():
    """The heaviest composition: zcache relocations + coarse timestamps +
    feedback FS + dirty lines, all interacting."""
    cache = PartitionedCache(
        build_array("zcache", 256, ways=4, candidates=16, seed=7),
        make_ranking("coarse-ts-lru"), make_scheme("fs-feedback"), 2,
        targets=[192, 64])
    rng = random.Random(9)
    for _ in range(6000):
        part = rng.randrange(2)
        cache.access(part * 10**6 + rng.randrange(700), part,
                     is_write=rng.random() < 0.4)
    cache.check_invariants()
    assert sum(cache.stats.writebacks) > 0
