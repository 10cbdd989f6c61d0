"""Tests for the FullAssoc ideal scheme and the way-partitioning baseline."""

import random

import pytest

from repro.api import build_cache
from repro.cache.arrays import FullyAssociativeArray, SetAssociativeArray
from repro.cache.cache import PartitionedCache
from repro.core.futility import CoarseTimestampLRURanking, LRURanking
from repro.core.schemes.full_assoc import FullAssocScheme
from repro.core.schemes.way_partition import WayPartitionScheme
from repro.errors import ConfigurationError


def drive(cache, accesses, parts=2, space=4000, seed=0):
    rng = random.Random(seed)
    for _ in range(accesses):
        part = rng.randrange(parts)
        cache.access(part * 10**9 + rng.randrange(space), part)
    return cache


class TestFullAssoc:
    def test_requires_exact_ranking(self):
        with pytest.raises(ConfigurationError):
            PartitionedCache(FullyAssociativeArray(64),
                             CoarseTimestampLRURanking(),
                             FullAssocScheme(), 2)

    def test_exact_sizing(self):
        cache = PartitionedCache(FullyAssociativeArray(256), LRURanking(),
                                 FullAssocScheme(), 2, targets=[192, 64])
        drive(cache, 20_000)
        assert cache.actual_sizes == [192, 64]
        cache.check_invariants()

    def test_full_associativity(self):
        """FullAssoc always evicts the most futile line of the chosen
        partition: every eviction futility is exactly 1."""
        cache = PartitionedCache(FullyAssociativeArray(128), LRURanking(),
                                 FullAssocScheme(), 2)
        drive(cache, 8_000)
        for p in range(2):
            samples = cache.stats.eviction_futility_samples(p)
            assert len(samples) > 0
            assert all(s == pytest.approx(1.0) for s in samples)

    def test_single_partition_is_plain_lru(self):
        cache = PartitionedCache(FullyAssociativeArray(4), LRURanking(),
                                 FullAssocScheme(), 1)
        for a in [1, 2, 3, 4]:
            cache.access(a, 0)
        cache.access(1, 0)   # refresh
        cache.access(5, 0)   # evicts LRU = 2
        assert not cache.contains(2)
        assert cache.contains(1)

    def test_eviction_from_most_oversized(self):
        cache = PartitionedCache(FullyAssociativeArray(64), LRURanking(),
                                 FullAssocScheme(), 2, targets=[32, 32])
        for a in range(64):
            cache.access(a, 0)   # partition 0 fills the whole array
        cache.access(10**9, 1)
        assert cache.stats.evictions == [1, 0]


class TestWayPartition:
    def make(self, num_lines=256, ways=16, parts=2, targets=None):
        return PartitionedCache(SetAssociativeArray(num_lines, ways),
                                LRURanking(), WayPartitionScheme(), parts,
                                targets=targets)

    def test_needs_enough_ways(self):
        with pytest.raises(ConfigurationError):
            PartitionedCache(SetAssociativeArray(64, 4), LRURanking(),
                             WayPartitionScheme(), 8)

    def test_way_assignment_matches_targets(self):
        cache = self.make(targets=[192, 64])
        scheme = cache.scheme
        assert len(scheme.way_assignment()) == 16
        assert len(scheme.ways_of(0)) == 12
        assert len(scheme.ways_of(1)) == 4

    def test_every_partition_gets_a_way(self):
        cache = self.make(parts=4, targets=[253, 1, 1, 1])
        for p in range(4):
            assert len(cache.scheme.ways_of(p)) >= 1

    def test_isolation_by_construction(self):
        """A flooding partition can never displace the other's lines."""
        cache = self.make(targets=[128, 128])
        for a in range(8):
            cache.access(a, 0)
        for a in range(10_000):
            cache.access(10**9 + a, 1)
        for a in range(8):
            assert cache.contains(a)
        assert cache.stats.evictions[0] == 0

    def test_occupancy_bounded_by_way_share(self):
        cache = self.make(targets=[128, 128])
        drive(cache, 20_000)
        # 8 ways of 16 sets each.
        assert cache.actual_sizes[0] <= 8 * 16
        assert cache.actual_sizes[1] <= 8 * 16

    def test_resize_flushes_transferred_ways(self):
        """The placement-scheme resizing penalty: lines stranded in
        transferred ways are invalidated and counted."""
        cache = self.make(targets=[128, 128])
        drive(cache, 10_000, seed=3)
        assert cache.stats.flushes == 0
        cache.set_targets([224, 32])
        assert cache.scheme.flushes > 0
        assert cache.stats.flushes == cache.scheme.flushes
        cache.check_invariants()

    def test_resize_to_same_targets_is_free(self):
        cache = self.make(targets=[128, 128])
        drive(cache, 5_000)
        cache.set_targets([128, 128])
        assert cache.scheme.flushes == 0

    def test_foreign_lines_evicted_first_after_resize(self):
        cache = self.make(targets=[224, 32])
        drive(cache, 10_000, seed=5)
        cache.set_targets([32, 224])
        # After the flush, remaining foreign lines in partition 1's new
        # ways are preferred victims; drive partition 1 and verify
        # invariants hold throughout.
        for a in range(5_000):
            cache.access(10**9 + a, 1)
        cache.check_invariants()

    def test_associativity_equals_way_count(self):
        """A 2-way partition of a 16-way cache behaves like a 2-way cache:
        its AEF is far below the full 16-way value."""
        cache = self.make(targets=[224, 32])
        drive(cache, 30_000, seed=7)
        aef_small = cache.stats.aef(1)
        assert aef_small < 0.85

    @pytest.mark.parametrize("kind", ["zcache", "skew"])
    def test_refuses_way_major_arrays(self, kind):
        """Way ownership maps slots as ``slot % ways``, the set-major
        layout of SetAssociativeArray; skew and zcache arrays lay slots
        out way-major, where that mapping would strand partitions."""
        with pytest.raises(ConfigurationError, match="SetAssociativeArray"):
            build_cache(array=kind, num_lines=256, ways=4, candidates=16,
                        ranking="lru", scheme="way-partition",
                        num_partitions=3)

    def test_three_private_streams_on_set_assoc(self):
        cache = build_cache(array="set-assoc", num_lines=256, ways=4,
                            ranking="lru", scheme="way-partition",
                            num_partitions=3)
        drive(cache, 3_000, parts=3, space=400)
        cache.check_invariants()
        assert all(cache.stats.evictions)
