"""Tests for the Futility Scaling schemes (static and feedback-based)."""

import random
import re

import pytest

from repro.cache.arrays import RandomCandidatesArray, SetAssociativeArray
from repro.cache.cache import PartitionedCache
from repro.core.futility import CoarseTimestampLRURanking, LRURanking
from repro.core.scaling import alpha_for_two_partitions
from repro.core.schemes import futility_scaling
from repro.core.schemes.futility_scaling import (
    FeedbackFutilityScalingScheme,
    FutilityScalingScheme,
)
from repro.errors import ConfigurationError

#: Factors that compare false with everything, or make every product
#: infinite: each must be refused wherever a factor enters the scheme.
NON_FINITE = [float("nan"), float("inf")]


def drive_two_partition(cache, accesses=20_000, p0_share=0.5, space=5000,
                        seed=0):
    rng = random.Random(seed)
    for _ in range(accesses):
        part = 0 if rng.random() < p0_share else 1
        cache.access(part * 10**9 + rng.randrange(space), part)
    return cache


class TestStaticFS:
    def test_construction_validation(self):
        with pytest.raises(ConfigurationError):
            FutilityScalingScheme(alphas=[1.0], insertion_rates=[0.5, 0.5])
        with pytest.raises(ConfigurationError):
            FutilityScalingScheme(alphas=[0.0, 1.0])
        with pytest.raises(ConfigurationError):
            FutilityScalingScheme().alphas  # not configured yet

    def test_alphas_solved_from_insertion_rates(self):
        scheme = FutilityScalingScheme(insertion_rates=[0.1, 0.9])
        PartitionedCache(RandomCandidatesArray(256, 16, seed=0),
                         LRURanking(), scheme, 2, targets=[205, 51])
        expected = alpha_for_two_partitions(51 / 256, 0.9, 16)
        assert scheme.alphas[0] == pytest.approx(1.0)
        assert scheme.alphas[1] == pytest.approx(expected, rel=1e-4)

    def test_defaults_to_neutral_alphas(self):
        scheme = FutilityScalingScheme()
        PartitionedCache(SetAssociativeArray(64, 16), LRURanking(), scheme, 2)
        assert scheme.alphas == [1.0, 1.0]

    def test_set_alphas_validation(self):
        scheme = FutilityScalingScheme()
        PartitionedCache(SetAssociativeArray(64, 16), LRURanking(), scheme, 2)
        with pytest.raises(ConfigurationError):
            scheme.set_alphas([1.0])
        with pytest.raises(ConfigurationError):
            scheme.set_alphas([1.0, -2.0])
        scheme.set_alphas([1.0, 4.0])
        assert scheme.alphas == [1.0, 4.0]

    @pytest.mark.parametrize("bad", NON_FINITE, ids=str)
    def test_non_finite_alphas_are_refused(self, bad):
        with pytest.raises(ConfigurationError, match="positive and finite"):
            FutilityScalingScheme(alphas=[bad, 1.0])
        scheme = FutilityScalingScheme()
        PartitionedCache(SetAssociativeArray(64, 16), LRURanking(), scheme, 2)
        with pytest.raises(ConfigurationError, match="positive and finite"):
            scheme.set_alphas([1.0, bad])
        assert scheme.alphas == [1.0, 1.0]

    @pytest.mark.parametrize("bad", NON_FINITE, ids=str)
    def test_non_finite_solved_alphas_are_refused(self, bad, monkeypatch):
        monkeypatch.setattr(futility_scaling, "solve_scaling_factors",
                            lambda sizes, rates, r: [1.0, bad])
        scheme = FutilityScalingScheme(insertion_rates=[0.1, 0.9])
        with pytest.raises(ConfigurationError, match="positive and finite"):
            PartitionedCache(RandomCandidatesArray(256, 16, seed=0),
                             LRURanking(), scheme, 2, targets=[205, 51])

    def test_alpha_count_mismatch_at_bind(self):
        scheme = FutilityScalingScheme(alphas=[1.0, 2.0, 3.0])
        with pytest.raises(ConfigurationError):
            PartitionedCache(SetAssociativeArray(64, 16), LRURanking(),
                             scheme, 2)

    def test_scaling_shrinks_the_scaled_partition(self):
        """With symmetric traffic, scaling partition 1's futility up must
        shrink it below its unscaled share (the core FS mechanism)."""
        scheme = FutilityScalingScheme(alphas=[1.0, 3.0])
        cache = PartitionedCache(RandomCandidatesArray(256, 16, seed=1),
                                 LRURanking(), scheme, 2)
        drive_two_partition(cache, 20_000)
        assert cache.actual_sizes[1] < 100 < cache.actual_sizes[0]

    def test_equation_one_alphas_enforce_targets(self):
        """Static alphas from Eq. (1) hold a 75/25 split under symmetric
        insertion (the Section IV steady-state claim)."""
        targets = [192, 64]
        alphas = (1.0, alpha_for_two_partitions(0.25, 0.5, 16))
        scheme = FutilityScalingScheme(alphas=alphas)
        cache = PartitionedCache(RandomCandidatesArray(256, 16, seed=2),
                                 LRURanking(), scheme, 2, targets=targets)
        drive_two_partition(cache, 40_000)
        assert cache.actual_sizes[1] == pytest.approx(64, abs=20)

    def test_full_candidate_list_always_used(self):
        """FS with equal alphas equals unpartitioned max-futility eviction:
        high associativity by construction (AEF near R/(R+1))."""
        scheme = FutilityScalingScheme(alphas=[1.0, 1.0])
        cache = PartitionedCache(RandomCandidatesArray(512, 16, seed=3),
                                 LRURanking(), scheme, 2)
        drive_two_partition(cache, 30_000)
        aefs = [cache.stats.aef(p) for p in range(2)]
        for aef in aefs:
            assert aef == pytest.approx(16 / 17, abs=0.02)


class TestFeedbackFS:
    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            FeedbackFutilityScalingScheme(interval_length=0)
        with pytest.raises(ConfigurationError):
            FeedbackFutilityScalingScheme(changing_ratio=1.0)
        with pytest.raises(ConfigurationError):
            FeedbackFutilityScalingScheme(max_level=0)

    @pytest.mark.parametrize("bad", NON_FINITE, ids=str)
    def test_non_finite_changing_ratio_is_refused(self, bad):
        with pytest.raises(ConfigurationError, match="finite"):
            FeedbackFutilityScalingScheme(changing_ratio=bad)

    @pytest.mark.parametrize("ratio,max_level", [
        (1e50, 7), (1e300, 7), (2.0, 1024)], ids=["1e50", "1e300", "2^1024"])
    def test_overflowing_top_multiplier_is_refused(self, ratio, max_level):
        """A finite ratio whose top multiplier ``ratio ** max_level``
        exceeds the float range is a ConfigurationError naming both."""
        with pytest.raises(ConfigurationError, match=re.escape(
                f"changing_ratio {ratio} ** max_level {max_level} "
                f"overflows")):
            FeedbackFutilityScalingScheme(changing_ratio=ratio,
                                          max_level=max_level)

    def test_largest_representable_multiplier_is_kept(self):
        scheme = FeedbackFutilityScalingScheme(changing_ratio=2.0,
                                               max_level=1023)
        assert scheme._multipliers[-1] == 2.0 ** 1023

    def make_cache(self, scheme, targets=(192, 64)):
        cache = PartitionedCache(SetAssociativeArray(256, 16),
                                 CoarseTimestampLRURanking(), scheme, 2,
                                 targets=list(targets))
        return cache

    def test_levels_start_at_zero(self):
        scheme = FeedbackFutilityScalingScheme()
        self.make_cache(scheme)
        assert scheme.scaling_levels() == [0, 0]
        assert scheme.scaling_factors() == [1.0, 1.0]

    def test_level_raises_when_oversized_and_growing(self):
        scheme = FeedbackFutilityScalingScheme(interval_length=4)
        cache = self.make_cache(scheme, targets=(250, 6))
        # Flood partition 1 so it grows past its tiny target.
        for a in range(64):
            cache.access(10**9 + a, 1)
        assert scheme.scaling_levels()[1] > 0

    def test_level_saturates_at_max(self):
        scheme = FeedbackFutilityScalingScheme(interval_length=1, max_level=3)
        cache = self.make_cache(scheme, targets=(250, 6))
        for a in range(3000):
            cache.access(10**9 + a, 1)
        assert scheme.scaling_levels()[1] == 3
        assert scheme.scaling_factors()[1] == 8.0

    def test_interval_conditions_follow_algorithm_2(self):
        """White-box check of Algorithm 2's four (size error, trend)
        branches: the level moves only for (over & growing) and
        (under & shrinking)."""
        scheme = FeedbackFutilityScalingScheme(interval_length=4)
        cache = self.make_cache(scheme, targets=(128, 128))

        def elapse(actual, ins, evi):
            cache.actual_sizes[1] = actual
            scheme._ins[1], scheme._evi[1] = ins, evi
            scheme._interval_elapsed(1)
            return scheme._levels[1]

        scheme._levels[1] = 3
        assert elapse(actual=200, ins=4, evi=1) == 4   # over & growing: up
        assert elapse(actual=200, ins=1, evi=4) == 4   # over & shrinking: hold
        assert elapse(actual=50, ins=4, evi=1) == 4    # under & growing: hold
        assert elapse(actual=50, ins=1, evi=4) == 3    # under & shrinking: down
        # Counters reset after every interval.
        assert scheme._ins[1] == 0 and scheme._evi[1] == 0

    def test_level_frozen_without_partition_activity(self):
        """Algorithm 2 adjusts a partition's factor only when its own
        insertion/eviction counters elapse: an inactive partition's level
        stays frozen even if its size error changes."""
        scheme = FeedbackFutilityScalingScheme(interval_length=4)
        cache = self.make_cache(scheme, targets=(250, 6))
        for a in range(200):
            cache.access(10**9 + a, 1)
        level = scheme.scaling_levels()[1]
        assert level > 0
        cache.set_targets([6, 250])   # partition 1 now deeply undersized
        # Partition 0 traffic alone does not touch partition 1's level as
        # long as no partition-1 insertions or evictions occur.
        before_evi = cache.stats.evictions[1]
        for a in range(50):
            cache.access(a, 0)
        if cache.stats.evictions[1] == before_evi:
            assert scheme.scaling_levels()[1] == level

    def test_sizes_converge_to_targets(self):
        scheme = FeedbackFutilityScalingScheme()
        cache = self.make_cache(scheme, targets=(192, 64))
        drive_two_partition(cache, 40_000, space=3000)
        assert cache.actual_sizes[0] == pytest.approx(192, abs=30)
        assert cache.actual_sizes[1] == pytest.approx(64, abs=30)

    def test_smooth_resizing(self):
        """Changing targets mid-run requires no flush: the scheme simply
        steers sizes to the new targets (the smooth-resizing property)."""
        scheme = FeedbackFutilityScalingScheme()
        cache = self.make_cache(scheme, targets=(192, 64))
        drive_two_partition(cache, 20_000, space=3000, seed=1)
        cache.set_targets([64, 192])
        drive_two_partition(cache, 30_000, space=3000, seed=2)
        assert cache.stats.flushes == 0
        assert cache.actual_sizes[0] == pytest.approx(64, abs=30)
        assert cache.actual_sizes[1] == pytest.approx(192, abs=30)

    def test_hardware_register_ranges(self):
        """Levels must stay within the 3-bit ScalingShiftWidth register."""
        scheme = FeedbackFutilityScalingScheme()
        cache = self.make_cache(scheme, targets=(250, 6))
        drive_two_partition(cache, 30_000, p0_share=0.1, space=3000)
        for level in scheme.scaling_levels():
            assert 0 <= level <= 7

    def test_adjustment_recording(self):
        scheme = FeedbackFutilityScalingScheme(interval_length=2)
        scheme.record_adjustments = True
        cache = self.make_cache(scheme, targets=(250, 6))
        for a in range(100):
            cache.access(10**9 + a, 1)
        assert scheme.adjustments
        part, level = scheme.adjustments[0]
        assert part == 1 and level == 1
