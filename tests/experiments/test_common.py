"""Tests for the shared experiment infrastructure."""

import pytest

from repro.cache.arrays import (
    DirectMappedArray,
    FullyAssociativeArray,
    RandomCandidatesArray,
    SetAssociativeArray,
)
from repro.cache.cache import PartitionedCache
from repro.core.futility import LRURanking, OPTRanking
from repro.core.schemes.partitioning_first import PartitioningFirstScheme
from repro.api import build_array, build_cache
from repro.errors import ConfigurationError
from repro.experiments.common import (
    ADDRESS_SPACING,
    duplicated_traces,
    format_cdf_summary,
    format_table,
    mixed_traces,
    prefill_to_targets,
)
from repro.trace.access import Trace


class TestBuildArray:
    @pytest.mark.parametrize("kind,cls", [
        ("set-assoc", SetAssociativeArray),
        ("random", RandomCandidatesArray),
        ("full-assoc", FullyAssociativeArray),
        ("direct-mapped", DirectMappedArray),
    ])
    def test_kinds(self, kind, cls):
        assert isinstance(build_array(kind, 64), cls)

    def test_unknown(self):
        with pytest.raises(ConfigurationError):
            build_array("victim-cache", 64)


class TestBuildCache:
    def test_accepts_names(self):
        cache = build_cache(array="set-assoc", num_lines=64, ranking="lru",
                            scheme="pf", num_partitions=2)
        assert isinstance(cache, PartitionedCache)
        assert cache.ranking.name == "lru"
        assert cache.scheme.name == "pf"

    def test_accepts_instances(self):
        cache = build_cache(array=build_array("set-assoc", 64),
                            ranking=LRURanking(),
                            scheme=PartitioningFirstScheme(),
                            num_partitions=1)
        assert cache.num_partitions == 1


class TestTraceBuilders:
    def test_duplicated_traces_disjoint_spaces(self):
        traces = duplicated_traces("mcf", 3, 500, scale=0.1)
        spaces = [set(t.addresses) for t in traces]
        assert spaces[0].isdisjoint(spaces[1])
        assert spaces[1].isdisjoint(spaces[2])
        assert all(len(t) == 500 for t in traces)

    def test_duplicates_not_lockstepped(self):
        a, b = duplicated_traces("mcf", 2, 300)
        assert [x - ADDRESS_SPACING for x in a.addresses] != \
               [x - 2 * ADDRESS_SPACING for x in b.addresses]

    def test_mixed_traces(self):
        traces = mixed_traces(["mcf", "lbm", "mcf"], 200, scale=0.1)
        assert [t.name for t in traces] == ["mcf", "lbm", "mcf"]


class TestPrefill:
    def test_reaches_targets_and_resets_stats(self):
        cache = build_cache(array="set-assoc", num_lines=128, ranking="lru",
                            scheme="pf", targets=[96, 32])
        traces = [Trace(range(10_000)), Trace(range(10**6, 10**6 + 10_000))]
        prefill_to_targets(cache, traces)
        assert cache.actual_sizes[0] >= 90
        assert cache.actual_sizes[1] >= 30
        assert cache.stats.accesses == 0

    def test_small_footprint_budget_expires(self):
        """A thread whose footprint is below its target cannot fill it;
        prefill must terminate anyway."""
        cache = build_cache(array="set-assoc", num_lines=128, ranking="lru",
                            scheme="pf", targets=[100, 28])
        traces = [Trace([1, 2, 3]), Trace(range(10**6, 10**6 + 1000))]
        prefill_to_targets(cache, traces, budget_per_line=2)
        assert cache.actual_sizes[0] == 3

    def test_opt_ranking_supported(self):
        cache = PartitionedCache(FullyAssociativeArray(32), OPTRanking(),
                                 PartitioningFirstScheme(), 1)
        prefill_to_targets(cache, [Trace(range(100))])
        assert cache.actual_sizes[0] == 32


class TestFormatting:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2.5], ["x", None]],
                            title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "---" in lines[2].replace(" ", "-") or "-" in lines[2]
        assert "2.5" in text

    def test_format_cdf_summary(self):
        text = format_cdf_summary([0.0, 0.5, 1.0], [0.0, 0.6, 1.0],
                                  points=(0.5,))
        assert "F(0.50)=0.600" in text
