"""Tests for multiprogrammed trace feeding."""

import pytest

from repro.cache.arrays import RandomCandidatesArray
from repro.cache.cache import PartitionedCache
from repro.core.futility import LRURanking, OPTRanking
from repro.core.schemes.partitioning_first import PartitioningFirstScheme
from repro.errors import ConfigurationError, TraceError
from repro.trace.access import Trace
from repro.trace.mixing import (
    TraceCursor,
    interleave_round_robin,
    run_insertion_rate_controlled,
    run_round_robin,
)


def stream_trace(base, n=100):
    return Trace(range(base, base + n))


class TestTraceCursor:
    def test_empty_trace_rejected(self):
        with pytest.raises(TraceError):
            TraceCursor(Trace([]))

    def test_iteration_and_wrap(self):
        c = TraceCursor(Trace([1, 2, 3], gaps=[10, 20, 30]))
        assert c.next() == (1, None, 10)
        assert c.next() == (2, None, 20)
        assert c.next() == (3, None, 30)
        assert c.wraps == 1
        assert c.next() == (1, None, 10)
        assert c.total_accesses == 4

    def test_next_use_offsets_across_wraps(self):
        c = TraceCursor(Trace([1, 1]), with_next_use=True)
        _, nu0, _ = c.next()
        assert nu0 == 1
        _, nu1, _ = c.next()
        _, nu0b, _ = c.next()   # second pass: keys shifted by len(trace)
        assert nu0b == nu0 + 2
        # Keys stay strictly increasing for the same position over wraps.
        assert nu1 < nu0b or nu1 > nu0


class TestRoundRobin:
    def test_order(self):
        feed = interleave_round_robin([stream_trace(0), stream_trace(1000)],
                                      6)
        tids = [tid for tid, _, _ in feed]
        assert tids == [0, 1, 0, 1, 0, 1]

    def test_run_round_robin_drives_cache(self):
        cache = PartitionedCache(RandomCandidatesArray(64, 8, seed=0),
                                 LRURanking(), PartitioningFirstScheme(), 2)
        run_round_robin(cache, [stream_trace(0), stream_trace(10_000)], 200)
        assert cache.stats.accesses == 200
        assert cache.stats.misses[0] > 0
        assert cache.stats.misses[1] > 0

    def test_warmup_discards_stats(self):
        cache = PartitionedCache(RandomCandidatesArray(64, 8, seed=0),
                                 LRURanking(), PartitioningFirstScheme(), 2)
        run_round_robin(cache, [stream_trace(0), stream_trace(10_000)],
                        100, warmup=100)
        assert cache.stats.accesses == 100


class TestInsertionRateControl:
    def make_cache(self, lines=128):
        return PartitionedCache(RandomCandidatesArray(lines, 8, seed=1),
                                LRURanking(), PartitioningFirstScheme(), 2)

    def test_validation(self):
        cache = self.make_cache()
        with pytest.raises(TraceError):
            run_insertion_rate_controlled(cache, [stream_trace(0)],
                                          [0.5, 0.5], 10)
        with pytest.raises(ConfigurationError):
            run_insertion_rate_controlled(
                cache, [stream_trace(0), stream_trace(1000)], [0.5, 0.6], 10)

    def test_exact_insertion_shares(self):
        """The defining property: each partition's share of insertions is
        exactly the configured rate (up to sampling noise)."""
        cache = self.make_cache()
        run_insertion_rate_controlled(
            cache, [stream_trace(0, 100_000), stream_trace(10**7, 100_000)],
            [0.8, 0.2], 5_000, seed=3)
        fractions = cache.stats.insertion_fractions()
        assert fractions[0] == pytest.approx(0.8, abs=0.02)
        assert fractions[1] == pytest.approx(0.2, abs=0.02)

    def test_total_insertions(self):
        cache = self.make_cache()
        run_insertion_rate_controlled(
            cache, [stream_trace(0, 10_000), stream_trace(10**7, 10_000)],
            [0.5, 0.5], 500, seed=1)
        assert sum(cache.stats.insertions) == 500

    def test_warmup_resets_stats(self):
        cache = self.make_cache()
        run_insertion_rate_controlled(
            cache, [stream_trace(0, 10_000), stream_trace(10**7, 10_000)],
            [0.5, 0.5], 300, warmup_insertions=100, seed=1)
        assert sum(cache.stats.insertions) == 300

    def test_prefill_seeds_targets(self):
        cache = self.make_cache()
        cache.set_targets([96, 32])
        run_insertion_rate_controlled(
            cache, [stream_trace(0, 10_000), stream_trace(10**7, 10_000)],
            [0.5, 0.5], 1, prefill=True, seed=1)
        # After the prefill both partitions were at target; a single
        # controlled insertion can move sizes by at most one line.
        assert abs(cache.actual_sizes[0] - 96) <= 1
        assert abs(cache.actual_sizes[1] - 32) <= 1

    def test_returns_issued_access_counts(self):
        cache = self.make_cache()
        issued = run_insertion_rate_controlled(
            cache, [stream_trace(0, 10_000), stream_trace(10**7, 10_000)],
            [0.5, 0.5], 200, seed=2)
        assert len(issued) == 2
        assert sum(issued) >= 200

    def test_opt_feed_matches_trace_cursor(self):
        """Through prefill, warmup and the measured phase, the driver hands
        the cache exactly the ``(addr, part, next_use)`` stream that one
        TraceCursor per thread yields, wrap offsets included, and
        ``issued`` counts the accesses after the prefill."""
        # Footprints of 29 and 17 lines against targets of 20 and 12, so
        # neither thread settles into all hits.
        traces = [Trace([(i * 7) % 29 for i in range(31)]),
                  Trace([10**6 + (i * 3) % 17 for i in range(19)])]
        cache = PartitionedCache(RandomCandidatesArray(32, 8, seed=4),
                                 OPTRanking(), PartitioningFirstScheme(), 2)
        cache.set_targets([20, 12])
        kernel, reset = cache.access, cache.reset_stats
        fed, resets = [], []

        def access(addr, part, next_use=None, **kwargs):
            fed.append((addr, part, next_use))
            return kernel(addr, part, next_use, **kwargs)

        def reset_stats():
            resets.append(len(fed))
            reset()
        cache.access, cache.reset_stats = access, reset_stats
        issued = run_insertion_rate_controlled(
            cache, traces, [0.7, 0.3], 300, warmup_insertions=50,
            prefill=True, seed=9)

        cursors = [TraceCursor(t, with_next_use=True) for t in traces]
        expected = []
        for _addr, part, _next_use in fed:
            addr, next_use, _gap = cursors[part].next()
            expected.append((addr, part, next_use))
        assert fed == expected
        assert all(c.wraps >= 3 for c in cursors)
        assert len(resets) == 2     # after the prefill, after the warmup
        measured = [part for _, part, _ in fed[resets[0]:]]
        assert issued == [measured.count(0), measured.count(1)]
