"""Tests for the multiprogrammed trace-driven engine."""

import pytest

from repro.cache.arrays import FullyAssociativeArray, SetAssociativeArray
from repro.cache.cache import PartitionedCache
from repro.core.futility import LRURanking, OPTRanking
from repro.core.schemes.full_assoc import FullAssocScheme
from repro.core.schemes.partitioning_first import PartitioningFirstScheme
from repro.core.schemes.unpartitioned import UnpartitionedScheme
from repro.errors import ConfigurationError
from repro.sim.config import TABLE_II, SystemConfig
from repro.sim.engine import (
    MultiprogramSimulator,
    ThreadResult,
    simulate_single_thread,
)
from repro.trace.access import Trace


def single_cache(lines=64, partitions=1):
    return PartitionedCache(SetAssociativeArray(lines, 4), LRURanking(),
                            PartitioningFirstScheme(), partitions)


class TestValidation:
    def test_trace_partition_mismatch(self):
        with pytest.raises(ConfigurationError):
            MultiprogramSimulator(single_cache(partitions=2),
                                  [Trace([1])], TABLE_II)

    def test_instruction_limit_positive(self):
        with pytest.raises(ConfigurationError):
            MultiprogramSimulator(single_cache(), [Trace([1])],
                                  instruction_limit=0)

    def test_single_thread_needs_one_partition(self):
        with pytest.raises(ConfigurationError):
            simulate_single_thread(single_cache(partitions=2), Trace([1]))


class TestThreadResult:
    def test_metrics(self):
        r = ThreadResult(thread=0, instructions=1000, cycles=2000.0,
                         accesses=100, misses=25)
        assert r.ipc == 0.5
        assert r.mpki == 25.0
        assert r.miss_rate == 0.25

    def test_degenerate(self):
        r = ThreadResult(thread=0, instructions=0, cycles=0.0,
                         accesses=0, misses=0)
        assert r.ipc == 0.0
        assert r.mpki == 0.0
        assert r.miss_rate == 0.0


class TestSingleThreadTiming:
    def test_all_hit_trace_timing_exact(self):
        """One address accessed repeatedly: one miss then hits; cycles are
        exactly gaps*CPI + L2 latencies + one memory latency."""
        n = 10
        trace = Trace([7] * n, gaps=[100] * n)
        result = simulate_single_thread(single_cache(), trace)
        l2 = TABLE_II.l2_hit_latency
        expected = n * 100 + n * l2 + TABLE_II.memory_latency
        assert result.cycles == pytest.approx(expected)
        assert result.misses == 1
        assert result.instructions == n * 100

    def test_miss_heavy_trace_slower(self):
        hits = Trace([1] * 50, gaps=[20] * 50)
        misses = Trace(range(50), gaps=[20] * 50)
        ipc_hits = simulate_single_thread(single_cache(), hits).ipc
        ipc_misses = simulate_single_thread(single_cache(), misses).ipc
        assert ipc_hits > ipc_misses

    def test_instruction_limit_respected(self):
        trace = Trace([1, 2, 3], gaps=[10, 10, 10])
        result = simulate_single_thread(single_cache(), trace,
                                        instruction_limit=15)
        assert result.instructions >= 15
        assert result.accesses == 2


class TestMultiprogrammed:
    def test_all_threads_reported(self):
        cache = single_cache(lines=64, partitions=3)
        traces = [Trace(range(b, b + 50), gaps=[10] * 50)
                  for b in (0, 1000, 2000)]
        result = MultiprogramSimulator(cache, traces,
                                       instruction_limit=300).run()
        assert len(result.threads) == 3
        assert [t.thread for t in result.threads] == [0, 1, 2]
        assert all(t.instructions >= 300 for t in result.threads)
        assert result.total_cycles > 0

    def test_interference_lowers_ipc(self):
        """A thread sharing an unpartitioned cache with a streaming
        polluter must run slower than alone."""
        victim = Trace([i % 32 for i in range(400)], gaps=[30] * 400)
        polluter = Trace(range(10**6, 10**6 + 400), gaps=[5] * 400)

        alone = PartitionedCache(SetAssociativeArray(64, 4), LRURanking(),
                                 UnpartitionedScheme(), 1)
        ipc_alone = simulate_single_thread(alone, victim).ipc

        shared = PartitionedCache(SetAssociativeArray(64, 4), LRURanking(),
                                  UnpartitionedScheme(), 2)
        result = MultiprogramSimulator(shared, [victim, polluter],
                                       instruction_limit=6000).run()
        assert result.threads[0].ipc < ipc_alone

    def test_memory_bandwidth_couples_threads(self):
        """Two all-miss threads must finish later than one when the MCU
        channel is narrow enough to saturate (in-order cores space their
        misses ~200 cycles apart, so contention needs a slow channel)."""
        from repro.sim.config import SystemConfig
        slow_memory = SystemConfig(memory_bandwidth_gbps=1.0)  # 128 cyc/line
        mk = lambda base: Trace(range(base, base + 500), gaps=[5] * 500)
        one = MultiprogramSimulator(
            single_cache(lines=16, partitions=1), [mk(0)], slow_memory,
            instruction_limit=2000).run()
        two = MultiprogramSimulator(
            single_cache(lines=16, partitions=2), [mk(0), mk(10**6)],
            slow_memory, instruction_limit=2000).run()
        assert two.threads[0].cycles > one.threads[0].cycles

    def test_opt_ranking_supported(self):
        cache = PartitionedCache(FullyAssociativeArray(16), OPTRanking(),
                                 FullAssocScheme(), 1)
        trace = Trace([i % 40 for i in range(200)])
        result = MultiprogramSimulator(cache, [trace],
                                       instruction_limit=150).run()
        assert result.threads[0].accesses > 0

    def test_traces_wrap_until_limit(self):
        cache = single_cache()
        trace = Trace([1, 2], gaps=[10, 10])
        result = MultiprogramSimulator(cache, [trace],
                                       instruction_limit=200).run()
        assert result.threads[0].accesses == 20


class TestPinnedRun:
    """A 3-thread OPT run pinned bit for bit.  No figure reaches these
    paths (write marking, the in-engine L1, next-use offsets over many
    wraps), so the golden hashes cannot guard them."""

    # Footprints above the 16-line L1, traces of 31/37/17 accesses that
    # each wrap at least 5 times, and a CPI and channel width that make
    # every cycle count inexact in binary.
    CONFIG = SystemConfig(l1_size_kb=1, cpi_base=0.7,
                          memory_bandwidth_gbps=3.0)

    @staticmethod
    def run(model_l1):
        traces = [Trace([base + (i * step) % mod for i in range(n)],
                        gaps=[3 + (i * 5) % gap_mod for i in range(n)])
                  for base, step, mod, n, gap_mod in (
                      (0, 7, 23, 31, 11), (1000, 5, 29, 37, 7),
                      (2000, 3, 13, 17, 13))]
        cache = PartitionedCache(SetAssociativeArray(32, 4), OPTRanking(),
                                 PartitioningFirstScheme(), 3)
        sim = MultiprogramSimulator(
            cache, traces, TestPinnedRun.CONFIG, instruction_limit=1500,
            write_fractions=[0.3, 0.0, 0.6], model_l1=model_l1, seed=11)
        result = sim.run()
        return ([(t.thread, t.instructions, t.cycles.hex(), t.accesses,
                  t.misses) for t in result.threads],
                result.total_cycles.hex(), sim.memory.requests,
                sim.memory.writebacks, sim.nuca.accesses)

    def test_opt_writes_and_wraps(self):
        assert self.run(model_l1=False) == (
            [(0, 1506, "0x1.830b44444442ap+15", 186, 134),
             (1, 1505, "0x1.2081333333328p+16", 252, 202),
             (2, 1514, "0x1.b16644444444bp+14", 176, 71)],
            "0x1.2081333333328p+16", 589, 202, 1065)

    def test_opt_writes_and_wraps_with_l1(self):
        assert self.run(model_l1=True) == (
            [(0, 1506, "0x1.c1f177777777cp+14", 186, 109),
             (1, 1505, "0x1.3e7e666666662p+15", 252, 161),
             (2, 1514, "0x1.24ad55555555dp+12", 176, 13)],
            "0x1.3e7e666666662p+15", 328, 51, 431)


class TestInEngineL1:
    def test_l1_absorbs_repeated_accesses(self):
        """With model_l1, a tight loop hits in the private L1 and the
        shared L2 sees almost nothing."""
        trace = Trace([i % 8 for i in range(400)], gaps=[10] * 400)
        cache = single_cache(lines=64)
        result = MultiprogramSimulator(cache, [trace],
                                       instruction_limit=4000,
                                       model_l1=True).run()
        # 8 cold L1 misses reach the L2; the rest hit in L1.
        assert cache.stats.accesses <= 16
        assert result.threads[0].misses == 8
        # 4000 instr + 392 L1-hit cycles + 8 * (L2 + memory) = 6088 cycles.
        assert result.threads[0].cycles == pytest.approx(6088.0)

    def test_l1_hits_cost_l1_latency(self):
        trace = Trace([5] * 10, gaps=[100] * 10)
        cache = single_cache(lines=64)
        result = MultiprogramSimulator(cache, [trace],
                                       instruction_limit=1000,
                                       model_l1=True).run()
        # 1 miss (nuca + memory) + 9 L1 hits at l1_latency each.
        expected = (10 * 100 + TABLE_II.l2_hit_latency
                    + TABLE_II.memory_latency + 9 * TABLE_II.l1_latency)
        assert result.threads[0].cycles == pytest.approx(expected)

    def test_without_l1_every_access_reaches_l2(self):
        trace = Trace([i % 8 for i in range(100)])
        cache = single_cache(lines=64)
        MultiprogramSimulator(cache, [trace],
                              instruction_limit=100).run()
        assert cache.stats.accesses == 100
