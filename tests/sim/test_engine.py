"""Tests for the multiprogrammed trace-driven engine."""

import heapq
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import build_cache
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
    SimulationResult,
    ThreadResult,
    simulate_single_thread,
)
from repro.sim.l1 import L1Cache
from repro.sim.memory import MemoryController
from repro.sim.nuca import NUCAModel
from repro.trace.access import Trace
from repro.trace.mixing import TraceCursor
from repro.trace.spec import get_profile
from tests.conftest import deadline


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

    def test_second_run_refused(self):
        sim = MultiprogramSimulator(single_cache(), [Trace([1, 2])],
                                    instruction_limit=10)
        sim.run()
        with deadline(20), pytest.raises(ConfigurationError,
                                         match="already run"):
            sim.run()

    def test_zero_instruction_trace_refused(self):
        traces = [Trace([1, 2], gaps=[1, 1]), Trace([1000, 1001], gaps=[0, 0])]
        with deadline(20), pytest.raises(ConfigurationError,
                                         match="trace 1"):
            MultiprogramSimulator(single_cache(partitions=2), traces,
                                  instruction_limit=10).run()


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
                sim.memory.writebacks, sim.nuca.accesses,
                sim.memory.total_queue_delay.hex(),
                sim.nuca.total_queue_delay.hex(),
                sim.memory._channel_free_at.hex())

    def test_opt_writes_and_wraps(self):
        assert self.run(model_l1=False) == (
            [(0, 1506, "0x1.830b44444442ap+15", 186, 134),
             (1, 1505, "0x1.2081333333328p+16", 252, 202),
             (2, 1514, "0x1.b16644444444bp+14", 176, 71)],
            "0x1.2081333333328p+16", 589, 202, 1065,
            "0x1.4e4b7ffffffdfp+16", "0x1.c00000000c000p+1",
            "0x1.20cd19999998fp+16")

    def test_opt_writes_and_wraps_with_l1(self):
        assert self.run(model_l1=True) == (
            [(0, 1506, "0x1.c1f177777777cp+14", 186, 109),
             (1, 1505, "0x1.3e7e666666662p+15", 252, 161),
             (2, 1514, "0x1.24ad55555555dp+12", 176, 13)],
            "0x1.3e7e666666662p+15", 328, 51, 431,
            "0x1.6dd0cccccccc7p+13", "0x1.8000000000000p+1",
            "0x1.3f01aaaaaaaa6p+15")

    def test_tied_threads_serve_smaller_tid_first(self):
        """Two threads replay the same trace 1000 lines apart (a multiple
        of the 4 banks, so each pair of accesses shares a bank) and tie
        on vtime 37 times, the start included.  The smaller tid goes
        first at a tie; the other order swaps the two threads' cycles."""
        base = Trace([(i * 5) % 40 for i in range(24)],
                     gaps=[2 + (i * 3) % 5 for i in range(24)])
        cache = PartitionedCache(SetAssociativeArray(32, 4), LRURanking(),
                                 UnpartitionedScheme(), 2)
        sim = MultiprogramSimulator(
            cache, [base, base.with_offset(1000)],
            SystemConfig(memory_bandwidth_gbps=4.0), instruction_limit=600,
            write_fractions=[0.25, 0.5], seed=3)
        result = sim.run()
        assert ([(t.thread, t.instructions, t.cycles.hex(), t.accesses,
                  t.misses) for t in result.threads],
                result.total_cycles.hex(), sim.memory.requests,
                sim.memory.writebacks, sim.nuca.accesses,
                sim.memory.total_queue_delay.hex(),
                sim.nuca.total_queue_delay.hex(),
                sim.memory._channel_free_at.hex()) == (
            [(0, 603, "0x1.f5e0000000000p+11", 151, 8),
             (1, 603, "0x1.f9e0000000000p+11", 151, 8)],
            "0x1.f9e0000000000p+11", 16, 0, 304, "0x1.f000000000000p+4",
            "0x1.0000000000000p+0", "0x1.8cc0000000000p+10")

    @pytest.mark.parametrize("organization, ranking, expected", [
        ("full-assoc", "opt", ("0x1.1cdf800000000p+18", 912,
                               "0x1.1c95800000000p+18")),
        ("direct-mapped", "lru", ("0x1.6e51800000000p+18", 1329,
                                  "0x1.6e07800000000p+18")),
    ])
    def test_one_thread_like_fig6(self, organization, ranking, expected):
        """One thread replaying its trace once, as a Fig. 6 cell does."""
        trace = get_profile("mcf").trace(3000, seed=5, scale=1 / 64)
        cache = build_cache(
            array=organization, num_lines=128, ranking=ranking,
            scheme=("full-assoc" if organization == "full-assoc"
                    else "unpartitioned"),
            num_partitions=1, track_eviction_futility=False)
        sim = MultiprogramSimulator(cache, [trace], TABLE_II,
                                    instruction_limit=trace.instructions)
        (thread,) = sim.run().threads
        assert (thread.instructions, thread.accesses) == (73310, 3000)
        assert (thread.cycles.hex(), thread.misses,
                sim.memory._channel_free_at.hex()) == expected
        assert sim.memory.requests == thread.misses
        assert sim.nuca.accesses == 3000
        assert sim.memory.total_queue_delay == 0.0
        assert sim.nuca.total_queue_delay == 0.0


def reference_run(cache, traces, config, nuca, memory, *,
                  instruction_limit, write_fractions=None, model_l1=False,
                  seed=None):
    """The engine's semantics, one heap pop and push per access, through
    ``TraceCursor.next``, ``NUCAModel.access`` and
    ``MemoryController.request``/``writeback``."""
    rng = random.Random(config.rng_seed if seed is None else seed)
    l1s = ([L1Cache(config.l1_lines, config.l1_ways) for _ in traces]
           if model_l1 else None)
    cursors = [TraceCursor(t, with_next_use=cache.ranking.needs_future)
               for t in traces]
    n = len(traces)
    instructions, accesses, misses = [0] * n, [0] * n, [0] * n
    results = [None] * n
    heap = [(0.0, tid) for tid in range(n)]
    max_time = 0.0
    while None in results:
        now, tid = heapq.heappop(heap)
        addr, next_use, gap = cursors[tid].next()
        is_write = (write_fractions is not None
                    and rng.random() < write_fractions[tid])
        if l1s is not None and l1s[tid].access(addr):
            latency, hit = config.l1_latency, True
        else:
            latency = nuca.access(addr, now)
            hit = cache.access(addr, tid, next_use, is_write=is_write)
            if not hit:
                latency += memory.request(now + latency)
                if cache.writeback_pending:
                    memory.writeback(now + latency)
        now = now + gap * config.cpi_base + latency
        if results[tid] is None:
            instructions[tid] += gap
            accesses[tid] += 1
            misses[tid] += not hit
            if instructions[tid] >= instruction_limit:
                results[tid] = ThreadResult(
                    thread=tid, instructions=instructions[tid], cycles=now,
                    accesses=accesses[tid], misses=misses[tid])
                max_time = max(max_time, now)
        heapq.heappush(heap, (now, tid))
    return SimulationResult(threads=results, total_cycles=max_time)


def models(nuca, memory):
    """The NUCA banks' and the memory channel's state, floats by
    ``.hex()``."""
    return (nuca.accesses, nuca.total_queue_delay.hex(),
            [b.hex() for b in nuca._bank_free_at],
            memory.requests, memory.writebacks,
            memory.total_queue_delay.hex(), memory._channel_free_at.hex())


def observed(result, nuca, memory, cache):
    """Everything a run leaves behind."""
    return ([(t.thread, t.instructions, t.cycles.hex(), t.accesses,
              t.misses) for t in result.threads],
            result.total_cycles.hex(), models(nuca, memory),
            list(cache.stats.misses), list(cache.actual_sizes))


@st.composite
def workloads(draw):
    n = draw(st.integers(1, 4))
    traces = []
    for tid in range(n):
        length = draw(st.integers(1, 24))
        addresses = draw(st.lists(st.integers(0, 40), min_size=length,
                                  max_size=length))
        gaps = draw(st.lists(st.integers(0, 9), min_size=length,
                             max_size=length))
        gaps[draw(st.integers(0, length - 1))] += 1   # retires something
        # Disjoint address spaces, on every bank alignment.
        traces.append(Trace([1000 * (tid + 1) + tid + a for a in addresses],
                            gaps))
    fractions = draw(st.one_of(
        st.none(), st.lists(st.sampled_from([0.0, 0.3, 0.75, 1.0]),
                            min_size=n, max_size=n)))
    return dict(traces=traces, write_fractions=fractions,
                model_l1=draw(st.booleans()),
                ranking=draw(st.sampled_from(["lru", "opt"])),
                limit=draw(st.integers(1, 300)),
                cpi=draw(st.sampled_from([1.0, 0.7])),
                bandwidth=draw(st.sampled_from([32.0, 3.0])),
                seed=draw(st.integers(0, 3)))


class TestMatchesReferenceScheduler:
    @given(workloads())
    @settings(max_examples=80, deadline=None)
    def test_run_batching_changes_nothing(self, w):
        config = SystemConfig(l1_size_kb=1, cpi_base=w["cpi"],
                              memory_bandwidth_gbps=w["bandwidth"])
        n = len(w["traces"])

        def cache():
            ranking = OPTRanking() if w["ranking"] == "opt" else LRURanking()
            return PartitionedCache(SetAssociativeArray(32, 4), ranking,
                                    PartitioningFirstScheme(), n)
        kwargs = dict(instruction_limit=w["limit"],
                      write_fractions=w["write_fractions"],
                      model_l1=w["model_l1"], seed=w["seed"])
        reference_cache = cache()
        nuca, memory = NUCAModel(config), MemoryController(config)
        expected = observed(reference_run(reference_cache, w["traces"],
                                          config, nuca, memory, **kwargs),
                            nuca, memory, reference_cache)
        engine_cache = cache()
        sim = MultiprogramSimulator(engine_cache, w["traces"], config,
                                    **kwargs)
        assert observed(sim.run(), sim.nuca, sim.memory,
                        engine_cache) == expected


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

    def test_models_written_back_when_the_kernel_raises(self):
        """The folded NUCA and memory state reaches the models even when
        the access kernel raises mid-run."""
        config = TestPinnedRun.CONFIG
        traces = [Trace([base + (i * 7) % 23 for i in range(31)],
                        gaps=[1 + i % 4 for i in range(31)])
                  for base in (0, 1001, 2002)]

        def faulty_cache():
            cache = PartitionedCache(SetAssociativeArray(32, 4),
                                     LRURanking(), PartitioningFirstScheme(),
                                     3)
            kernel, calls = cache.access, iter(range(500))

            def access(*args, **kwargs):
                if next(calls, None) is None:
                    raise RuntimeError("kernel fault")
                return kernel(*args, **kwargs)
            cache.access = access
            return cache
        kwargs = dict(instruction_limit=10**6, write_fractions=[0.5] * 3)
        nuca, memory = NUCAModel(config), MemoryController(config)
        with pytest.raises(RuntimeError, match="kernel fault"):
            reference_run(faulty_cache(), traces, config, nuca, memory,
                          **kwargs)
        sim = MultiprogramSimulator(faulty_cache(), traces, config, **kwargs)
        with pytest.raises(RuntimeError, match="kernel fault"):
            sim.run()
        assert models(sim.nuca, sim.memory) == models(nuca, memory)
        assert sim.nuca.accesses == 501
