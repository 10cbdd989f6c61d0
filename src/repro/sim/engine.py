"""Trace-driven multiprogrammed CMP simulation engine (Section VII-A).

Reproduces the paper's methodology: the simulator models the shared L2, the
NUCA banking, and off-chip memory; each thread replays its L2 access trace,
and "network and memory access latency will be fed back into trace timing
and, thus, delay future L2 cache accesses accordingly".

Implementation: each thread has a virtual clock.  Threads are scheduled
through a min-heap on virtual time; the earliest thread issues its next
access, the latency is computed (L2 hit vs miss through the bandwidth-
limited MCU), and the thread's clock advances by the instruction gap times
the base CPI plus the access latency — an in-order core stalling on every
L2 access.

Each thread runs until it retires ``instruction_limit`` instructions
(paper: 250M per thread); threads that finish early keep replaying their
traces to preserve interference, but their statistics freeze at the finish
line (standard multiprogrammed-simulation practice).
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..cache.cache import PartitionedCache
from ..errors import ConfigurationError
from ..trace.access import Trace
from ..trace.mixing import TraceCursor
from .config import SystemConfig, TABLE_II
from .l1 import L1Cache
from .memory import MemoryController
from .nuca import NUCAModel

__all__ = ["ThreadResult", "SimulationResult", "MultiprogramSimulator",
           "simulate_single_thread"]


@dataclass
class ThreadResult:
    """Per-thread outcome of a timed simulation."""

    thread: int
    instructions: int
    cycles: float
    accesses: int
    misses: int

    @property
    def ipc(self) -> float:
        """Instructions per cycle while the thread was being measured."""
        return self.instructions / self.cycles if self.cycles > 0 else 0.0

    @property
    def mpki(self) -> float:
        """L2 misses per kilo-instruction."""
        if self.instructions == 0:
            return 0.0
        return self.misses / self.instructions * 1000.0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


@dataclass
class SimulationResult:
    """Outcome of a multiprogrammed run."""

    threads: List[ThreadResult]
    total_cycles: float

    @property
    def ipcs(self) -> List[float]:
        return [t.ipc for t in self.threads]

    def thread(self, tid: int) -> ThreadResult:
        return self.threads[tid]


class _ThreadState:
    __slots__ = ("cursor", "vtime", "instructions", "accesses", "misses",
                 "finished", "result")

    def __init__(self, cursor: TraceCursor) -> None:
        self.cursor = cursor
        self.vtime = 0.0
        self.instructions = 0
        self.accesses = 0
        self.misses = 0
        self.finished = False
        self.result: Optional[ThreadResult] = None


class MultiprogramSimulator:
    """Timed replay of one trace per thread against a shared partitioned L2."""

    def __init__(self, cache: PartitionedCache, traces: Sequence[Trace],
                 config: SystemConfig = TABLE_II, *,
                 instruction_limit: int = 1_000_000,
                 write_fractions: Optional[Sequence[float]] = None,
                 model_l1: bool = False,
                 seed: Optional[int] = None) -> None:
        if len(traces) != cache.num_partitions:
            raise ConfigurationError(
                f"{len(traces)} traces for {cache.num_partitions} partitions; "
                f"threads map 1:1 onto partitions")
        if instruction_limit <= 0:
            raise ConfigurationError(
                f"instruction_limit must be positive, got {instruction_limit}")
        if write_fractions is not None:
            if len(write_fractions) != len(traces):
                raise ConfigurationError(
                    f"{len(write_fractions)} write fractions for "
                    f"{len(traces)} traces")
            for i, w in enumerate(write_fractions):
                if not 0.0 <= w <= 1.0:
                    raise ConfigurationError(
                        f"write_fractions[{i}] must be in [0, 1], got {w}")
        self.write_fractions = (list(write_fractions)
                                if write_fractions is not None else None)
        # Private, config-seeded generator: never the module-level RNG,
        # whose global state would couple unrelated simulations and break
        # replay determinism (reprolint DET001 polices this repo-wide).
        self._rng = random.Random(config.rng_seed if seed is None else seed)
        # With model_l1, traces are *raw* per-core address streams: each
        # thread gets a private Table II L1 (unified here for simplicity)
        # and only L1 misses reach the shared L2 — the collection pipeline
        # the paper's traces went through, done online.
        self._l1s: Optional[List[L1Cache]] = None
        if model_l1:
            self._l1s = [L1Cache(config.l1_lines, config.l1_ways)
                         for _ in traces]
        self.cache = cache
        self.config = config
        self.instruction_limit = int(instruction_limit)
        self.memory = MemoryController(config)
        self.nuca = NUCAModel(config)
        needs_future = cache.ranking.needs_future
        self._threads = [
            _ThreadState(TraceCursor(t, with_next_use=needs_future))
            for t in traces]

    def run(self) -> SimulationResult:
        """Run until every thread retires its instruction limit.

        When telemetry is active (:mod:`repro.obs.runtime`) the run is
        wrapped in a per-partition series recording: the recorder is
        subscribed *before* the loop captures the compiled access
        kernel, and unsubscribed (restoring the telemetry-free kernel)
        when the loop finishes.  With telemetry off this is a no-op and
        no obs module state is touched.
        """
        from ..obs.runtime import record_series
        with record_series(self.cache):
            return self._run_loop()

    def _run_loop(self) -> SimulationResult:
        cache = self.cache
        access = cache.access
        nuca_access = self.nuca.access
        memory_request = self.memory.request
        memory_writeback = self.memory.writeback
        write_fractions = self.write_fractions
        rng_random = self._rng.random
        l1s = self._l1s
        l1_latency = self.config.l1_latency
        cpi = self.config.cpi_base
        limit = self.instruction_limit
        threads = self._threads
        unfinished = len(threads)
        # One (vtime, tid) entry per thread.  Each access serves the
        # earliest entry and replaces it in place with one sift; entries
        # are unique, so the order served does not depend on the heap's
        # layout.
        heap = [(0.0, tid) for tid in range(len(threads))]
        heapq.heapify(heap)
        heapreplace = heapq.heapreplace
        max_time = 0.0
        while unfinished > 0:
            vtime, tid = heap[0]
            state = threads[tid]
            addr, next_use, gap = state.cursor.next()
            is_write = (write_fractions is not None
                        and rng_random() < write_fractions[tid])
            if l1s is not None and l1s[tid].access(addr):
                # Private-L1 hit: the shared L2 never sees the access.
                latency = l1_latency
                hit = True
            else:
                latency = nuca_access(addr, vtime)
                hit = access(addr, tid, next_use, is_write=is_write)
                if not hit:
                    latency += memory_request(vtime + latency)
                    if cache.writeback_pending:
                        memory_writeback(vtime + latency)
            state.vtime = vtime + gap * cpi + latency
            if not state.finished:
                state.instructions += gap
                state.accesses += 1
                if not hit:
                    state.misses += 1
                if state.instructions >= limit:
                    state.finished = True
                    state.result = ThreadResult(
                        thread=tid, instructions=state.instructions,
                        cycles=state.vtime, accesses=state.accesses,
                        misses=state.misses)
                    unfinished -= 1
                    max_time = max(max_time, state.vtime)
            if unfinished > 0:
                heapreplace(heap, (state.vtime, tid))
        results = [s.result for s in threads]
        return SimulationResult(threads=results, total_cycles=max_time)


def simulate_single_thread(cache: PartitionedCache, trace: Trace,
                           config: SystemConfig = TABLE_II, *,
                           instruction_limit: Optional[int] = None
                           ) -> ThreadResult:
    """Convenience wrapper: one thread, one partition (Fig. 6 style runs).

    When ``instruction_limit`` is omitted the trace is replayed exactly
    once.
    """
    if cache.num_partitions != 1:
        raise ConfigurationError(
            "simulate_single_thread expects a single-partition cache")
    limit = instruction_limit if instruction_limit is not None else trace.instructions
    sim = MultiprogramSimulator(cache, [trace], config,
                                instruction_limit=limit)
    return sim.run().threads[0]
