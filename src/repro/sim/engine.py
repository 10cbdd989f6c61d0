"""Trace-driven multiprogrammed CMP simulation engine (Section VII-A).

Reproduces the paper's methodology: the simulator models the shared L2, the
NUCA banking, and off-chip memory; each thread replays its L2 access trace,
and "network and memory access latency will be fed back into trace timing
and, thus, delay future L2 cache accesses accordingly".

Implementation: each thread has a virtual clock.  The earliest thread
(smaller tid on a tie) issues its next access, the latency is computed
(L2 hit vs miss through the bandwidth-limited MCU), and the thread's clock
advances by the instruction gap times the base CPI plus the access
latency — an in-order core stalling on every L2 access.

The loop serves threads in runs: it keeps the served thread's clock and
counters in locals and serves it again while it stays earlier than the
head of a min-heap holding every other thread's ``(vtime, tid)``; only a
switch touches the heap.  A one-thread run never does.  The arithmetic
of :meth:`NUCAModel.access <repro.sim.nuca.NUCAModel.access>` and
:meth:`MemoryController.request <repro.sim.memory.MemoryController.request>`
/ ``writeback`` is folded into the loop, expression for expression, and
the loop writes the models' counters and free times back when it ends or
raises.  Each thread's accesses come from its
:class:`~repro.trace.mixing.TraceCursor` stream.

Each thread runs until it retires ``instruction_limit`` instructions
(paper: 250M per thread); threads that finish early keep replaying their
traces to preserve interference, but their statistics freeze at the finish
line (standard multiprogrammed-simulation practice).
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from math import inf
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
    __slots__ = ("pull", "vtime", "instructions", "accesses", "misses",
                 "finished", "result")

    def __init__(self, cursor: TraceCursor) -> None:
        self.pull = cursor.stream.__next__
        self.vtime = 0.0
        self.instructions = 0
        self.accesses = 0
        self.misses = 0
        self.finished = False
        self.result: Optional[ThreadResult] = None


class MultiprogramSimulator:
    """Timed replay of one trace per thread against a shared partitioned L2.

    A simulator runs once: its cache, NUCA banks and memory channel carry
    the state the run leaves behind.
    """

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
        for tid, trace in enumerate(traces):
            # Gaps are non-negative (Trace checks), so a trace retires no
            # instruction exactly when every gap is 0.
            if not any(trace.gaps):
                raise ConfigurationError(
                    f"trace {tid} ({trace.name!r}) has no instructions, "
                    f"so thread {tid} can never reach instruction_limit")
        self._ran = False

    def run(self) -> SimulationResult:
        """Run until every thread retires its instruction limit.

        When telemetry is active (:mod:`repro.obs.runtime`) the run is
        wrapped in a per-partition series recording: the recorder is
        subscribed *before* the loop captures the compiled access
        kernel, and unsubscribed (restoring the telemetry-free kernel)
        when the loop finishes.  With telemetry off this is a no-op and
        no obs module state is touched.
        """
        if self._ran:
            raise ConfigurationError(
                "this simulator has already run; build a new one (with a "
                "fresh cache) to run again")
        self._ran = True
        from ..obs.runtime import record_series
        with record_series(self.cache):
            return self._run_loop()

    def _run_loop(self) -> SimulationResult:
        cache = self.cache
        access = cache.access
        threads = self._threads
        n = len(threads)
        fractions = (self.write_fractions if self.write_fractions is not None
                     else [None] * n)
        rng_random = self._rng.random
        l1_accesses = ([None] * n if self._l1s is None
                       else [l1.access for l1 in self._l1s])
        l1_latency = self.config.l1_latency
        cpi = self.config.cpi_base
        limit = self.instruction_limit
        # NUCAModel.access and MemoryController.request/writeback, folded
        # in expression for expression; their counters live in locals
        # until the finally below writes them back.
        nuca, memory = self.nuca, self.memory
        banks = nuca.banks
        bank_free = nuca._bank_free_at
        occupancy = nuca.BANK_OCCUPANCY
        network = nuca.network_latency
        lookup = nuca.access_latency
        nuca_accesses = nuca.accesses
        nuca_delay = nuca.total_queue_delay
        channel_free = memory._channel_free_at
        per_line = memory.cycles_per_line
        memory_latency = memory.latency
        requests = memory.requests
        writebacks = memory.writebacks
        memory_delay = memory.total_queue_delay

        unfinished = n
        max_time = 0.0
        # Every thread but the one being served, as (vtime, tid); sorted,
        # so already a heap.  Entries are unique, so the order served does
        # not depend on the heap's layout.
        heap = [(0.0, tid) for tid in range(n)]
        heappushpop = heapq.heappushpop
        vtime, tid = heapq.heappop(heap)
        try:
            while unfinished:
                # One run: serve thread tid while it stays the earliest,
                # (vtime, tid) < (head_vtime, head_tid).
                head_vtime, head_tid = heap[0] if heap else (inf, n)
                state = threads[tid]
                pull = state.pull
                instructions, accesses = state.instructions, state.accesses
                misses, finished = state.misses, state.finished
                write_fraction, l1_access = fractions[tid], l1_accesses[tid]
                while True:
                    addr, next_use, gap = pull()
                    is_write = (write_fraction is not None
                                and rng_random() < write_fraction)
                    if l1_access is not None and l1_access(addr):
                        # Private-L1 hit: the shared L2 never sees it.
                        latency = l1_latency
                        hit = True
                    else:
                        # NUCA bank: network + bank queueing + lookup.
                        bank = addr % banks
                        free_at = bank_free[bank]
                        start = free_at if free_at > vtime else vtime
                        queue_delay = start - vtime
                        bank_free[bank] = start + occupancy
                        nuca_accesses += 1
                        nuca_delay += queue_delay
                        latency = network + queue_delay + lookup
                        hit = access(addr, tid, next_use, is_write=is_write)
                        if not hit:
                            # Line fill on the memory channel.
                            now = vtime + latency
                            start = (channel_free if channel_free > now
                                     else now)
                            queue_delay = start - now
                            channel_free = start + per_line
                            requests += 1
                            memory_delay += queue_delay
                            latency += queue_delay + memory_latency
                            if cache.writeback_pending:
                                # Posted writeback: holds the channel only.
                                now = vtime + latency
                                start = (channel_free if channel_free > now
                                         else now)
                                channel_free = start + per_line
                                writebacks += 1
                    vtime = vtime + gap * cpi + latency
                    if not finished:
                        instructions += gap
                        accesses += 1
                        if not hit:
                            misses += 1
                        if instructions >= limit:
                            finished = state.finished = True
                            state.result = ThreadResult(
                                thread=tid, instructions=instructions,
                                cycles=vtime, accesses=accesses,
                                misses=misses)
                            unfinished -= 1
                            if vtime > max_time:
                                max_time = vtime
                            if not unfinished:
                                break
                    if vtime < head_vtime or (vtime == head_vtime
                                              and tid < head_tid):
                        continue
                    break
                state.vtime, state.instructions = vtime, instructions
                state.accesses, state.misses = accesses, misses
                vtime, tid = heappushpop(heap, (vtime, tid))
        finally:
            nuca.accesses, nuca.total_queue_delay = nuca_accesses, nuca_delay
            memory._channel_free_at = channel_free
            memory.requests, memory.writebacks = requests, writebacks
            memory.total_queue_delay = memory_delay
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
