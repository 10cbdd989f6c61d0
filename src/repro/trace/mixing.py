"""Multiprogrammed trace feeding.

Two feeding disciplines are used by the paper's experiments:

* **Round-robin interleave** (Figs. 2, 6: untimed workload mixes): threads
  take turns issuing one access each.  Timed experiments instead use the
  event-driven engine in :mod:`repro.sim.engine`, where each thread's
  virtual time controls the interleave.

* **Insertion-rate control** (Figs. 4, 5): "the insertion rate of each
  partition is controlled by adjusting the speed of the trace feeding (i.e.
  the probability of next insertion that belongs to Partition i is equal to
  the pre-configured insertion rate I_i)".  :func:`run_insertion_rate_controlled`
  implements exactly that: it repeatedly samples a partition from the
  configured distribution and feeds that thread's trace *until it produces
  one insertion* (traces wrap around when exhausted).
"""

from __future__ import annotations

import random
from typing import Iterator, List, Optional, Sequence, Tuple

from .._util import check_probabilities
from ..cache.cache import PartitionedCache
from ..errors import TraceError
from .access import Trace

__all__ = ["interleave_round_robin", "run_round_robin",
           "run_insertion_rate_controlled", "TraceCursor"]


class TraceCursor:
    """A cyclic cursor over one thread's trace.

    Tracks position, wraps at the end, and serves the per-access next-use
    annotation OPT rankings need.  ``wraps`` counts completed passes.
    """

    __slots__ = ("trace", "position", "wraps", "_addresses", "_gaps",
                 "_next_use", "_length")

    def __init__(self, trace: Trace, *, with_next_use: bool = False) -> None:
        if len(trace) == 0:
            raise TraceError("cannot iterate an empty trace")
        self.trace = trace
        self.position = 0
        self.wraps = 0
        # Held directly so next() makes no attribute or __len__ call on
        # the trace per access.
        self._addresses = trace.addresses
        self._gaps = trace.gaps
        self._next_use = trace.next_use if with_next_use else None
        self._length = len(trace.addresses)

    def next(self) -> Tuple[int, Optional[int], int]:
        """Advance one access: ``(address, next_use, gap)``."""
        i = self.position
        next_use = self._next_use
        if next_use is not None:
            # Offset by completed passes so keys stay monotone across wraps.
            next_use = next_use[i] + self.wraps * self._length
        if i + 1 == self._length:
            self.position = 0
            self.wraps += 1
        else:
            self.position = i + 1
        return self._addresses[i], next_use, self._gaps[i]

    @property
    def total_accesses(self) -> int:
        return self.wraps * self._length + self.position


def interleave_round_robin(traces: Sequence[Trace], length: int, *,
                           with_next_use: bool = False
                           ) -> Iterator[Tuple[int, int, Optional[int]]]:
    """Yield ``length`` interleaved accesses as ``(thread, addr, next_use)``."""
    cursors = [TraceCursor(t, with_next_use=with_next_use) for t in traces]
    n = len(cursors)
    for i in range(length):
        tid = i % n
        addr, next_use, _gap = cursors[tid].next()
        yield tid, addr, next_use


def run_round_robin(cache: PartitionedCache, traces: Sequence[Trace],
                    length: int, *, warmup: int = 0) -> None:
    """Drive ``cache`` with a round-robin interleave of ``traces``.

    Thread ``i`` maps to partition ``i``.  When ``warmup`` is positive the
    first ``warmup`` accesses run with statistics discarded.
    """
    from ..obs.runtime import record_series
    needs_future = cache.ranking.needs_future
    with record_series(cache):  # no-op unless telemetry is active
        access = cache.access
        feed = interleave_round_robin(traces, warmup + length,
                                      with_next_use=needs_future)
        for count, (tid, addr, next_use) in enumerate(feed):
            if count == warmup:
                cache.reset_stats()
            access(addr, tid, next_use)


def run_insertion_rate_controlled(cache: PartitionedCache,
                                  traces: Sequence[Trace],
                                  insertion_rates: Sequence[float],
                                  num_insertions: int, *,
                                  warmup_insertions: int = 0,
                                  prefill: bool = False,
                                  seed: int = 0) -> List[int]:
    """The paper's Fig. 4/5 feeding discipline (see module docstring).

    Returns the number of accesses issued per thread.  ``insertion_rates``
    must be a probability vector with one entry per trace/partition.

    With ``prefill`` set, each partition is first fed until its occupancy
    reaches its target (so steady-state measurements are not polluted by
    the sizing transient of growing a partition from cold at a low
    insertion rate); statistics are reset afterwards.
    """
    if len(traces) != len(insertion_rates):
        raise TraceError(
            f"{len(traces)} traces but {len(insertion_rates)} insertion rates")
    check_probabilities(insertion_rates, "insertion_rates")
    from ..obs.runtime import record_series
    rng = random.Random(seed)
    needs_future = cache.ranking.needs_future
    cursors = [TraceCursor(t, with_next_use=needs_future) for t in traces]
    # Series recording (no-op unless telemetry is active) spans prefill
    # and warmup too: the sizing transient and the feedback convergence
    # it triggers are exactly what the per-partition series is for.
    with record_series(cache):
        if prefill:
            n_threads = len(cursors)
            budgets = [50 * cache.targets[tid] + len(traces[tid])
                       for tid in range(n_threads)]
            while True:
                # Re-derive each round: filling one partition can drain
                # another.
                pending = [tid for tid in range(n_threads)
                           if cache.actual_sizes[tid] < cache.targets[tid]
                           and budgets[tid] > 0]
                if not pending:
                    break
                for tid in pending:
                    for _ in range(64):
                        if (cache.actual_sizes[tid] >= cache.targets[tid]
                                or budgets[tid] <= 0):
                            break
                        addr, next_use, _gap = cursors[tid].next()
                        cache.access(addr, tid, next_use)
                        budgets[tid] -= 1
            cache.reset_stats()
        cumulative: List[float] = []
        acc = 0.0
        for r in insertion_rates:
            acc += r
            cumulative.append(acc)
        cumulative[-1] = 1.0
        n = len(cursors)
        access = cache.access
        issued = [0] * n
        total = warmup_insertions + num_insertions
        for count in range(total):
            if count == warmup_insertions:
                cache.reset_stats()
            x = rng.random()
            tid = 0
            while cumulative[tid] < x:
                tid += 1
            cursor = cursors[tid]
            # Feed this thread until it inserts one line (i.e. misses once).
            while True:
                addr, next_use, _gap = cursor.next()
                issued[tid] += 1
                if not access(addr, tid, next_use):
                    break
    return issued
