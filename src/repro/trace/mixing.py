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
from array import array
from itertools import chain, repeat
from operator import add
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from .._util import check_probabilities
from ..cache.cache import PartitionedCache
from ..errors import TraceError
from .access import Trace

__all__ = ["interleave_round_robin", "run_round_robin",
           "run_insertion_rate_controlled", "fill_to_targets", "TraceCursor"]

#: One access as a cursor serves it: ``(address, next_use, gap)``.
Access = Tuple[int, Optional[int], int]


def _passes(addresses: array, gaps: array, next_use: Optional[array],
            progress: List) -> Iterator[Iterator[Access]]:
    """One iterator per pass over a trace, forever: the wrap rule.

    Pass ``k`` offsets every next-use key by ``k * len(trace)``, so keys
    stay monotone across wraps.  ``progress`` holds the number of passes
    started and the current pass's address iterator, which
    :attr:`TraceCursor.total_accesses` reads.
    """
    length = len(addresses)
    offset = 0
    while True:
        walk = iter(addresses)
        progress[:] = (progress[0] + 1, walk)
        if next_use is None:
            keys: Iterator[Optional[int]] = repeat(None)
        elif offset == 0:
            keys = iter(next_use)
        else:
            keys = map(add, next_use, repeat(offset))
        yield zip(walk, keys, gaps)
        offset += length


class TraceCursor:
    """A cyclic cursor over one thread's trace.

    :attr:`stream` yields ``(address, next_use, gap)`` per access, wraps
    at the end (:func:`_passes` holds the wrap rule), and carries the
    per-access next-use annotation OPT rankings need.  Feeding loops pull
    from ``stream.__next__``; :meth:`next` pulls one access from the
    same stream.  ``position``, ``wraps`` and ``total_accesses`` count
    what either has taken.
    """

    __slots__ = ("trace", "stream", "_progress", "_length")

    def __init__(self, trace: Trace, *, with_next_use: bool = False) -> None:
        if len(trace) == 0:
            raise TraceError("cannot iterate an empty trace")
        self.trace = trace
        self._length = len(trace.addresses)
        # The stream references this list, never the cursor, so cursor
        # and stream form no reference cycle.
        self._progress: List = [0, None]
        self.stream: Iterator[Access] = chain.from_iterable(_passes(
            trace.addresses, trace.gaps,
            trace.next_use if with_next_use else None, self._progress))

    def next(self) -> Access:
        """Advance one access: ``(address, next_use, gap)``."""
        return next(self.stream)

    @property
    def total_accesses(self) -> int:
        """Accesses taken so far, through :attr:`stream` or :meth:`next`."""
        passes, walk = self._progress
        if walk is None:
            return 0
        # An array iterator's pickle state, ``(iter, (array,), index)``,
        # is the only public view of its index: the accesses this pass
        # has taken.  (An exhausted one has none, but the stream starts
        # the next pass before it returns.)
        return (passes - 1) * self._length + walk.__reduce__()[2]

    @property
    def position(self) -> int:
        """Index of the next access within the trace."""
        return self.total_accesses % self._length

    @property
    def wraps(self) -> int:
        """Completed passes over the trace."""
        return self.total_accesses // self._length


def interleave_round_robin(traces: Sequence[Trace], length: int, *,
                           with_next_use: bool = False
                           ) -> Iterator[Tuple[int, int, Optional[int]]]:
    """Yield ``length`` interleaved accesses as ``(thread, addr, next_use)``."""
    pulls = [TraceCursor(t, with_next_use=with_next_use).stream.__next__
             for t in traces]
    n = len(pulls)
    for i in range(length):
        tid = i % n
        addr, next_use, _gap = pulls[tid]()
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


def fill_to_targets(cache: PartitionedCache,
                    pulls: Sequence[Callable[[], Access]],
                    budgets: List[int]) -> None:
    """Warm ``cache`` until every partition reaches its target occupancy.

    Thread ``tid`` feeds partition ``tid`` from ``pulls[tid]`` (a cursor
    stream's ``__next__``) in rounds of up to 64 accesses, while its
    partition is below target and ``budgets[tid]`` accesses remain (a
    thread whose footprint is below its target can never fill it).
    ``budgets`` is consumed in place.  Statistics are reset afterwards,
    so measurements see steady state rather than the cold-start
    transient.  This is the one prefill rule:
    :func:`repro.experiments.common.prefill_to_targets` and
    :func:`run_insertion_rate_controlled` differ only in their budgets
    and in whether the cursors go on into the measured phase.
    """
    while True:
        # Re-derive the worklist every round: filling one partition can
        # drain another back below its target.
        pending = [tid for tid in range(len(pulls))
                   if cache.actual_sizes[tid] < cache.targets[tid]
                   and budgets[tid] > 0]
        if not pending:
            break
        for tid in pending:
            for _ in range(64):
                if (cache.actual_sizes[tid] >= cache.targets[tid]
                        or budgets[tid] <= 0):
                    break
                addr, next_use, _gap = pulls[tid]()
                cache.access(addr, tid, next_use)
                budgets[tid] -= 1
    cache.reset_stats()


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
    pulls = [TraceCursor(t, with_next_use=needs_future).stream.__next__
             for t in traces]
    # Series recording (no-op unless telemetry is active) spans prefill
    # and warmup too: the sizing transient and the feedback convergence
    # it triggers are exactly what the per-partition series is for.
    with record_series(cache):
        if prefill:
            # The prefill's cursors continue into the measured phase.
            fill_to_targets(cache, pulls,
                            [50 * cache.targets[tid] + len(traces[tid])
                             for tid in range(len(pulls))])
        cumulative: List[float] = []
        acc = 0.0
        for r in insertion_rates:
            acc += r
            cumulative.append(acc)
        cumulative[-1] = 1.0
        access = cache.access
        lengths = [len(t) for t in traces]
        issued = [0] * len(pulls)
        total = warmup_insertions + num_insertions
        for count in range(total):
            if count == warmup_insertions:
                cache.reset_stats()
            x = rng.random()
            tid = 0
            while cumulative[tid] < x:
                tid += 1
            pull = pulls[tid]
            length = lengths[tid]
            # Feed this thread until it inserts one line (i.e. misses once).
            fed = 0
            while True:
                addr, next_use, _gap = pull()
                fed += 1
                if not access(addr, tid, next_use):
                    break
                if fed == length:
                    # A full pass of hits: every line the thread touches
                    # is resident, and a hit evicts nothing, so it can
                    # never miss again.
                    raise TraceError(
                        f"thread {tid} hit on every access of a full pass "
                        f"of its {length}-access trace since its last "
                        f"insertion: all its lines are resident, so it can "
                        f"never insert again")
            issued[tid] += fed
    return issued
