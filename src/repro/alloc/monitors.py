"""Utility monitors: miss-rate-curve profiling for allocation policies.

:class:`UtilityMonitor` implements Mattson's stack algorithm over a
(optionally set-sampled) address stream: one pass yields the hit count at
*every* cache size simultaneously, from which
:meth:`~UtilityMonitor.miss_curve` produces the miss-vs-capacity curve the
UCP-style :class:`~repro.alloc.policies.UtilityBasedPolicy` consumes.

Sampling follows UMON's approach: only addresses whose hash falls in a
``1/sampling`` slice are monitored, and the resulting stack distances are
interpreted as distances in the full cache by multiplying back.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .._util import SortedKeyList
from ..errors import ConfigurationError
from ..trace.access import Trace

__all__ = ["UtilityMonitor", "profile_miss_curve"]


class UtilityMonitor:
    """Single-pass reuse-distance (stack-distance) profiler."""

    def __init__(self, *, sampling: int = 1) -> None:
        if sampling < 1:
            raise ConfigurationError(f"sampling must be >= 1, got {sampling}")
        self.sampling = int(sampling)
        self._last_seq: Dict[int, int] = {}
        self._stack = SortedKeyList()
        self._seq = 0
        #: histogram[d] = accesses with stack distance d (in sampled units)
        self.histogram: Dict[int, int] = {}
        self.cold_misses = 0
        self.accesses = 0

    def _monitored(self, addr: int) -> bool:
        if self.sampling == 1:
            return True
        return addr % self.sampling == 0

    def access(self, addr: int) -> Optional[int]:
        """Record one access; returns its stack distance (None if cold or
        not monitored)."""
        self.accesses += 1
        if not self._monitored(addr):
            return None
        self._seq += 1
        seq = self._seq
        prev = self._last_seq.get(addr)
        self._last_seq[addr] = seq
        if prev is None:
            self._stack.add(seq)
            self.cold_misses += 1
            return None
        # Stack distance: number of distinct addresses touched since the
        # previous access = entries above ``prev`` in the recency order.
        distance = len(self._stack) - 1 - self._stack.rank(prev)
        self._stack.remove(prev)
        self._stack.add(seq)
        self.histogram[distance] = self.histogram.get(distance, 0) + 1
        return distance

    def consume(self, trace: Trace) -> "UtilityMonitor":
        """Profile an entire trace; returns self for chaining."""
        access = self.access
        for addr in trace.addresses:
            access(addr)
        return self

    def miss_curve(self, max_lines: int, granule: int = 1) -> List[float]:
        """``curve[g]`` = misses with ``g * granule`` lines of capacity.

        Capacity is interpreted in full-cache lines; with sampling, each
        sampled stack-distance unit stands for ``sampling`` lines.
        """
        if max_lines <= 0 or granule <= 0:
            raise ConfigurationError("max_lines and granule must be positive")
        num_points = max_lines // granule + 1
        reuses = sum(self.histogram.values())
        total_misses_at_zero = self.cold_misses + reuses
        curve = [0.0] * num_points
        # hits_at(lines): reuses with distance*sampling < lines
        cumulative = [0] * (num_points)
        for distance, count in self.histogram.items():
            effective = distance * self.sampling
            g = effective // granule + 1
            if g < num_points:
                cumulative[g] += count
        hits = 0
        for g in range(num_points):
            hits += cumulative[g]
            curve[g] = total_misses_at_zero - hits
        return curve


def profile_miss_curve(trace: Trace, max_lines: int, *, granule: int = 1,
                       sampling: int = 1) -> List[float]:
    """One-call convenience: profile ``trace`` and return its miss curve."""
    monitor = UtilityMonitor(sampling=sampling)
    monitor.consume(trace)
    return monitor.miss_curve(max_lines, granule)
