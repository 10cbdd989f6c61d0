"""Performance metrics for multiprogrammed evaluations.

The paper reports per-thread IPC (normalized to a baseline), miss counts,
and scheme-vs-scheme performance ratios ("FS improves performance over
Vantage and PriSM by up to 6.0% and 13.7%").  This module provides the
standard multiprogrammed metrics those comparisons are built from.
"""

from __future__ import annotations

import math
from typing import List, Sequence

from ..errors import ConfigurationError

__all__ = ["speedups", "weighted_speedup", "throughput",
           "harmonic_mean_speedup", "geometric_mean", "fairness",
           "mpki", "normalized"]


def _check_same_length(a: Sequence[float], b: Sequence[float]) -> None:
    if len(a) != len(b):
        raise ConfigurationError(
            f"vectors must have equal length, got {len(a)} and {len(b)}")
    if not a:
        raise ConfigurationError("vectors must not be empty")


def speedups(ipcs: Sequence[float], baseline_ipcs: Sequence[float]) -> List[float]:
    """Per-thread ``IPC / IPC_baseline``."""
    _check_same_length(ipcs, baseline_ipcs)
    out = []
    for ipc, base in zip(ipcs, baseline_ipcs):
        if base <= 0:
            raise ConfigurationError("baseline IPC must be positive")
        out.append(ipc / base)
    return out


def weighted_speedup(ipcs: Sequence[float],
                     baseline_ipcs: Sequence[float]) -> float:
    """System throughput metric: sum of per-thread speedups."""
    return sum(speedups(ipcs, baseline_ipcs))


def throughput(ipcs: Sequence[float]) -> float:
    """Aggregate IPC."""
    if not ipcs:
        raise ConfigurationError("ipcs must not be empty")
    return float(sum(ipcs))


def harmonic_mean_speedup(ipcs: Sequence[float],
                          baseline_ipcs: Sequence[float]) -> float:
    """Balanced fairness/throughput metric (harmonic mean of speedups)."""
    s = speedups(ipcs, baseline_ipcs)
    if any(v <= 0 for v in s):
        return 0.0
    return len(s) / sum(1.0 / v for v in s)


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean (for cross-workload aggregates)."""
    if not values:
        raise ConfigurationError("values must not be empty")
    if any(v <= 0 for v in values):
        raise ConfigurationError("geometric mean requires positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def fairness(ipcs: Sequence[float], baseline_ipcs: Sequence[float]) -> float:
    """Min/max speedup ratio: 1 is perfectly fair, 0 maximally unfair."""
    s = speedups(ipcs, baseline_ipcs)
    top = max(s)
    return min(s) / top if top > 0 else 0.0


def mpki(misses: float, instructions: float) -> float:
    """Misses per kilo-instruction."""
    if instructions <= 0:
        raise ConfigurationError("instructions must be positive")
    return misses / instructions * 1000.0


def normalized(values: Sequence[float], reference: float) -> List[float]:
    """Each value divided by ``reference`` (Fig. 2b/2c style N=1 baseline)."""
    if reference <= 0:
        raise ConfigurationError("reference must be positive")
    return [v / reference for v in values]

