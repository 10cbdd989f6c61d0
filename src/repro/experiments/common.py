"""Shared infrastructure for the per-figure experiment drivers.

Every figure module exposes a config dataclass with three constructors:

* ``paper()`` — the paper's exact parameters (8MB L2, 512KB partitions,
  250M-instruction regions scaled to trace lengths that reach steady
  state).  Minutes-to-hours in pure Python; intended for offline runs.
* ``scaled()`` — the default: all capacities and working sets shrunk by
  :data:`DEFAULT_SCALE` (1/8) and traces shortened accordingly.  The
  qualitative shapes (orderings, crossovers, relative factors) are
  preserved; this is what the benchmark harness runs.
* ``smoke()`` — tiny, for tests.

``run_*`` functions return plain result objects; ``format_*`` helpers
render the paper-style rows the benchmark harness prints.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..cache.cache import PartitionedCache
from ..trace.access import Trace
from ..trace.mixing import TraceCursor
from ..trace.spec import get_profile

__all__ = [
    "DEFAULT_SCALE",
    "duplicated_traces",
    "mixed_traces",
    "prefill_to_targets",
    "format_table",
    "format_cdf_summary",
    "ADDRESS_SPACING",
]

#: Default capacity/working-set shrink factor for scaled() configs.
DEFAULT_SCALE = 0.125

#: Address-space stride separating threads in multiprogrammed mixes.
ADDRESS_SPACING = 1 << 40


def duplicated_traces(benchmark: str, n: int, length: int, *,
                      scale: float = 1.0, seed: int = 0) -> List[Trace]:
    """``n`` copies of a benchmark in disjoint address spaces.

    This is how the paper builds its Fig. 2 workloads ("constructed by
    duplicating a SPEC CPU2006 benchmark N times").  Each copy gets its own
    random stream so duplicated threads are statistically identical but not
    lock-stepped.
    """
    return mixed_traces([benchmark] * n, length, scale=scale, seed=seed)


def mixed_traces(benchmarks: Sequence[str], length: int, *,
                 scale: float = 1.0, seed: int = 0) -> List[Trace]:
    """One trace per benchmark name (repeats allowed), disjoint address
    spaces — the Fig. 7 subject/background mixes.

    The per-thread convention of every multiprogrammed figure: thread
    ``tid`` draws seed ``seed + tid`` and lives at
    ``(tid + 1) * ADDRESS_SPACING``.  Figures that follow it share
    memoized traces (:meth:`repro.trace.spec.BenchmarkProfile.trace`).
    """
    return [get_profile(name).trace(length, seed=seed + tid,
                                    addr_base=(tid + 1) * ADDRESS_SPACING,
                                    scale=scale)
            for tid, name in enumerate(benchmarks)]


def prefill_to_targets(cache: PartitionedCache, traces: Sequence[Trace],
                       *, budget_per_line: int = 40) -> None:
    """Warm a partitioned cache to its steady-state occupancy.

    Feeds the threads round-robin until every partition has reached its
    target occupancy (or a per-partition access budget expires — a thread
    whose footprint is below its target can never fill it).  Statistics are
    reset afterwards, so subsequent measurements see steady state rather
    than the cold-start convergence transient, matching the paper's
    long-run methodology.  Rankings needing future knowledge (OPT) are fed
    the traces' next-use annotations.
    """
    needs_future = cache.ranking.needs_future
    pulls = [TraceCursor(t, with_next_use=needs_future).stream.__next__
             for t in traces]
    budgets = [budget_per_line * max(1, cache.targets[tid]) +
               len(traces[tid]) for tid in range(len(traces))]
    while True:
        # Re-derive the worklist every round: filling one partition can
        # drain another back below its target.
        pending = [tid for tid in range(len(traces))
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


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]],
                 *, title: Optional[str] = None) -> str:
    """Render an aligned text table (the harness's printed output)."""
    cells = [[str(h) for h in headers]]
    for row in rows:
        cells.append(["" if v is None else
                      (f"{v:.4g}" if isinstance(v, float) else str(v))
                      for v in row])
    widths = [max(len(r[c]) for r in cells) for c in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    for i, row in enumerate(cells):
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def format_cdf_summary(x: Sequence[float], cdf: Sequence[float],
                       points: Sequence[float] = (0.25, 0.5, 0.75, 0.9)) -> str:
    """Compact textual summary of a CDF at selected x positions."""
    parts = []
    for p in points:
        # Nearest grid point.
        idx = min(range(len(x)), key=lambda i: abs(x[i] - p))
        parts.append(f"F({x[idx]:.2f})={cdf[idx]:.3f}")
    return ", ".join(parts)
