"""Extension experiment: smooth resizing (the paper's property 1).

Section II-A lists *smooth resizing* — repartitioning with no data
flushing or migration — as the first requirement of an enforcement
scheme, and Section II-B argues placement-based schemes fail it.  The
paper asserts the property but never measures it; this extension does.

Protocol: two threads share a cache with a 3:1 split; after reaching
steady state the allocation flips to 1:3 (a phase change an allocation
policy would make).  For each scheme we measure:

* **flushed lines** — data invalidated by the resize itself (placement
  schemes only);
* **convergence** — accesses until the *shrinking* partition is within
  10% of its new target;
* **disruption** — the miss-rate *increase* in the window right after the
  flip, relative to pre-flip steady state, for the thread whose partition
  *shrank*: its lines must be handed over gradually (replacement-based)
  or were just flushed (placement).

Expected: replacement-based schemes (FS, PF, CQVP) flush nothing and
disrupt mildly; way-partitioning invalidates every transferred way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..cache.arrays import SetAssociativeArray
from ..cache.cache import PartitionedCache
from ..core.futility import CoarseTimestampLRURanking, LRURanking
from ..core.schemes.base import make_scheme
from ..runner import Cell, run_cells
from ..trace.mixing import TraceCursor
from .common import DEFAULT_SCALE, format_table, mixed_traces
from .registry import register_experiment

__all__ = ["ResizingConfig", "ResizingCell", "ResizingResult",
           "cells_resizing", "reduce_resizing",
           "run_resizing", "format_resizing"]

SCHEMES = ("fs-feedback", "pf", "cqvp", "way-partition")


@dataclass(frozen=True)
class ResizingConfig:
    total_lines: int
    trace_length: int
    steady_accesses: int          # per phase-A steady-state measurement
    window_accesses: int          # post-flip disruption window
    schemes: Tuple[str, ...] = SCHEMES
    # Both capacity-hungry, so the grown partition has real demand
    # and the shrink can complete.
    benchmarks: Tuple[str, str] = ("mcf", "omnetpp")
    split: Tuple[float, float] = (0.75, 0.25)
    ways: int = 16
    workload_scale: float = 1.0
    convergence_tolerance: float = 0.10
    seed: int = 0

    @classmethod
    def paper(cls) -> "ResizingConfig":
        return cls(total_lines=131_072, trace_length=400_000,
                   steady_accesses=600_000, window_accesses=200_000)

    @classmethod
    def scaled(cls) -> "ResizingConfig":
        return cls(total_lines=8_192, trace_length=40_000,
                   steady_accesses=60_000, window_accesses=20_000,
                   workload_scale=DEFAULT_SCALE)

    @classmethod
    def smoke(cls) -> "ResizingConfig":
        return cls(total_lines=512, trace_length=4_000,
                   steady_accesses=4_000, window_accesses=1_500,
                   schemes=("fs-feedback", "way-partition"),
                   workload_scale=1.0 / 64.0)


@dataclass
class ResizingCell:
    scheme: str
    flushed_lines: int
    #: accesses until the shrinking partition is within tolerance of its
    #: new target (None if not converged within the measurement horizon).
    convergence_accesses: Optional[int]
    steady_miss_rate: float        # shrinking thread, before the flip
    window_miss_rate: float        # shrinking thread, right after the flip
    disruption: float              # window - steady miss-rate delta


@dataclass
class ResizingResult:
    config: ResizingConfig
    cells: Dict[str, ResizingCell]


def _build(config: ResizingConfig, scheme_name: str) -> PartitionedCache:
    scheme = make_scheme(scheme_name)
    ranking = (CoarseTimestampLRURanking()
               if scheme_name == "fs-feedback" else LRURanking())
    return PartitionedCache(
        SetAssociativeArray(config.total_lines, config.ways), ranking,
        scheme, 2, track_eviction_futility=False)


def _targets(config: ResizingConfig,
             split: Sequence[float]) -> List[int]:
    first = int(split[0] * config.total_lines)
    return [first, config.total_lines - first]


def _run_cell(config: ResizingConfig, scheme_name: str) -> ResizingCell:
    cache = _build(config, scheme_name)
    cache.set_targets(_targets(config, config.split))
    pulls = [TraceCursor(trace).stream.__next__ for trace in mixed_traces(
        config.benchmarks, config.trace_length,
        scale=config.workload_scale, seed=config.seed)]

    def feed(count: int) -> None:
        access = cache.access
        for i in range(count):
            tid = i & 1
            addr, next_use, _gap = pulls[tid]()
            access(addr, tid, next_use)

    # Phase A: reach and measure steady state.
    feed(config.steady_accesses)
    cache.reset_stats()
    feed(config.steady_accesses)
    shrinking = 0 if config.split[0] > config.split[1] else 1
    steady_miss = cache.stats.miss_rate(shrinking)

    # The flip.
    flushes_before = cache.stats.flushes
    cache.set_targets(_targets(config, config.split[::-1]))
    flushed = cache.stats.flushes - flushes_before
    cache.reset_stats()

    # Disruption window + convergence tracking.
    new_targets = cache.targets
    tolerance = config.convergence_tolerance
    convergence: Optional[int] = None
    access = cache.access
    horizon = max(config.window_accesses, 4 * config.steady_accesses)
    window_misses = 0
    window_accesses_seen = 0
    for i in range(horizon):
        tid = i & 1
        addr, next_use, _gap = pulls[tid]()
        hit = access(addr, tid, next_use)
        if tid == shrinking and i < config.window_accesses:
            window_accesses_seen += 1
            if not hit:
                window_misses += 1
        if convergence is None and (
                abs(cache.actual_sizes[shrinking] - new_targets[shrinking])
                <= tolerance * max(1, new_targets[shrinking])):
            convergence = i + 1
        if convergence is not None and i >= config.window_accesses:
            break
    window_miss = (window_misses / window_accesses_seen
                   if window_accesses_seen else 0.0)
    return ResizingCell(
        scheme=scheme_name, flushed_lines=flushed,
        convergence_accesses=convergence, steady_miss_rate=steady_miss,
        window_miss_rate=window_miss,
        disruption=window_miss - steady_miss)


def reduce_resizing(config: ResizingConfig,
                    results: List[ResizingCell]) -> ResizingResult:
    return ResizingResult(
        config=config,
        cells={cell.scheme: cell for cell in results})


def run_resizing(config: ResizingConfig = ResizingConfig.scaled()
                 ) -> ResizingResult:
    return reduce_resizing(config, run_cells(cells_resizing(config)))


def format_resizing(result: ResizingResult) -> str:
    rows = []
    for name, cell in result.cells.items():
        rows.append([
            name,
            cell.flushed_lines,
            ("not converged" if cell.convergence_accesses is None
             else cell.convergence_accesses),
            f"{cell.steady_miss_rate:.3f}",
            f"{cell.window_miss_rate:.3f}",
            f"{cell.disruption:+.3f}",
        ])
    split = result.config.split
    return format_table(
        ["scheme", "flushed lines", "convergence (accesses)",
         "steady miss", "post-flip miss", "disruption"],
        rows,
        title=(f"Extension: smooth resizing — flip "
               f"{split[0]:.0%}/{split[1]:.0%} -> "
               f"{split[1]:.0%}/{split[0]:.0%}"))


@register_experiment(name="resizing", config_cls=ResizingConfig,
                     reduce=reduce_resizing, format=format_resizing,
                     description="Extension: smooth-resizing measurement "
                                 "(paper property 1)")
def cells_resizing(config: ResizingConfig) -> List[Cell]:
    """One cell per enforcement scheme."""
    return [Cell("resizing", (name,), _run_cell, (config, name))
            for name in config.schemes]
