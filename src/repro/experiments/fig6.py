"""Figure 6: associativity sensitivity of applications (Section VI).

For six benchmarks and cache sizes from 128KB to 8MB, the paper reports the
speedup of a fully-associative cache over a direct-mapped cache of the same
size, under OPT ranking (Fig. 6a) and LRU ranking (Fig. 6b).

Expected shapes:

* **OPT**: mcf gains >= 25% at every size; gromacs gains > 35% at 128KB and
  ~0 above 1MB (its working set fits); lbm gains nothing (streaming).
* **LRU**: sensitivity is compressed everywhere (mcf <= ~10%); cactusADM can
  *lose* performance from higher associativity (-6% at 4MB) because its
  scan loop makes LRU rank soon-reused lines as most futile.

Each (benchmark, size, ranking, organization) cell is one timed
single-thread simulation; speedup = IPC(fully-assoc) / IPC(direct-mapped).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..api import build_cache
from ..cache.cache import PartitionedCache
from ..core.schemes.full_assoc import FullAssocScheme
from ..core.schemes.unpartitioned import UnpartitionedScheme
from ..runner import Cell, run_cells
from ..sim.config import TABLE_II
from ..sim.engine import simulate_single_thread
from ..trace.spec import get_profile, lines_for_bytes
from .common import DEFAULT_SCALE, format_table
from .registry import register_experiment

__all__ = ["Fig6Config", "Fig6Result", "cells_fig6", "reduce_fig6",
           "run_fig6", "format_fig6"]

PAPER_BENCHMARKS = ("mcf", "omnetpp", "gromacs", "astar", "cactusadm", "lbm")
PAPER_SIZES_KB = (128, 256, 512, 1024, 2048, 4096, 8192)


@dataclass(frozen=True)
class Fig6Config:
    cache_sizes_lines: Tuple[int, ...]
    trace_length: int
    benchmarks: Tuple[str, ...] = PAPER_BENCHMARKS
    rankings: Tuple[str, ...] = ("opt", "lru")
    workload_scale: float = 1.0
    seed: int = 0

    @classmethod
    def paper(cls) -> "Fig6Config":
        # Traces must be long enough that the largest cache cannot hold a
        # benchmark's whole footprint, or the speedup degenerates to 1.
        return cls(cache_sizes_lines=tuple(lines_for_bytes(kb * 1024)
                                           for kb in PAPER_SIZES_KB),
                   trace_length=2_000_000)

    @classmethod
    def scaled(cls) -> "Fig6Config":
        # 1/8 of the paper's sizes: 16KB .. 512KB (lines 256 .. 8192).
        return cls(cache_sizes_lines=(256, 1024, 4096, 8192),
                   trace_length=100_000, workload_scale=DEFAULT_SCALE)

    @classmethod
    def smoke(cls) -> "Fig6Config":
        return cls(cache_sizes_lines=(128, 512), trace_length=8_000,
                   benchmarks=("mcf", "lbm"), rankings=("lru",),
                   workload_scale=1.0 / 64.0)


@dataclass
class Fig6Result:
    config: Fig6Config
    #: ipcs[ranking][benchmark][size][organization] with organization in
    #: {"fa", "dm"}.
    ipcs: Dict[str, Dict[str, Dict[int, Dict[str, float]]]]

    def speedup(self, ranking: str, benchmark: str, size: int) -> float:
        cell = self.ipcs[ranking][benchmark][size]
        return cell["fa"] / cell["dm"]


def _cell_cache(size: int, ranking: str,
                organization: str) -> PartitionedCache:
    """The single-partition cache one cell simulates.  Only IPC is
    reported, so neither organization records eviction futilities (and
    the compiled kernel computes none)."""
    if organization == "fa":
        return build_cache(array="full-assoc", num_lines=size,
                           ranking=ranking, scheme=FullAssocScheme(),
                           num_partitions=1, track_eviction_futility=False)
    return build_cache(array="direct-mapped", num_lines=size,
                       ranking=ranking, scheme=UnpartitionedScheme(),
                       num_partitions=1, track_eviction_futility=False)


def _run_cell(config: Fig6Config, benchmark: str, size: int, ranking: str,
              organization: str) -> float:
    trace = get_profile(benchmark).trace(
        config.trace_length, seed=config.seed, scale=config.workload_scale)
    cache = _cell_cache(size, ranking, organization)
    return simulate_single_thread(cache, trace, TABLE_II).ipc


def reduce_fig6(config: Fig6Config, results: List[float]) -> Fig6Result:
    it = iter(results)
    ipcs: Dict[str, Dict[str, Dict[int, Dict[str, float]]]] = {}
    for ranking in config.rankings:
        ipcs[ranking] = {}
        for benchmark in config.benchmarks:
            ipcs[ranking][benchmark] = {}
            for size in config.cache_sizes_lines:
                ipcs[ranking][benchmark][size] = {
                    org: next(it) for org in ("fa", "dm")}
    return Fig6Result(config=config, ipcs=ipcs)


def run_fig6(config: Fig6Config = Fig6Config.scaled()) -> Fig6Result:
    return reduce_fig6(config, run_cells(cells_fig6(config)))


def format_fig6(result: Fig6Result) -> str:
    config = result.config
    blocks: List[str] = []
    for ranking in config.rankings:
        rows = []
        for benchmark in config.benchmarks:
            row: List[object] = [benchmark]
            for size in config.cache_sizes_lines:
                row.append(f"{result.speedup(ranking, benchmark, size):.3f}")
            rows.append(row)
        headers = ["benchmark"] + [f"{s * 64 // 1024}KB"
                                   for s in config.cache_sizes_lines]
        label = "6a (OPT)" if ranking == "opt" else "6b (LRU)"
        blocks.append(format_table(
            headers, rows,
            title=f"Figure {label}: fully-associative vs direct-mapped "
                  f"speedup"))
    return "\n\n".join(blocks)


@register_experiment(name="fig6", config_cls=Fig6Config, reduce=reduce_fig6,
                     format=format_fig6,
                     description="Fig. 6: associativity sensitivity")
def cells_fig6(config: Fig6Config) -> List[Cell]:
    """One cell per (ranking, benchmark, size, organization) simulation."""
    return [Cell("fig6", (ranking, benchmark, size, org), _run_cell,
                 (config, benchmark, size, ranking, org))
            for ranking in config.rankings
            for benchmark in config.benchmarks
            for size in config.cache_sizes_lines
            for org in ("fa", "dm")]
