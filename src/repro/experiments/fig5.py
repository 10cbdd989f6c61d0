"""Figure 5: sizing precision of FS vs PF (Section IV-D).

Setup from the paper: the same 2MB random-candidates cache, equally
partitioned (S1/S2 = 1), with insertion-rate splits I1/I2 of 9/1 and 5/5.
Partition 1's deviation from its target is sampled at every eviction.

Expected shapes (paper values):

* PF sizes near-exactly: MAD < 1 line.
* FS deviates temporally but is statistically centered on the target
  (mean deviation ~ 0); the deviation grows with ``I1 * (1 - I1)`` — worst
  at I1 = 0.5 (paper MAD 67.4 lines vs 59.8 at I1 = 0.9, on a 16K-line
  partition: < 0.5% of 1MB).

MAD scales with cache size, so scaled-down runs check the *relations*:
MAD(PF) < 1, MAD(FS at 0.5) > MAD(FS at 0.9), mean ~ 0, and MAD a small
fraction of the partition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..analysis.sizing import (
    deviation_cdf,
    mean_absolute_deviation,
    mean_deviation,
)
from ..api import build_cache
from ..cache.arrays import RandomCandidatesArray
from ..cache.cache import PartitionedCache
from ..core.scaling import scaling_factors_two_partitions
from ..core.schemes.futility_scaling import FutilityScalingScheme
from ..core.schemes.partitioning_first import PartitioningFirstScheme
from ..runner import Cell, run_cells
from ..trace.mixing import run_insertion_rate_controlled
from .common import DEFAULT_SCALE, duplicated_traces, format_table
from .registry import register_experiment

__all__ = ["Fig5Config", "Fig5Measurement", "Fig5Result", "cells_fig5",
           "reduce_fig5", "run_fig5", "format_fig5"]


@dataclass(frozen=True)
class Fig5Config:
    num_lines: int                      # paper: 2MB = 32768 lines
    num_insertions: int
    candidates: int = 16
    insertion_splits: Tuple[Tuple[float, float], ...] = ((0.9, 0.1),
                                                         (0.5, 0.5))
    benchmark: str = "mcf"
    ranking: str = "lru"
    workload_scale: float = 1.0
    trace_length: int = 200_000
    warmup_insertions: int = 0
    prefill: bool = True
    seed: int = 0

    @classmethod
    def paper(cls) -> "Fig5Config":
        return cls(num_lines=32_768, num_insertions=400_000,
                   trace_length=400_000, warmup_insertions=60_000)

    @classmethod
    def scaled(cls) -> "Fig5Config":
        return cls(num_lines=4_096, num_insertions=80_000,
                   trace_length=60_000, warmup_insertions=8_000,
                   workload_scale=DEFAULT_SCALE)

    @classmethod
    def smoke(cls) -> "Fig5Config":
        return cls(num_lines=512, num_insertions=8_000, trace_length=8_000,
                   insertion_splits=((0.5, 0.5),), workload_scale=1.0 / 64.0)


@dataclass
class Fig5Measurement:
    scheme: str
    insertion_split: Tuple[float, float]
    mad: float
    mean: float
    cdf: Tuple[np.ndarray, np.ndarray]   # |deviation| CDF of partition 1


@dataclass
class Fig5Result:
    config: Fig5Config
    measurements: List[Fig5Measurement]

    def mad_of(self, scheme: str, i1: float) -> float:
        for m in self.measurements:
            if m.scheme == scheme and abs(m.insertion_split[0] - i1) < 1e-9:
                return m.mad
        raise KeyError((scheme, i1))


def _cell_cache(config: Fig5Config, scheme_name: str,
                split: Tuple[float, float]) -> PartitionedCache:
    """The cache one cell runs.  fig5 reads partition 0's size deviation
    only, so no eviction futility is recorded (the kernel computes none)."""
    sizes = (0.5, 0.5)
    if scheme_name == "fs":
        alphas = scaling_factors_two_partitions(sizes, split,
                                                config.candidates)
        scheme = FutilityScalingScheme(alphas=alphas)
    else:
        scheme = PartitioningFirstScheme()
    array = RandomCandidatesArray(config.num_lines, config.candidates,
                                  seed=config.seed)
    half = config.num_lines // 2
    return build_cache(array=array, ranking=config.ranking, scheme=scheme,
                       num_partitions=2,
                       targets=[half, config.num_lines - half],
                       deviation_partitions=[0],
                       track_eviction_futility=False)


def _run_one(config: Fig5Config, scheme_name: str,
             split: Tuple[float, float]) -> Fig5Measurement:
    cache = _cell_cache(config, scheme_name, split)
    traces = duplicated_traces(config.benchmark, 2, config.trace_length,
                               scale=config.workload_scale, seed=config.seed)
    run_insertion_rate_controlled(
        cache, traces, list(split), config.num_insertions,
        warmup_insertions=config.warmup_insertions,
        prefill=config.prefill, seed=config.seed)
    samples = cache.stats.deviation_samples(0)
    return Fig5Measurement(
        scheme=scheme_name, insertion_split=split,
        mad=mean_absolute_deviation(samples), mean=mean_deviation(samples),
        cdf=deviation_cdf(samples))


def reduce_fig5(config: Fig5Config,
                results: List[Fig5Measurement]) -> Fig5Result:
    return Fig5Result(config=config, measurements=list(results))


def run_fig5(config: Fig5Config = Fig5Config.scaled()) -> Fig5Result:
    return reduce_fig5(config, run_cells(cells_fig5(config)))


def format_fig5(result: Fig5Result) -> str:
    partition_lines = result.config.num_lines // 2
    rows: List[List[object]] = []
    for m in result.measurements:
        rows.append([
            m.scheme.upper(),
            f"I1={m.insertion_split[0]:.1f}",
            f"{m.mad:.2f}",
            f"{m.mean:+.2f}",
            f"{m.mad / partition_lines * 100:.3f}%",
        ])
    return format_table(
        ["scheme", "insertion rate", "MAD (lines)", "mean dev",
         "MAD / partition"],
        rows,
        title=(f"Figure 5: size deviation of partition 1 "
               f"(equal split, {partition_lines}-line partitions)"))


@register_experiment(name="fig5", config_cls=Fig5Config, reduce=reduce_fig5,
                     format=format_fig5,
                     description="Fig. 5: FS vs PF sizing precision")
def cells_fig5(config: Fig5Config) -> List[Cell]:
    """One cell per (insertion split, scheme) run."""
    return [Cell("fig5", (scheme_name,) + split, _run_one,
                 (config, scheme_name, split))
            for split in config.insertion_splits
            for scheme_name in ("fs", "pf")]
