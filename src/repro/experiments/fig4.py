"""Figure 4: associativity of FS vs PF under controlled conditions
(Section IV-C).

Setup from the paper: two mcf threads on a 2MB *random-candidates* cache
(the array that satisfies the Uniformity Assumption exactly) with R = 16,
equal insertion rates (I1/I2 = 1), and size splits S1/S2 of 9/1 and 6/4.
FS uses the Equation (1) scaling factors; PF is Algorithm 1.

Expected shapes (paper values for reference):

* PF: the small partition's associativity collapses with its size — AEF of
  partition 2 drops from 0.86 (S2 = 0.4) to 0.63 (S2 = 0.1).
* FS: the *unscaled* partition keeps its full associativity (analytic AEF
  = R/(R+1) = 0.941) regardless of the split; the scaled partition
  degrades only with its scaling factor (AEF 0.94 -> 0.87 as S2 goes
  0.4 -> 0.1), never with the number of partitions.

The driver also reports the analytic AEF predictions from
:mod:`repro.core.scaling` next to the measurements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..analysis.associativity import aef, associativity_cdf
from ..analysis.text_plots import ascii_chart
from ..api import build_cache
from ..cache.arrays import RandomCandidatesArray
from ..core.scaling import analytic_aef, scaling_factors_two_partitions
from ..core.schemes.futility_scaling import FutilityScalingScheme
from ..core.schemes.partitioning_first import PartitioningFirstScheme
from ..runner import Cell, run_cells
from ..trace.mixing import run_insertion_rate_controlled
from .common import DEFAULT_SCALE, duplicated_traces, format_table
from .registry import register_experiment

__all__ = ["Fig4Config", "Fig4Measurement", "Fig4Result", "cells_fig4",
           "reduce_fig4", "run_fig4", "format_fig4"]


@dataclass(frozen=True)
class Fig4Config:
    num_lines: int                      # paper: 2MB = 32768 lines
    num_insertions: int
    candidates: int = 16
    size_splits: Tuple[Tuple[float, float], ...] = ((0.9, 0.1), (0.6, 0.4))
    insertion_rates: Tuple[float, float] = (0.5, 0.5)
    benchmark: str = "mcf"
    ranking: str = "lru"
    workload_scale: float = 1.0
    trace_length: int = 200_000
    warmup_insertions: int = 0
    prefill: bool = True
    seed: int = 0

    @classmethod
    def paper(cls) -> "Fig4Config":
        return cls(num_lines=32_768, num_insertions=400_000,
                   trace_length=400_000, warmup_insertions=40_000)

    @classmethod
    def scaled(cls) -> "Fig4Config":
        return cls(num_lines=4_096, num_insertions=60_000,
                   trace_length=60_000, warmup_insertions=6_000,
                   workload_scale=DEFAULT_SCALE)

    @classmethod
    def smoke(cls) -> "Fig4Config":
        return cls(num_lines=512, num_insertions=6_000, trace_length=8_000,
                   size_splits=((0.9, 0.1),), workload_scale=1.0 / 64.0)


@dataclass
class Fig4Measurement:
    """One (scheme, split) run."""

    scheme: str
    split: Tuple[float, float]
    alphas: Optional[Tuple[float, float]]         # FS only
    aef: Tuple[float, float]                      # per partition
    analytic_aef: Optional[Tuple[float, float]]   # FS only
    cdfs: Tuple[Tuple[np.ndarray, np.ndarray], ...]


@dataclass
class Fig4Result:
    config: Fig4Config
    measurements: List[Fig4Measurement]


def _run_one(config: Fig4Config, scheme_name: str,
             split: Tuple[float, float]) -> Fig4Measurement:
    rates = config.insertion_rates
    alphas = None
    analytic = None
    if scheme_name == "fs":
        alphas = scaling_factors_two_partitions(split, rates,
                                                config.candidates)
        scheme = FutilityScalingScheme(alphas=alphas)
        analytic = tuple(
            analytic_aef(list(alphas), list(split), config.candidates, p)
            for p in range(2))
    else:
        scheme = PartitioningFirstScheme()
    array = RandomCandidatesArray(config.num_lines, config.candidates,
                                  seed=config.seed)
    targets = [int(round(split[0] * config.num_lines))]
    targets.append(config.num_lines - targets[0])
    cache = build_cache(array=array, ranking=config.ranking, scheme=scheme,
                        num_partitions=2, targets=targets)
    traces = duplicated_traces(config.benchmark, 2, config.trace_length,
                               scale=config.workload_scale, seed=config.seed)
    run_insertion_rate_controlled(
        cache, traces, list(rates), config.num_insertions,
        warmup_insertions=config.warmup_insertions,
        prefill=config.prefill, seed=config.seed)
    samples = [cache.stats.eviction_futility_samples(p) for p in range(2)]
    return Fig4Measurement(
        scheme=scheme_name, split=split, alphas=alphas,
        aef=tuple(aef(s) for s in samples), analytic_aef=analytic,
        cdfs=tuple(associativity_cdf(s) for s in samples))


def reduce_fig4(config: Fig4Config,
                results: List[Fig4Measurement]) -> Fig4Result:
    return Fig4Result(config=config, measurements=list(results))


def run_fig4(config: Fig4Config = Fig4Config.scaled()) -> Fig4Result:
    return reduce_fig4(config, run_cells(cells_fig4(config)))


def format_fig4(result: Fig4Result) -> str:
    rows: List[List[object]] = []
    for m in result.measurements:
        for p in range(2):
            rows.append([
                m.scheme.upper(),
                f"S{p + 1}={m.split[p]:.1f}",
                f"{m.alphas[p]:.3f}" if m.alphas else "-",
                f"{m.aef[p]:.3f}",
                f"{m.analytic_aef[p]:.3f}" if m.analytic_aef else "-",
            ])
    table = format_table(
        ["scheme", "partition", "alpha", "AEF (measured)", "AEF (analytic)"],
        rows,
        title=(f"Figure 4: FS vs PF associativity "
               f"(random-candidates cache, R={result.config.candidates}, "
               f"I1/I2=1)"))
    # The paper's Fig. 4 panel: CDFs of the small partition per scheme for
    # the most skewed split.
    split = result.config.size_splits[0]
    small = 1 if split[1] < split[0] else 0
    curves = {}
    for m in result.measurements:
        if m.split == split:
            curves[f"{m.scheme.upper()} S{small + 1}={split[small]:.1f}"] = \
                m.cdfs[small][1].tolist()
    if curves:
        table += ("\n\nAssociativity CDFs of the small partition "
                  "(x: eviction futility 0..1):\n"
                  + ascii_chart(curves, x_label="futility", y_label="CDF"))
    return table


@register_experiment(name="fig4", config_cls=Fig4Config, reduce=reduce_fig4,
                     format=format_fig4,
                     description="Fig. 4: FS vs PF associativity")
def cells_fig4(config: Fig4Config) -> List[Cell]:
    """One cell per (size split, scheme) run."""
    return [Cell("fig4", (scheme_name,) + split, _run_one,
                 (config, scheme_name, split))
            for split in config.size_splits
            for scheme_name in ("fs", "pf")]
