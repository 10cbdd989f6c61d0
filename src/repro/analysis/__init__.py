"""Measurement analysis: associativity distributions, sizing precision and
multiprogrammed performance metrics."""

from .associativity import (
    aef,
    associativity_cdf,
    cdf_at,
    full_assoc_aef,
    worst_case_cdf,
)
from .metrics import (
    fairness,
    geometric_mean,
    harmonic_mean_speedup,
    mpki,
    normalized,
    speedups,
    throughput,
    weighted_speedup,
)
from .report import build_report
from .text_plots import ascii_chart, sparkline
from .sizing import (
    absolute_deviation_quantile,
    deviation_cdf,
    mean_absolute_deviation,
    mean_deviation,
    theoretical_step_probability,
)

__all__ = [
    "aef",
    "associativity_cdf",
    "cdf_at",
    "worst_case_cdf",
    "full_assoc_aef",
    "mean_absolute_deviation",
    "mean_deviation",
    "deviation_cdf",
    "absolute_deviation_quantile",
    "theoretical_step_probability",
    "speedups",
    "weighted_speedup",
    "throughput",
    "harmonic_mean_speedup",
    "geometric_mean",
    "fairness",
    "mpki",
    "normalized",
    "build_report",
    "sparkline",
    "ascii_chart",
]
