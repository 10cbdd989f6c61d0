"""Futility Scaling: High-Associativity Cache Partitioning — reproduction.

A from-scratch, trace-driven reproduction of Wang & Chen, *Futility
Scaling: High-Associativity Cache Partitioning* (MICRO 2014): the FS
partitioning scheme (analytical and feedback-based hardware designs), the
baselines it is evaluated against (PF, Vantage, PriSM, FullAssoc,
way-partitioning), and the full experimental substrate (cache arrays,
futility rankings, synthetic SPEC-like workloads, a multiprogrammed CMP
timing model, allocation policies) plus analysis tools and per-figure
experiment drivers.

Quick start::

    from repro import (SetAssociativeArray, CoarseTimestampLRURanking,
                       FeedbackFutilityScalingScheme, PartitionedCache)

    cache = PartitionedCache(
        SetAssociativeArray(num_lines=131072, ways=16),
        CoarseTimestampLRURanking(),
        FeedbackFutilityScalingScheme(),
        num_partitions=4,
        targets=[65536, 32768, 16384, 16384])
    cache.access(addr=0x1234, part=0)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every figure.
"""

from importlib.metadata import PackageNotFoundError
from importlib.metadata import version as _dist_version

try:
    #: Resolved from the installed distribution metadata so a pip/editable
    #: install reports its true version; the fallback covers running
    #: straight from a source checkout via PYTHONPATH=src.
    __version__ = _dist_version("repro")
except PackageNotFoundError:  # uninstalled source tree
    __version__ = "1.0.0"

from . import alloc, analysis, cache, core, obs, runner, sim, trace
from .alloc import (
    EqualSharePolicy,
    QoSPolicy,
    StaticPolicy,
    UtilityBasedPolicy,
    UtilityMonitor,
    profile_miss_curve,
)
from .analysis import (
    aef,
    associativity_cdf,
    mean_absolute_deviation,
    weighted_speedup,
)
from .cache import (
    CacheStats,
    DirectMappedArray,
    FullyAssociativeArray,
    PartitionedCache,
    RandomCandidatesArray,
    SetAssociativeArray,
    SkewAssociativeArray,
    ZCacheArray,
)
from .core import (
    CQVPScheme,
    CoarseTimestampLRURanking,
    FeedbackFutilityScalingScheme,
    FullAssocScheme,
    FutilityScalingScheme,
    LFURanking,
    LRURanking,
    OPTRanking,
    PartitioningFirstScheme,
    PriSMScheme,
    RandomRanking,
    UnpartitionedScheme,
    VantageScheme,
    WayPartitionScheme,
    available_schemes,
    make_ranking,
    make_scheme,
    scaling,
)
from .api import build_array, build_cache, run_experiment
from .obs import TelemetrySession, TimeSeriesRecorder
from .errors import (
    CellTimeoutError,
    ConfigurationError,
    InfeasiblePartitioningError,
    ReproError,
    SimulationError,
    SweepError,
    TraceError,
    WorkerError,
)
from .runner import Cell, FailedCell, RunConfig, run_cells
from .store import ExperimentStore, LocalFileStore, SQLiteStore, open_store
from .sim import (
    TABLE_II,
    MultiprogramSimulator,
    SystemConfig,
    simulate_single_thread,
)
from .trace import (
    BENCHMARKS,
    Trace,
    benchmark_names,
    benchmark_trace,
    run_insertion_rate_controlled,
    run_round_robin,
)

__all__ = [
    "__version__",
    # subpackages
    "alloc", "analysis", "cache", "core", "obs", "runner", "sim", "store", "trace",
    # observability
    "TelemetrySession", "TimeSeriesRecorder",
    # stable facade
    "build_array", "build_cache", "run_experiment",
    # experiment runner
    "Cell", "FailedCell", "RunConfig", "run_cells",
    # experiment store
    "ExperimentStore", "LocalFileStore", "SQLiteStore", "open_store",
    # errors
    "ReproError", "ConfigurationError", "InfeasiblePartitioningError",
    "TraceError", "SimulationError", "WorkerError", "CellTimeoutError",
    "SweepError",
    # cache substrate
    "PartitionedCache", "CacheStats", "SetAssociativeArray",
    "DirectMappedArray", "FullyAssociativeArray", "RandomCandidatesArray",
    "SkewAssociativeArray", "ZCacheArray",
    # rankings
    "LRURanking", "LFURanking", "OPTRanking", "RandomRanking",
    "CoarseTimestampLRURanking", "make_ranking",
    # schemes
    "UnpartitionedScheme", "CQVPScheme", "PartitioningFirstScheme",
    "FutilityScalingScheme",
    "FeedbackFutilityScalingScheme", "VantageScheme", "PriSMScheme",
    "FullAssocScheme", "WayPartitionScheme", "make_scheme",
    "available_schemes", "scaling",
    # traces
    "Trace", "BENCHMARKS", "benchmark_names", "benchmark_trace",
    "run_round_robin", "run_insertion_rate_controlled",
    # sim
    "SystemConfig", "TABLE_II", "MultiprogramSimulator",
    "simulate_single_thread",
    # alloc
    "StaticPolicy", "EqualSharePolicy", "QoSPolicy", "UtilityBasedPolicy",
    "UtilityMonitor", "profile_miss_curve",
    # analysis
    "aef", "associativity_cdf", "mean_absolute_deviation", "weighted_speedup",
]
