"""Experiment-execution engine: queued cells with content-addressed memoization.

The runner decomposes an experiment into independent :class:`Cell`\\ s
and executes them through one engine (:func:`run_cells` with a
:class:`RunConfig`): pending cells are published to a work queue and
drained by workers — the calling thread, forked worker processes, or
workers joining from other machines.  Each cell's result is memoized in
a pluggable :class:`~repro.store.ExperimentStore` keyed by a SHA-256 of
its full configuration (checksummed and self-quarantining; see
:mod:`repro.store`), and per-cell progress streams to stderr
(:class:`Progress`).  Reduction is ordered, so output is byte-identical
at any worker count; see :mod:`repro.experiments.registry` for how
experiments plug in.

Execution is fault tolerant (:mod:`repro.runner.resilience`): failing
cells retry with capped deterministic backoff, hung cells are killed by
per-cell timeouts, a dead worker's cell is stolen and rerun, and
``keep_going`` sweeps complete with :class:`FailedCell` sentinels plus
a JSON failure manifest instead of aborting.  One deterministic
fault plan (``$REPRO_FAULTS``, :mod:`repro.store.faults`; re-exported
here) makes all of it testable: cell faults fire around cell attempts,
store-op faults inside the store-retry wrapper.
"""

from ..store.faults import FAULTS_ENV, Fault, FaultPlan, InjectedFaultError
from .cache import (
    CacheCorruptionWarning,
    canonical_encode,
    cell_key,
    code_version_salt,
    default_cache_dir,
)
from .cells import Cell
from .config import RunConfig
from .pool import default_jobs, run_cells
from .progress import Progress
from .resilience import (
    FailedCell,
    RetryPolicy,
    load_manifest,
    write_manifest,
)

__all__ = [
    "Cell",
    "CacheCorruptionWarning",
    "FAULTS_ENV",
    "FailedCell",
    "Fault",
    "FaultPlan",
    "InjectedFaultError",
    "Progress",
    "RetryPolicy",
    "RunConfig",
    "canonical_encode",
    "cell_key",
    "code_version_salt",
    "default_cache_dir",
    "default_jobs",
    "load_manifest",
    "run_cells",
    "write_manifest",
]
