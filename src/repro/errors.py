"""Exception hierarchy for the futility-scaling reproduction library.

All library-raised errors derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause.
"""

from __future__ import annotations

from typing import Any, Sequence


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigurationError(ReproError, ValueError):
    """A component was constructed or configured with invalid parameters."""


class InfeasiblePartitioningError(ReproError, ValueError):
    """The requested partitioning cannot be enforced by any
    replacement-based scheme.

    Section IV-B of the paper: with ``R`` replacement candidates, a partition
    with target fraction ``S`` and insertion rate ``I < S**R`` will shrink
    below its target no matter how futilities are scaled, because the
    minimum achievable eviction rate of the *other* partitions is bounded.
    """


class TraceError(ReproError, ValueError):
    """A trace or trace generator was used inconsistently."""


class SimulationError(ReproError, RuntimeError):
    """The simulation engine reached an inconsistent state."""


class WorkerError(ReproError, RuntimeError):
    """An experiment cell failed inside a runner worker.

    Raised by :func:`repro.runner.run_cells` when cells raise non-library
    exceptions or their workers die; a single failing library error
    (:class:`ReproError` subclass) propagates unwrapped, and otherwise
    the message lists *every* failed cell.
    """


class CellTimeoutError(ReproError, RuntimeError):
    """An experiment cell exceeded its per-cell wall-clock budget.

    Raised (or recorded in a :class:`~repro.runner.FailedCell`) by
    :func:`repro.runner.run_cells` when ``cell_timeout`` is set and a
    cell is still running past its deadline; the hung worker is killed
    and replaced, and the cell is retried if it has retry budget left.
    """


class SweepError(ReproError, RuntimeError):
    """A ``keep_going`` sweep completed with permanently failed cells.

    Raised by :meth:`repro.experiments.registry.ExperimentSpec.run`
    after the sweep *finished* — every other cell's result was computed
    and persisted to the cache.  ``failures`` holds the
    :class:`~repro.runner.FailedCell` sentinels and ``results`` the full
    ordered result list (sentinels included), so callers that can
    tolerate holes may still reduce over the partial results.
    """

    def __init__(self, message: str, failures: Sequence[Any] = (),
                 results: Sequence[Any] = ()) -> None:
        super().__init__(message)
        self.failures = list(failures)
        self.results = list(results)
