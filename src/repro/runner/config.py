"""Typed run configuration: every runner knob in one dataclass.

:class:`RunConfig` is how :func:`repro.runner.run_cells`,
:meth:`ExperimentSpec.run <repro.experiments.registry.ExperimentSpec.run>`
and :func:`repro.api.run_experiment` learn how to execute a sweep —
workers, the experiment store, the resilience policy and the progress
and telemetry sinks all travel together as one validated, immutable
value::

    from repro.runner import RunConfig, run_cells

    cfg = RunConfig(jobs=4, store="sqlite:results.db",
                    retries=2, keep_going=True)
    results = run_cells(cells, cfg)
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional

from ..errors import ConfigurationError
from ..store import ExperimentStore, StoreSpec, resolve_store
from .progress import Progress
from .resilience import RetryPolicy

if TYPE_CHECKING:
    from ..obs.spans import RunTelemetry

__all__ = ["RunConfig"]


@dataclass(frozen=True)
class RunConfig:
    """How a sweep executes (not *what* it computes — that is the
    experiment config; cache keys never see any of these fields).

    Parameters
    ----------
    jobs:
        Workers running the sweep's cells.  ``1`` (default) runs cells
        on the calling thread; ``N`` forks ``N`` worker processes;
        ``None`` or ``0`` means one per CPU.
    store:
        Experiment store holding memoized cell results: a store URL
        (``local:PATH``, ``sqlite:PATH``), a bare directory path
        (opened as ``local``), an :class:`~repro.store.ExperimentStore`
        instance, or ``None`` (no memoization).
    force:
        Ignore (and overwrite) existing store entries.
    retries:
        Extra attempts per failing cell, with capped deterministic
        backoff (``backoff_base`` / ``backoff_cap``).
    cell_timeout:
        Per-cell wall-clock limit in seconds (``None`` = unlimited); a
        worker past it is killed, so this forks a worker even at
        ``jobs=1``.
    keep_going:
        Complete the sweep despite permanently failed cells, standing
        :class:`~repro.runner.FailedCell` sentinels in for results.
    progress:
        Optional :class:`~repro.runner.Progress` stderr reporter.
    telemetry:
        Optional :class:`~repro.obs.spans.RunTelemetry` span collector.
        A :class:`~repro.obs.session.TelemetrySession`'s collector also
        traces the sweep into the session's ``traces/`` directory (see
        :mod:`repro.obs.trace`).
    store_retries:
        Bounded retries for *transient* store errors (SQLite
        ``database is locked``, ``EAGAIN``-family ``OSError``) in the
        coordinator's store reads and writes (see
        :mod:`repro.store.retry`).  Permanent store errors are never
        retried: they fail the sweep.
    """

    jobs: Optional[int] = 1
    store: Optional[StoreSpec] = None
    force: bool = False
    retries: int = 0
    cell_timeout: Optional[float] = None
    keep_going: bool = False
    backoff_base: float = 0.05  # reprolint: cli-exempt
    backoff_cap: float = 2.0  # reprolint: cli-exempt
    progress: Optional[Progress] = None  # reprolint: cli-exempt
    telemetry: Optional["RunTelemetry"] = None
    store_retries: int = 5

    def __post_init__(self) -> None:
        # RetryPolicy construction validates the resilience fields.
        self.policy()
        if self.store_retries < 0:
            raise ConfigurationError(
                f"store_retries must be >= 0, got {self.store_retries}")

    def policy(self) -> RetryPolicy:
        """The :class:`~repro.runner.RetryPolicy` these fields define."""
        return RetryPolicy(
            retries=self.retries, backoff_base=self.backoff_base,
            backoff_cap=self.backoff_cap, cell_timeout=self.cell_timeout,
            keep_going=self.keep_going)

    def open_store(self) -> Optional[ExperimentStore]:
        """Resolve the ``store`` field to a live store (or ``None``)."""
        return resolve_store(self.store)

    def replace(self, **changes: Any) -> "RunConfig":
        """A copy with ``changes`` applied (``dataclasses.replace``)."""
        return dataclasses.replace(self, **changes)
