"""Failure policy and failure records for :func:`repro.runner.run_cells`.

Partial failure is treated as the normal case for paper-sized sweeps —
one crashing cell, a hung simulation or a dead worker must not discard
hours of completed work.  This module holds the *what*; the work queue
(:mod:`repro.store.queue`) and its coordinator (:mod:`repro.runner.pool`)
do the enforcing, identically at every ``--jobs``:

* **Retries** — a failed attempt is re-executed up to ``retries`` more
  times with capped deterministic exponential backoff (no jitter: the
  delay sequence is a pure function of the attempt number).  The runner
  reseeds the global RNGs from the cell key before *every* attempt, so
  a retried cell's result is byte-identical to a first-try run.
* **Timeouts** — with ``cell_timeout`` set, the worker still running a
  cell past its wall-clock deadline is killed and the cell charged a
  failed attempt.
* **Worker deaths** — a dead worker's cell is stolen by the next claim
  and charged against a separate loss budget, so a cell that *keeps*
  killing its worker eventually fails instead of looping forever.
* **Keep-going** — permanently failed cells become
  :class:`FailedCell` sentinels in the result list instead of aborting
  the sweep; every other cell completes and persists to the store, and
  the failures serialize to a JSON manifest (:func:`write_manifest`).
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional, Sequence, Union

from ..errors import ConfigurationError

__all__ = [
    "MANIFEST_VERSION",
    "FailedCell",
    "RetryPolicy",
    "load_manifest",
    "write_manifest",
]

#: Bump when the failure-manifest JSON layout changes.
MANIFEST_VERSION = 1


@dataclass(frozen=True)
class RetryPolicy:
    """How failing attempts are retried — cells by
    :func:`repro.runner.run_cells`, store/queue operations by
    :mod:`repro.store.retry` (see
    :func:`~repro.store.retry.store_retry_policy`).

    Parameters
    ----------
    retries:
        Extra attempts after the first failure (0 = fail fast).
    backoff_base / backoff_cap:
        Deterministic capped exponential backoff: the delay before
        retry ``n`` is ``min(backoff_cap, backoff_base * 2**(n-1))``
        seconds.  No jitter — determinism is the whole point.
    cell_timeout:
        Per-cell wall-clock limit in seconds (``None`` = unlimited).
        Only a worker process can be killed, so a timeout forks one
        even at ``jobs=1``.
    keep_going:
        Complete the sweep despite permanently failed cells, standing
        in :class:`FailedCell` sentinels for their results.
    """

    retries: int = 0
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    cell_timeout: Optional[float] = None
    keep_going: bool = False

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ConfigurationError(
                f"retries must be >= 0, got {self.retries}")
        if self.cell_timeout is not None and self.cell_timeout <= 0:
            raise ConfigurationError(
                f"cell_timeout must be positive, got {self.cell_timeout}")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ConfigurationError("backoff delays must be non-negative")

    def delay(self, failures: int) -> float:
        """Backoff before the next attempt after ``failures`` failures."""
        return min(self.backoff_cap,
                   self.backoff_base * (2 ** (failures - 1)))

    @property
    def loss_budget(self) -> int:
        """How many worker deaths one cell may be implicated in."""
        return max(self.retries, 1)


@dataclass(frozen=True)
class FailedCell:
    """Sentinel standing in for a permanently failed cell's result.

    Appears in :func:`repro.runner.run_cells` output under
    ``keep_going`` and in :class:`~repro.errors.SweepError.failures`;
    serializes into the JSON failure manifest via :meth:`to_json`.
    """

    index: int
    label: str
    key: str
    error_type: str
    message: str
    attempts: int
    elapsed: float
    #: The final exception (in-memory only; not serialized).
    exc: Optional[BaseException] = field(
        default=None, compare=False, repr=False)

    def to_json(self) -> Dict[str, Any]:
        """Manifest entry: everything but the live exception object."""
        return {
            "cell": self.label,
            "key": self.key,
            "index": self.index,
            "error_type": self.error_type,
            "message": self.message,
            "attempts": self.attempts,
            "elapsed": self.elapsed,
        }


def write_manifest(path: Union[str, "Path"], experiment: str,
                   failures: Sequence[FailedCell]) -> Path:
    """Persist a failure manifest (atomically) and return its path.

    An *empty* manifest is meaningful: it records that a ``keep_going``
    sweep completed with zero permanent failures.  Rerunning the same
    command re-executes only the failed cells — every successful cell
    is already in the result cache.
    """
    path = Path(path)
    payload = {
        "manifest_version": MANIFEST_VERSION,
        "experiment": experiment,
        "failures": [f.to_json()
                     for f in sorted(failures, key=lambda f: f.index)],
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".manifest-",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def load_manifest(path: Union[str, "Path"]) -> Dict[str, Any]:
    """Read a manifest written by :func:`write_manifest`."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or "failures" not in doc:
        raise ConfigurationError(
            f"{path} is not a failure manifest (no 'failures' key)")
    return doc
