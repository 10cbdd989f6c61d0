"""Deterministic fault injection for exercising the resilience layer.

None of the runner's fault tolerance (retries, timeouts, worker deaths,
cache quarantine — :mod:`repro.runner.resilience`) is testable without
controlled failures, so this module injects them *deterministically*: a
:class:`FaultPlan` names exact cells (by label) and exact attempt
numbers, which means a plan plus a retry budget either always recovers
or always fails — there is no timing or scheduling dependence, and a
chaos run's final stdout stays byte-identical to a fault-free run.

The plan travels through the :data:`REPRO_FAULTS <FAULTS_ENV>`
environment variable (inline JSON, or ``@/path/to/plan.json``), which
worker processes inherit, so faults trigger identically whether a cell
runs on the coordinator's thread (``jobs=1``) or in a worker process.

Fault kinds:

``raise``
    Raise :class:`InjectedFaultError` in the executing process before
    the cell body runs (a transient cell exception).
``hang``
    Sleep ``seconds`` before the cell body runs (pair with the runner's
    ``cell_timeout`` to exercise hung-cell recovery).
``kill``
    ``SIGKILL`` the executing process (a dead worker; with ``jobs > 1``
    the coordinator reaps it and the cell reruns as its next attempt —
    with ``jobs == 1`` it kills the parent, exactly as a real crash
    would).
``corrupt``
    Parent-side, before cache hits are resolved: overwrite the cell's
    *existing* result-cache entry with garbage bytes, exercising the
    cache's checksum/quarantine path.  Ignores ``attempts``.

Plan JSON::

    {"faults": [
        {"cell": "fig3[0.6]", "kind": "raise", "attempts": [1]},
        {"cell": "fig3[0.7]", "kind": "kill"},
        {"cell": "fig3[0.8]", "kind": "corrupt"}
    ]}
"""

from __future__ import annotations

import json
import os
import signal
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from ..store import ExperimentStore
from .cells import Cell

__all__ = [
    "FAULTS_ENV",
    "FAULT_KINDS",
    "Fault",
    "FaultPlan",
    "InjectedFaultError",
    "active_plan",
    "corrupt_cache_entries",
    "inject",
]

#: Environment variable carrying the active plan (inline JSON or ``@path``).
FAULTS_ENV = "REPRO_FAULTS"

#: Recognized fault kinds.
FAULT_KINDS = ("raise", "hang", "kill", "corrupt")

#: What a ``corrupt`` fault writes over a cache entry (fails the
#: checksum check by construction: no valid header).
_CORRUPT_BYTES = b"\x00injected corruption (repro.runner.faults)\x00"

_PLAN_FIELDS = frozenset({"cell", "kind", "attempts", "message", "seconds"})


class InjectedFaultError(RuntimeError):
    """Raised by a ``raise`` fault.

    Deliberately *not* a :class:`~repro.errors.ReproError`: injected
    exceptions exercise the foreign-exception wrapping path, the one a
    genuine infrastructure failure would take.
    """


@dataclass(frozen=True)
class Fault:
    """One injected failure, pinned to a cell label and attempt numbers.

    Parameters
    ----------
    cell:
        Exact cell label to hit (``Cell.label``, e.g. ``"fig3[0.6]"``).
    kind:
        One of :data:`FAULT_KINDS`.
    attempts:
        1-based attempt numbers on which the fault fires (``corrupt``
        ignores this — it applies once, parent-side, per sweep).
    message:
        Text carried by an injected ``raise`` exception.
    seconds:
        Sleep duration for ``hang`` faults.
    """

    cell: str
    kind: str
    attempts: Tuple[int, ...] = (1,)
    message: str = "injected fault"
    seconds: float = 30.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{list(FAULT_KINDS)}")
        if not self.attempts or any(a < 1 for a in self.attempts):
            raise ConfigurationError(
                f"fault attempts must be 1-based attempt numbers, got "
                f"{self.attempts!r}")
        if self.seconds < 0:
            raise ConfigurationError(
                f"fault seconds must be non-negative, got {self.seconds!r}")

    def triggers(self, label: str, attempt: int) -> bool:
        """Does this fault fire for ``label`` on ``attempt``?"""
        return self.cell == label and attempt in self.attempts


@dataclass(frozen=True)
class FaultPlan:
    """An ordered collection of :class:`Fault`\\ s."""

    faults: Tuple[Fault, ...] = ()

    def __bool__(self) -> bool:
        return bool(self.faults)

    def for_cell(self, label: str,
                 kind: Optional[str] = None) -> List[Fault]:
        """Faults aimed at ``label`` (optionally restricted to ``kind``)."""
        return [f for f in self.faults
                if f.cell == label and (kind is None or f.kind == kind)]

    def to_json(self) -> str:
        """Serialize to the ``REPRO_FAULTS`` JSON format."""
        entries: List[Dict[str, Any]] = [
            {"cell": f.cell, "kind": f.kind, "attempts": list(f.attempts),
             "message": f.message, "seconds": f.seconds}
            for f in self.faults]
        return json.dumps({"faults": entries}, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Parse a plan document, failing loudly on malformed input."""
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"fault plan is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict) or not isinstance(
                doc.get("faults", []), list):
            raise ConfigurationError(
                "fault plan must be an object with a 'faults' list")
        faults: List[Fault] = []
        for entry in doc.get("faults", []):
            if not isinstance(entry, dict):
                raise ConfigurationError(
                    f"each fault must be an object, got {entry!r}")
            unknown = sorted(set(entry) - _PLAN_FIELDS)
            if unknown:
                raise ConfigurationError(
                    f"unknown fault fields {unknown}; expected a subset of "
                    f"{sorted(_PLAN_FIELDS)}")
            try:
                cell = str(entry["cell"])
                kind = str(entry["kind"])
            except KeyError as missing:
                raise ConfigurationError(
                    f"fault entry is missing required field "
                    f"{missing}") from missing
            faults.append(Fault(
                cell=cell, kind=kind,
                attempts=tuple(int(a) for a in entry.get("attempts", (1,))),
                message=str(entry.get("message", "injected fault")),
                seconds=float(entry.get("seconds", 30.0))))
        return cls(faults=tuple(faults))


def active_plan() -> Optional[FaultPlan]:
    """The plan named by ``$REPRO_FAULTS``, or ``None`` when unset.

    A value of ``@/path/to/plan.json`` loads the plan from a file;
    anything else is parsed as inline JSON.  Re-read on every call so
    long-lived workers never hold a stale plan.
    """
    raw = os.environ.get(FAULTS_ENV)
    if not raw:
        return None
    if raw.startswith("@"):
        path = Path(raw[1:])
        try:
            raw = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigurationError(
                f"cannot read fault plan file {path}: {exc}") from exc
    return FaultPlan.from_json(raw)


def inject(label: str, attempt: int) -> None:
    """Fire any execution-side faults aimed at ``label``/``attempt``.

    Called by the runner in the executing process (any queue worker)
    immediately before the cell body runs.  No-op without an active
    plan.
    """
    plan = active_plan()
    if plan is None:
        return
    for fault in plan.faults:
        if fault.kind == "corrupt" or not fault.triggers(label, attempt):
            continue
        if os.environ.get("REPRO_TRACE"):
            # Which fault fired where is a deterministic fact of the
            # plan, so the trace event survives canonical projection.
            from ..obs.trace import add_event

            add_event("fault", det=True, kind=fault.kind, cell=label,
                      attempt=attempt)
        if fault.kind == "raise":
            raise InjectedFaultError(
                f"{fault.message} (cell {label}, attempt {attempt})")
        if fault.kind == "hang":
            time.sleep(fault.seconds)
        elif fault.kind == "kill":
            os.kill(os.getpid(), getattr(signal, "SIGKILL", signal.SIGTERM))


def corrupt_cache_entries(plan: FaultPlan, cells: Sequence[Cell],
                          keys: Sequence[str],
                          store: ExperimentStore) -> int:
    """Apply the plan's ``corrupt`` faults to existing store entries.

    Parent-side, before store hits are resolved: each targeted cell's
    existing entry is overwritten with garbage (via
    :meth:`~repro.store.ExperimentStore.write_raw`, so it works on any
    backend) and the subsequent
    :meth:`~repro.store.ExperimentStore.get` exercises checksum
    detection and quarantine.  Returns the number of entries corrupted.
    """
    corrupted = 0
    for cell, key in zip(cells, keys):
        if plan.for_cell(cell.label, kind="corrupt"):
            if key in store:
                store.write_raw(key, _CORRUPT_BYTES)
                corrupted += 1
    return corrupted
