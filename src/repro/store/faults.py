"""Deterministic fault injection: one plan of cell faults.

None of the sweep's resilience — cell retries, timeouts, worker deaths,
quarantine — is testable without failures on command.  A
:class:`FaultPlan` injects them on a *deterministic schedule*, never on
wall-clock state, so a plan plus a retry budget either always recovers
or always fails, and a chaos run's final stdout stays byte-identical
to a fault-free run.

The plan travels through :data:`REPRO_FAULTS <FAULTS_ENV>` (inline
JSON, or ``@/path/to/plan.json``), which worker processes inherit, so
faults trigger identically whether a cell runs on the coordinator's
thread (``jobs=1``) or in a worker process.  Each entry names one cell
(``"cell"``: a cell label) and fires on the listed 1-based
``attempts``, in the executing process, before the cell body runs:

``raise``
    Raise :class:`InjectedFaultError` (a transient cell exception).
``hang``
    Sleep ``seconds`` (default 30; pair with ``cell_timeout``).
``kill``
    ``SIGKILL`` the executing process — a dead worker the coordinator
    reaps and replaces at ``jobs > 1``, the whole run at ``jobs == 1``.
``corrupt``
    Coordinator-side, before store hits are resolved: overwrite the
    cell's *existing* store entry with garbage, exercising the
    checksum/quarantine path.  Ignores ``attempts``.

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
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import (TYPE_CHECKING, Any, Callable, Dict, List, Optional,
                    Sequence, Tuple)

from ..errors import ConfigurationError
from .local import LocalFileStore

if TYPE_CHECKING:  # repro.runner imports this package at its own init
    from ..runner.cells import Cell

__all__ = [
    "FAULTS_ENV",
    "FAULT_KINDS",
    "Fault",
    "FaultPlan",
    "InjectedFaultError",
    "active_plan",
    "corrupt_cache_entries",
    "inject_cell_faults",
]

#: Environment variable carrying the active plan (inline JSON or ``@path``).
FAULTS_ENV = "REPRO_FAULTS"

#: Cell-fault kinds.
FAULT_KINDS = ("raise", "hang", "kill", "corrupt")

#: What a ``corrupt`` fault writes over a store entry (fails the
#: checksum check by construction: no valid header).
_CORRUPT_BYTES = b"\x00injected corruption (repro.store.faults)\x00"

#: The JSON fields of a plan entry, with their conversions.
_CELL_FIELDS: Dict[str, Callable[[Any], Any]] = {
    "cell": str, "kind": str, "message": str, "seconds": float,
    "attempts": lambda v: tuple(int(a) for a in v)}


class InjectedFaultError(RuntimeError):
    """Raised by a ``raise`` fault.

    Deliberately *not* a :class:`~repro.errors.ReproError`: injected
    exceptions exercise the foreign-exception wrapping path, the one a
    genuine infrastructure failure would take.
    """


@dataclass(frozen=True)
class Fault:
    """One injected cell failure: ``kind`` (:data:`FAULT_KINDS`) hits
    the cell labelled ``cell`` on each 1-based attempt in ``attempts``
    (``corrupt`` ignores them — it applies once per sweep).  A
    ``raise`` carries ``message``; a ``hang`` sleeps ``seconds``."""

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


def _parse_entry(entry: Any) -> Fault:
    """One plan entry as a :class:`Fault`."""
    if not isinstance(entry, dict):
        raise ConfigurationError(
            f"each fault must be an object, got {entry!r}")
    unknown = sorted(set(entry) - set(_CELL_FIELDS))
    if unknown:
        raise ConfigurationError(
            f"unknown fault fields {unknown}; expected a subset of "
            f"{sorted(_CELL_FIELDS)}")
    for required in ("cell", "kind"):
        if required not in entry:
            raise ConfigurationError(
                f"fault entry is missing required field {required!r}: "
                f"{entry!r}")
    return Fault(**{name: _CELL_FIELDS[name](value)
                    for name, value in entry.items()})


@dataclass(frozen=True)
class FaultPlan:
    """An ordered collection of cell :class:`Fault`\\ s."""

    faults: Tuple[Fault, ...] = ()

    def for_cell(self, label: str,
                 kind: Optional[str] = None) -> List[Fault]:
        """Faults aimed at ``label`` (optionally of one ``kind``)."""
        return [f for f in self.faults
                if f.cell == label and (kind is None or f.kind == kind)]

    def to_json(self) -> str:
        """Serialize to the ``REPRO_FAULTS`` JSON format."""
        return json.dumps({"faults": [asdict(f) for f in self.faults]},
                          sort_keys=True)

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
        return cls(faults=tuple(_parse_entry(entry)
                                for entry in doc.get("faults", [])))


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


def inject_cell_faults(label: str, attempt: int,
                       events: Optional[List[Dict[str, Any]]]) -> None:
    """Fire any execution-side faults aimed at ``label``/``attempt``.

    Called in the executing process (the coordinator's thread or a
    forked worker) immediately before the cell body runs.  Each fault
    that fires is first appended to ``events`` (the traced attempt's
    record; ``None`` when tracing is off).  No-op without an active
    plan.
    """
    plan = active_plan()
    if plan is None:
        return
    for fault in plan.for_cell(label):
        if fault.kind == "corrupt" or not fault.triggers(label, attempt):
            continue
        if events is not None:
            # Which fault fired where is a deterministic fact of the
            # plan, so the trace event survives canonical projection.
            events.append({"name": "fault", "det": True, "kind": fault.kind,
                           "cell": label, "attempt": attempt})
        if fault.kind == "raise":
            raise InjectedFaultError(
                f"{fault.message} (cell {label}, attempt {attempt})")
        if fault.kind == "hang":
            time.sleep(fault.seconds)
        elif fault.kind == "kill":
            os.kill(os.getpid(), getattr(signal, "SIGKILL", signal.SIGTERM))


def corrupt_cache_entries(plan: FaultPlan, cells: Sequence["Cell"],
                          keys: Sequence[str],
                          store: LocalFileStore) -> int:
    """Apply the plan's ``corrupt`` faults to existing store entries.

    Coordinator-side, before store hits are resolved: each targeted
    cell's existing entry is overwritten with garbage (via
    :meth:`~repro.store.LocalFileStore.write_raw`) and the subsequent
    :meth:`~repro.store.LocalFileStore.get` exercises checksum
    detection and quarantine.  Returns the number of entries corrupted.
    """
    corrupted = 0
    for cell, key in zip(cells, keys):
        if plan.for_cell(cell.label, kind="corrupt"):
            if key in store:
                store.write_raw(key, _CORRUPT_BYTES)
                corrupted += 1
    return corrupted
