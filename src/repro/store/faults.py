"""Deterministic fault injection: one plan for cells and store operations.

None of the sweep's resilience — cell retries, timeouts, worker deaths,
quarantine, transient store-error retries, torn-write recovery,
permanent-error handling — is testable without failures on command.  A :class:`FaultPlan` injects them on a
*deterministic schedule*, never on wall-clock state, so a plan plus a
retry budget either always recovers or always fails, and a chaos run's
final stdout stays byte-identical to a fault-free run.

The plan travels through :data:`REPRO_FAULTS <FAULTS_ENV>` (inline
JSON, or ``@/path/to/plan.json``), which worker processes inherit, so
faults trigger identically whether a cell runs on the coordinator's
thread (``jobs=1``) or in a worker process.  Each entry names exactly
one target.

**Cell faults** (``"cell"``: a cell label) fire on the listed 1-based
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

**Store-op faults** (``"op"``: one of :data:`STORE_OPS`, or ``"*"`` for
all of them) fire inside the store-retry wrapper
(:class:`~repro.store.retry.RetryingStore`) as the first step of every
attempt.  Each counts the operations it matches in its process and
fires on every ``every``-th one (capped by ``times``), or on a seeded
pseudo-random ``rate``.  Raised exceptions are the *real* production
types, so the classification in :mod:`repro.store.retry` is exercised,
not mocked:

``busy``
    ``sqlite3.OperationalError('database is locked ...')`` — transient
    lock contention.
``oserror``
    ``OSError(EAGAIN)`` — a momentarily overloaded disk.
``latency``
    Sleep ``seconds`` (default 0.05) first — a slow disk.
``torn``
    On ``put`` only: write the first half of the checksummed entry,
    then raise ``OSError(EIO)`` — a crash mid-write, which the retry
    rewrites and the checksum catches if unretried.
``fatal``
    ``sqlite3.DatabaseError('database disk image is malformed ...')`` —
    a *permanent* error; workers exit with
    :data:`repro.runner.worker.EXIT_STORE_PERMANENT`.

Plan JSON::

    {"faults": [
        {"cell": "fig3[0.6]", "kind": "raise", "attempts": [1]},
        {"cell": "fig3[0.7]", "kind": "kill"},
        {"cell": "fig3[0.8]", "kind": "corrupt"},
        {"op": "put", "kind": "busy", "every": 3, "times": 2},
        {"op": "claim", "kind": "latency", "seconds": 0.05, "every": 2},
        {"op": "get", "kind": "oserror", "rate": 0.2, "seed": 7}
    ]}
"""

from __future__ import annotations

import errno
import json
import os
import random
import signal
import sqlite3
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import (TYPE_CHECKING, Any, Callable, Dict, List, Optional,
                    Sequence, Tuple, Union)

from ..errors import ConfigurationError
from .base import ExperimentStore

if TYPE_CHECKING:  # repro.runner imports this package at its own init
    from ..runner.cells import Cell

__all__ = [
    "FAULTS_ENV",
    "FAULT_KINDS",
    "STORE_FAULT_KINDS",
    "STORE_OPS",
    "Fault",
    "FaultInjector",
    "FaultPlan",
    "InjectedFaultError",
    "StoreFault",
    "active_plan",
    "corrupt_cache_entries",
    "inject_cell_faults",
]

#: Environment variable carrying the active plan (inline JSON or ``@path``).
FAULTS_ENV = "REPRO_FAULTS"

#: Cell-fault kinds.
FAULT_KINDS = ("raise", "hang", "kill", "corrupt")

#: Store-op fault kinds.
STORE_FAULT_KINDS = ("busy", "oserror", "latency", "torn", "fatal")

#: Every operation the store-retry wrapper guards — the names its
#: retries report and a fault's ``op`` may name (``"*"`` matches all).
STORE_OPS = (
    "get", "put", "write_raw", "quarantine", "contains", "len",
    "quarantined_count",
    "publish", "claim", "expire", "ack", "nack", "clear_result",
    "overdue", "requeue_failed", "reset_items", "snapshot",
)

#: What a ``corrupt`` fault writes over a store entry (fails the
#: checksum check by construction: no valid header).
_CORRUPT_BYTES = b"\x00injected corruption (repro.store.faults)\x00"

#: The JSON fields of each entry family, with their conversions.
_CELL_FIELDS: Dict[str, Callable[[Any], Any]] = {
    "cell": str, "kind": str, "message": str, "seconds": float,
    "attempts": lambda v: tuple(int(a) for a in v)}
_OP_FIELDS: Dict[str, Callable[[Any], Any]] = {
    "op": str, "kind": str, "message": str, "seconds": float,
    "every": int, "seed": int,
    "times": lambda v: None if v is None else int(v),
    "rate": lambda v: None if v is None else float(v)}


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


@dataclass(frozen=True)
class StoreFault:
    """One injected store-operation failure on a deterministic schedule.

    ``kind`` (:data:`STORE_FAULT_KINDS`) hits operation ``op``
    (:data:`STORE_OPS`, or ``"*"``) on every ``every``-th matching call
    or, with ``rate`` set, with that probability drawn from a private
    RNG seeded with ``seed`` — either way a pure function of the call
    sequence — until it has fired ``times`` times (``None``: no cap).
    A ``latency`` sleeps ``seconds``; raised errors carry ``message``.
    """

    op: str
    kind: str
    every: int = 1
    times: Optional[int] = None
    seconds: float = 0.05
    rate: Optional[float] = None
    seed: int = 0
    message: str = "injected store fault"

    def __post_init__(self) -> None:
        if self.op != "*" and self.op not in STORE_OPS:
            raise ConfigurationError(
                f"unknown store-fault op {self.op!r}; expected one of "
                f"{list(STORE_OPS) + ['*']}")
        if self.kind not in STORE_FAULT_KINDS:
            raise ConfigurationError(
                f"unknown store-fault kind {self.kind!r}; expected one of "
                f"{list(STORE_FAULT_KINDS)}")
        if self.every < 1:
            raise ConfigurationError(
                f"store-fault every must be >= 1, got {self.every}")
        if self.times is not None and self.times < 0:
            raise ConfigurationError(
                f"store-fault times must be >= 0, got {self.times}")
        if self.seconds < 0:
            raise ConfigurationError(
                f"store-fault seconds must be non-negative, "
                f"got {self.seconds!r}")
        if self.rate is not None and not 0.0 < self.rate <= 1.0:
            raise ConfigurationError(
                f"store-fault rate must be in (0, 1], got {self.rate!r}")
        if self.kind == "torn" and self.op not in ("put", "*"):
            raise ConfigurationError(
                f"torn faults only apply to 'put', got op {self.op!r}")

    def matches(self, op: str) -> bool:
        return self.op == "*" or self.op == op


def _parse_entry(entry: Any) -> Union[Fault, StoreFault]:
    """One plan entry as a :class:`Fault` or a :class:`StoreFault`."""
    if not isinstance(entry, dict):
        raise ConfigurationError(
            f"each fault must be an object, got {entry!r}")
    if "cell" in entry and "op" in entry:
        raise ConfigurationError(
            f"fault entry names both a 'cell' and an 'op' target; "
            f"split it in two: {entry!r}")
    cls: Any
    if "cell" in entry:
        cls, family, fields, foreign = (
            Fault, "fault", _CELL_FIELDS, _OP_FIELDS)
    elif "op" in entry:
        cls, family, fields, foreign = (
            StoreFault, "store-fault", _OP_FIELDS, _CELL_FIELDS)
    else:
        raise ConfigurationError(
            f"fault entry is missing required field 'cell' or 'op': "
            f"{entry!r}")
    borrowed = sorted(set(entry) & set(foreign) - set(fields))
    if borrowed:
        raise ConfigurationError(
            f"{family} entry carries fields of the other family "
            f"{borrowed}; expected a subset of {sorted(fields)}")
    unknown = sorted(set(entry) - set(fields))
    if unknown:
        raise ConfigurationError(
            f"unknown {family} fields {unknown}; expected a subset of "
            f"{sorted(fields)}")
    if "kind" not in entry:
        raise ConfigurationError(
            f"{family} entry is missing required field 'kind'")
    return cls(**{name: fields[name](value)
                  for name, value in entry.items()})


@dataclass(frozen=True)
class FaultPlan:
    """An ordered collection of cell :class:`Fault`\\ s and
    :class:`StoreFault`\\ s."""

    faults: Tuple[Union[Fault, StoreFault], ...] = ()

    def for_cell(self, label: str,
                 kind: Optional[str] = None) -> List[Fault]:
        """Cell faults aimed at ``label`` (optionally of one ``kind``)."""
        return [f for f in self.faults
                if isinstance(f, Fault) and f.cell == label
                and (kind is None or f.kind == kind)]

    def injector(self) -> Optional[FaultInjector]:
        """A fresh injector for the store-op faults; ``None`` without
        any."""
        ops = [f for f in self.faults if isinstance(f, StoreFault)]
        return FaultInjector(ops) if ops else None

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
    long-lived workers never hold a stale plan (a wrapped store keeps
    the injector it was built with: op schedules are stateful).
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


def inject_cell_faults(label: str, attempt: int) -> None:
    """Fire any execution-side faults aimed at ``label``/``attempt``.

    Called in the executing process (any queue worker) immediately
    before the cell body runs.  No-op without an active plan.
    """
    plan = active_plan()
    if plan is None:
        return
    for fault in plan.for_cell(label):
        if fault.kind == "corrupt" or not fault.triggers(label, attempt):
            continue
        if os.environ.get("REPRO_TELEMETRY"):
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


def corrupt_cache_entries(plan: FaultPlan, cells: Sequence["Cell"],
                          keys: Sequence[str],
                          store: ExperimentStore) -> int:
    """Apply the plan's ``corrupt`` faults to existing store entries.

    Coordinator-side, before store hits are resolved: each targeted
    cell's existing entry is overwritten with garbage (via
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


class FaultInjector:
    """Stateful schedule evaluator for one process's store-op faults.

    Counts matching operations per fault and decides, deterministically,
    which faults fire on each call.  ``injected`` tallies fired faults
    by ``"op:kind"`` for tests and diagnostics.  A wrapped store and the
    queues it opens share one injector, so one plan's counters cover
    the whole surface; ``_lock`` makes each :meth:`fire` one atomic
    step of the schedule, whichever thread calls it.
    """

    def __init__(self, faults: Sequence[StoreFault]) -> None:
        self.faults = tuple(faults)
        self._lock = threading.Lock()
        self.injected: Dict[str, int] = {}  # reprolint: guarded-by=_lock
        self._seen = [0] * len(self.faults)  # reprolint: guarded-by=_lock
        self._fired = [0] * len(self.faults)  # reprolint: guarded-by=_lock
        self._rngs = [  # reprolint: guarded-by=_lock
            random.Random(f.seed) for f in self.faults]

    def fire(self, op: str) -> List[StoreFault]:
        """Faults firing on this occurrence of ``op``, in plan order."""
        fired: List[StoreFault] = []
        with self._lock:
            for i, fault in enumerate(self.faults):
                if not fault.matches(op):
                    continue
                self._seen[i] += 1
                if fault.times is not None and self._fired[i] >= fault.times:
                    continue
                if fault.rate is not None:
                    due = self._rngs[i].random() < fault.rate
                else:
                    due = self._seen[i] % fault.every == 0
                if due:
                    self._fired[i] += 1
                    key = f"{op}:{fault.kind}"
                    self.injected[key] = self.injected.get(key, 0) + 1
                    fired.append(fault)
        return fired

    def inject(self, op: str,
               tear: Optional[Callable[[], None]] = None) -> None:
        """Fire this occurrence of ``op``: sleep latencies, raise the
        first error; a ``torn`` fault calls ``tear`` (which writes the
        truncated entry) and raises ``EIO``.  Operations that write no
        entry pass no ``tear``, and torn faults skip them."""
        fired = self.fire(op)
        for fault in fired:
            if fault.kind == "latency":
                time.sleep(fault.seconds)
        for fault in fired:
            if fault.kind == "busy":
                raise sqlite3.OperationalError(
                    f"database is locked [{fault.message}: {op}]")
            if fault.kind == "oserror":
                raise OSError(errno.EAGAIN,
                              f"{fault.message} [{op}]")
            if fault.kind == "fatal":
                raise sqlite3.DatabaseError(
                    f"database disk image is malformed "
                    f"[{fault.message}: {op}]")
        torn = [f for f in fired if f.kind == "torn"]
        if torn and tear is not None:
            # A crash mid-write: the truncated prefix is on disk, and
            # the call fails like the kernel would.
            tear()
            raise OSError(errno.EIO, f"{torn[0].message} [torn {op}]")
