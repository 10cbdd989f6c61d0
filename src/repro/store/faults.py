"""Deterministic fault injection for the store/queue layer.

The storage counterpart of :mod:`repro.runner.faults`: none of the
fleet's storage resilience — transient-error retries
(:mod:`repro.store.retry`), lease renewal under latency, torn-write
quarantine, the coordinator's permanent-error handling — is testable
without a disk that misbehaves on command.  A :class:`StoreFaultPlan`
wraps any :class:`~repro.store.ExperimentStore` /
:class:`~repro.store.queue.WorkQueue` pair and injects failures on a
*deterministic schedule*: each fault counts the operations it matches
and fires on every ``every``-th one (capped by ``times``), or on a
seeded pseudo-random ``rate`` — never on wall-clock state, so a chaos
run's final stdout stays byte-identical to a fault-free run.

The plan travels through :data:`REPRO_STORE_FAULTS <STORE_FAULTS_ENV>`
(inline JSON, or ``@/path/to/plan.json``), which worker processes
inherit — each process wraps its own store on startup and replays the
same schedule.

Fault kinds (raised exceptions are the *real* production types, so the
classification in :mod:`repro.store.retry` is exercised, not mocked):

``busy``
    Raise ``sqlite3.OperationalError('database is locked [injected]')``
    — the transient contention error any concurrent SQLite writer can
    see.
``oserror``
    Raise ``OSError(EAGAIN)`` — a momentarily overloaded disk.
``latency``
    Sleep ``seconds`` before the operation proceeds (a slow disk; pair
    with a short ``--queue-lease`` to exercise heartbeat renewal).
``torn``
    On ``put`` only: write a *truncated* entry (the prefix of the real
    checksummed blob), then raise ``OSError(EIO)`` — a crash mid-write.
    The retry layer rewrites the entry; an unretried torn write is
    caught later by the checksum/quarantine path.
``fatal``
    Raise ``sqlite3.DatabaseError('database disk image is malformed
    [injected]')`` — a *permanent* error; workers must exit with
    :data:`repro.runner.worker.EXIT_STORE_PERMANENT`.

Plan JSON::

    {"faults": [
        {"op": "put", "kind": "busy", "every": 3, "times": 2},
        {"op": "claim", "kind": "latency", "seconds": 0.05, "every": 2},
        {"op": "get", "kind": "oserror", "rate": 0.2, "seed": 7}
    ]}

``op`` is one of :data:`STORE_FAULT_OPS` (``*`` matches any).
"""

from __future__ import annotations

import errno
import json
import os
import random
import sqlite3
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from .base import ExperimentStore, StoreProxy, encode_entry
from .queue import ItemState, QueueItem, WorkQueue, WorkQueueProxy

__all__ = [
    "STORE_FAULTS_ENV",
    "STORE_FAULT_KINDS",
    "STORE_FAULT_OPS",
    "FaultInjector",
    "FaultyQueue",
    "FaultyStore",
    "StoreFault",
    "StoreFaultPlan",
    "active_store_plan",
    "maybe_faulty_store",
]

#: Environment variable carrying the active plan (inline JSON or ``@path``).
STORE_FAULTS_ENV = "REPRO_STORE_FAULTS"

#: Recognized fault kinds.
STORE_FAULT_KINDS = ("busy", "oserror", "latency", "torn", "fatal")

#: Interceptable operations; ``*`` matches all of them.
STORE_FAULT_OPS = ("get", "put", "quarantine", "claim", "ack", "nack",
                   "renew", "publish", "snapshot", "*")

_PLAN_FIELDS = frozenset(
    {"op", "kind", "every", "times", "seconds", "rate", "seed", "message"})


@dataclass(frozen=True)
class StoreFault:
    """One injected storage failure on a deterministic schedule.

    Parameters
    ----------
    op:
        Which store/queue operation to intercept (:data:`STORE_FAULT_OPS`).
    kind:
        One of :data:`STORE_FAULT_KINDS`.
    every:
        Fire on every ``every``-th matching operation (1 = every call).
        Mutually exclusive with ``rate``.
    times:
        Stop firing after this many injections (``None`` = unlimited).
    seconds:
        Sleep duration for ``latency`` faults.
    rate:
        Fire with this seeded pseudo-random probability per matching
        operation instead of the modular ``every`` schedule.
    seed:
        Seed of the fault's private RNG (``rate`` mode only) — the
        schedule is a pure function of (seed, call sequence).
    message:
        Text carried inside the injected exception.
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
        if self.op not in STORE_FAULT_OPS:
            raise ConfigurationError(
                f"unknown store-fault op {self.op!r}; expected one of "
                f"{list(STORE_FAULT_OPS)}")
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


@dataclass(frozen=True)
class StoreFaultPlan:
    """An ordered collection of :class:`StoreFault`\\ s."""

    faults: Tuple[StoreFault, ...] = ()

    def __bool__(self) -> bool:
        return bool(self.faults)

    def to_json(self) -> str:
        """Serialize to the ``REPRO_STORE_FAULTS`` JSON format."""
        entries: List[Dict[str, Any]] = []
        for f in self.faults:
            entry: Dict[str, Any] = {
                "op": f.op, "kind": f.kind, "every": f.every,
                "seconds": f.seconds, "seed": f.seed, "message": f.message}
            if f.times is not None:
                entry["times"] = f.times
            if f.rate is not None:
                entry["rate"] = f.rate
            entries.append(entry)
        return json.dumps({"faults": entries}, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "StoreFaultPlan":
        """Parse a plan document, failing loudly on malformed input."""
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"store-fault plan is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict) or not isinstance(
                doc.get("faults", []), list):
            raise ConfigurationError(
                "store-fault plan must be an object with a 'faults' list")
        faults: List[StoreFault] = []
        for entry in doc.get("faults", []):
            if not isinstance(entry, dict):
                raise ConfigurationError(
                    f"each store fault must be an object, got {entry!r}")
            unknown = sorted(set(entry) - _PLAN_FIELDS)
            if unknown:
                raise ConfigurationError(
                    f"unknown store-fault fields {unknown}; expected a "
                    f"subset of {sorted(_PLAN_FIELDS)}")
            try:
                op = str(entry["op"])
                kind = str(entry["kind"])
            except KeyError as missing:
                raise ConfigurationError(
                    f"store-fault entry is missing required field "
                    f"{missing}") from missing
            times = entry.get("times")
            rate = entry.get("rate")
            faults.append(StoreFault(
                op=op, kind=kind,
                every=int(entry.get("every", 1)),
                times=None if times is None else int(times),
                seconds=float(entry.get("seconds", 0.05)),
                rate=None if rate is None else float(rate),
                seed=int(entry.get("seed", 0)),
                message=str(entry.get("message", "injected store fault"))))
        return cls(faults=tuple(faults))


def active_store_plan() -> Optional[StoreFaultPlan]:
    """The plan named by ``$REPRO_STORE_FAULTS``, or ``None`` when unset.

    ``@/path/to/plan.json`` loads from a file; anything else parses as
    inline JSON.  (Unlike cell faults, the plan is read once per
    wrapper — injection schedules are stateful counters, so a store
    keeps the plan it was wrapped with.)
    """
    raw = os.environ.get(STORE_FAULTS_ENV)
    if not raw:
        return None
    if raw.startswith("@"):
        path = Path(raw[1:])
        try:
            raw = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigurationError(
                f"cannot read store-fault plan file {path}: {exc}") from exc
    return StoreFaultPlan.from_json(raw)


class FaultInjector:
    """Stateful schedule evaluator shared by a wrapped store + queues.

    Counts matching operations per fault and decides, deterministically,
    which faults fire on each call.  ``injected`` tallies fired faults
    by ``"op:kind"`` for tests and diagnostics.
    """

    def __init__(self, plan: StoreFaultPlan) -> None:
        self.plan = plan
        self.injected: Dict[str, int] = {}
        self._seen = [0] * len(plan.faults)
        self._fired = [0] * len(plan.faults)
        self._rngs = [random.Random(f.seed) for f in plan.faults]

    def fire(self, op: str) -> List[StoreFault]:
        """Faults firing on this occurrence of ``op``, in plan order."""
        fired: List[StoreFault] = []
        for i, fault in enumerate(self.plan.faults):
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

    def raise_or_wait(self, op: str,
                      fired: Sequence[StoreFault]) -> None:
        """Apply non-torn faults: sleep latencies, raise the first error."""
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

    def inject(self, op: str) -> List[StoreFault]:
        """:meth:`fire` + :meth:`raise_or_wait`; returns torn faults."""
        fired = self.fire(op)
        torn = [f for f in fired if f.kind == "torn"]
        self.raise_or_wait(op, fired)
        return torn


class FaultyQueue(WorkQueueProxy):
    """A :class:`~repro.store.queue.WorkQueue` that injects faults."""

    def __init__(self, inner: WorkQueue, injector: FaultInjector) -> None:
        super().__init__(inner)
        self.injector = injector

    def publish(self, items: Sequence[QueueItem]) -> int:
        self.injector.inject("publish")
        return self.inner.publish(items)

    def claim(self, worker: str, lease: float) -> Optional[QueueItem]:
        self.injector.inject("claim")
        return self.inner.claim(worker, lease)

    def renew(self, item_id: int, worker: str, lease: float) -> bool:
        self.injector.inject("renew")
        return self.inner.renew(item_id, worker, lease)

    def ack(self, item_id: int, elapsed: float = 0.0,
            result: Optional[bytes] = None) -> None:
        self.injector.inject("ack")
        self.inner.ack(item_id, elapsed, result)

    def nack(self, item_id: int, error_type: str, message: str,
             error: bytes = b"") -> bool:
        self.injector.inject("nack")
        return self.inner.nack(item_id, error_type, message, error)

    def snapshot(self) -> Dict[int, ItemState]:
        self.injector.inject("snapshot")
        return self.inner.snapshot()


class FaultyStore(StoreProxy):
    """An :class:`~repro.store.ExperimentStore` that injects faults.

    Queues opened through :meth:`make_queue` share this store's
    injector, so one plan's counters cover the whole surface.
    """

    def __init__(self, inner: ExperimentStore,
                 plan: StoreFaultPlan) -> None:
        super().__init__(inner)
        self.injector = FaultInjector(plan)

    def get(self, key: str) -> Tuple[bool, Any]:
        self.injector.inject("get")
        return self.inner.get(key)

    def put(self, key: str, value: Any) -> None:
        torn = self.injector.inject("put")
        if torn:
            # A crash mid-write: persist a truncated prefix of the real
            # entry, then fail the call like the kernel would.
            blob = encode_entry(value)
            self.inner.write_raw(key, blob[:max(len(blob) // 2, 1)])
            raise OSError(errno.EIO, f"{torn[0].message} [torn put]")
        self.inner.put(key, value)

    def quarantine(self, key: str) -> Optional[str]:
        self.injector.inject("quarantine")
        return self.inner.quarantine(key)

    def make_queue(self, name: str) -> WorkQueue:
        return FaultyQueue(self.inner.make_queue(name), self.injector)


def maybe_faulty_store(store: ExperimentStore) -> ExperimentStore:
    """Wrap ``store`` when ``$REPRO_STORE_FAULTS`` names a plan.

    The coordinator and every worker call this on the store they just
    opened; without a plan the store passes through untouched.
    """
    plan = active_store_plan()
    if plan is None or not plan:
        return store
    return FaultyStore(store, plan)
