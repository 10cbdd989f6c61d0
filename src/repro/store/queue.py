"""Claim/ack/requeue work queue over an experiment store.

The queue is how every sweep executes: the coordinator
(:func:`repro.runner.run_cells`) publishes one item per pending cell
(the pickled cell rides along as an opaque payload), workers claim
items, execute them and ack with the pickled result, and the
coordinator collects each result from its row, persists it to the
experiment store and clears the row's copy.  Workers are the
coordinator's own thread (``--jobs 1``), processes it forks
(``--jobs N``), or ``python -m repro.runner.worker`` processes joining
from outside.

The queue always lives in SQLite (:class:`SQLiteWorkQueue`): a
``sqlite:`` store's own database, a sidecar database under a
``local:`` store's ``aux_dir("queue")``, or a temporary database when
the sweep has no store.

Protocol:

* **claim** — atomically take the lowest-id runnable item and hold a
  wall-clock *lease* on it.  An item whose lease expired is claimable
  again (its worker is presumed dead); each such steal charges the item
  a *loss*, and an item lost more than its loss budget times fails
  permanently — a poison cell cannot wedge the sweep.
* **renew** — extend a held lease from a worker heartbeat.  A live
  worker running a cell longer than its lease renews periodically and
  is never stolen from; only a worker that *stops* renewing (crashed,
  killed, wedged) loses its item.  Renewal is guarded by the holder's
  identity, so a stolen item cannot be revived by its old worker.
* **expire** — the coordinator reaped a dead worker: its leases end
  now, so the next claim steals the item instead of waiting out the
  lease, and the item's next attempt gets a fresh attempt number.
* **ack** — the attempt succeeded; the item is done and its row keeps
  the pickled result until the coordinator collects it.
* **nack** — the attempt raised; the error (with the pickled exception)
  joins the item's history, and the item returns to ``pending`` until
  its ``max_attempts`` budget (retries + 1) is spent, then it is marked
  ``failed``.  A returned item is not claimable before its backoff has
  passed: the publisher fixes each item's ``retry_delays``, so every
  worker — forked or joining from outside — honors the same schedule.

Delivery is **at-least-once**: a worker that stalls past its lease may
race a stealer, and both may execute the same cell.  That is safe by
construction — cells are deterministic (the runner reseeds per attempt
from the cell key), so both produce byte-identical results.

Every sweep has a queue of its own.  Its rows live under
``<name>@<sweep id>``, where the sweep id is a prefix of the
fingerprint of the sweep's ordered cell keys (:func:`sweep_queue`), so
two different sweeps published under one name never share a row, and
every run of one sweep meets the same rows: publishing is idempotent
and keeps ``done`` states (the resume path), and two coordinators of
the same sweep cooperate on it.  A handle opened by the plain name
(an outside worker, the status CLI) follows the sweep most recently
published under that name; publishing drops the rows of the name's
other sweeps once every item there is done and collected.

Wall-clock note: leases deliberately use ``time.time`` — monotonic
clocks are per-process and leases must be comparable *across* worker
processes.  Lease timing schedules work; it never feeds results or
cache keys (reprolint DET002 sanctions this file for exactly that
reason).
"""

from __future__ import annotations

import hashlib
import json
import pickle
import sqlite3
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Any, Dict, List, NamedTuple, Optional,
                    Sequence, Tuple)

if TYPE_CHECKING:  # runtime-free: the sqlite backend imports this module
    from .sqlite import SQLiteStore

__all__ = [
    "AttemptError",
    "ItemState",
    "QueueItem",
    "WorkQueue",
    "SQLiteWorkQueue",
    "sweep_fingerprint",
    "sweep_queue",
]

#: Item lifecycle states.
STATUSES = ("pending", "claimed", "done", "failed")

#: Error type recorded when an item exhausts its loss budget (workers
#: kept dying while holding its lease).
LOST_ERROR_TYPE = "WorkerLost"


@dataclass(frozen=True)
class QueueItem:
    """One published unit of work: a pending sweep cell.

    ``item_id`` is the cell's index within the sweep (stable across
    runs of the same config — that is what makes resume work);
    ``payload`` is the pickled :class:`~repro.runner.cells.Cell`,
    opaque to the queue.  ``attempts`` counts nacked attempts and
    ``deaths`` attempts whose worker died; ``stolen`` is stamped by
    :meth:`~WorkQueue.claim` when this claim took the item from an
    expired lease — observability only (trace events, dashboards),
    never part of queue identity, and always ``False`` on rows returned
    by ``peek``.  ``retry_delays[n - 1]`` is how many seconds the item
    waits after its ``n``-th nack before it may be claimed again
    (missing entries mean no wait); only :meth:`~WorkQueue.publish`
    reads it.
    """

    item_id: int
    key: str
    label: str
    payload: bytes
    attempts: int = 0
    max_attempts: int = 1
    stolen: bool = False
    deaths: int = 0
    retry_delays: Tuple[float, ...] = ()

    @property
    def attempt(self) -> int:
        """The 1-based number of the attempt this claim runs.

        A steal from a live-but-slow worker re-runs the *same* attempt
        (at-least-once delivery; trace spans deduplicate), while an
        attempt that ended in a nack or a reaped worker's death counts.
        """
        return self.attempts + self.deaths + 1

    @property
    def loss_budget(self) -> int:
        """How many lease expiries this item survives (cf.
        :attr:`repro.runner.resilience.RetryPolicy.loss_budget`)."""
        return max(self.max_attempts - 1, 1)


class AttemptError(NamedTuple):
    """One failed attempt, as recorded by :meth:`WorkQueue.nack`.

    ``error`` is the pickled exception (empty when it would not
    pickle); ``error_type`` and ``message`` describe it either way.
    """

    attempt: int
    error_type: str
    message: str
    error: bytes = b""


@dataclass
class ItemState:
    """Mutable status of one published item (payload excluded).

    ``worker`` / ``lease_expires`` identify the current claim holder
    (empty / ``0.0`` outside ``claimed``); ``losses`` counts lease
    steals, ``deaths`` the leases the coordinator expired for a dead
    worker, and ``renewals`` heartbeat renewals — together they tell a
    live long cell (renewals, no losses) from a dead worker (losses).
    ``result`` is the pickled result of an acked attempt until the
    coordinator collects it; ``errors`` every failed attempt, in order.
    """

    status: str = "pending"
    attempts: int = 0
    losses: int = 0
    renewals: int = 0
    error_type: str = ""
    message: str = ""
    elapsed: float = 0.0
    worker: str = ""
    lease_expires: float = 0.0
    deaths: int = 0
    result: Optional[bytes] = None
    errors: Tuple[AttemptError, ...] = ()


#: Hex digits of a sweep fingerprint that name the sweep's queue rows.
SWEEP_ID_LEN = 16


def _pairs_fingerprint(pairs: Sequence[Tuple[int, str]]) -> str:
    blob = json.dumps([[item_id, key] for item_id, key in sorted(pairs)],
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def sweep_fingerprint(items: Sequence[QueueItem]) -> str:
    """Identity of a published sweep: its ordered (index, key) pairs.

    Changed config or changed code changes the keys, hence the sweep:
    it gets a queue of its own.
    """
    return _pairs_fingerprint([(item.item_id, item.key) for item in items])


def sweep_queue(name: str, keys: Sequence[str]) -> str:
    """The queue, under ``name``, of the sweep whose cells have ``keys``.

    ``name@<sweep id>``: a name of its own for every sweep, shared by
    every run of that sweep.  A coordinator opens its queue by this
    name, so publishing only the pending cells of a resumed sweep still
    finds the rows of the earlier run; publishing all the cells through
    a plain-name handle lands in the same rows.
    """
    sweep = _pairs_fingerprint(list(enumerate(keys)))[:SWEEP_ID_LEN]
    return f"{name}@{sweep}"


class WorkQueue(ABC):
    """Abstract claim/ack/requeue queue; one instance per sweep name."""

    @abstractmethod
    def publish(self, items: Sequence[QueueItem]) -> int:
        """Idempotently enqueue ``items``; returns how many were new.

        Items already present keep their state — that is the resume
        path — but take the new payload, attempt budget and retry
        delays.  A queue opened as ``name@<sweep id>`` publishes into
        that sweep; one opened by the plain name publishes ``items`` as
        the sweep they make up (:func:`sweep_fingerprint`) and follows
        it from then on.
        """

    @abstractmethod
    def claim(self, worker: str, lease: float) -> Optional[QueueItem]:
        """Atomically claim the lowest-id runnable item, or ``None``.

        Runnable means ``pending`` and past its retry backoff, or
        ``claimed`` with an expired lease (charged as a loss;
        over-budget items fail instead).
        """

    @abstractmethod
    def renew(self, item_id: int, worker: str, lease: float) -> bool:
        """Extend ``worker``'s lease on ``item_id`` by ``lease`` seconds.

        The heartbeat operation: succeeds (``True``) only while the
        item is still ``claimed`` *by this worker* — after a steal the
        old holder's renewals return ``False`` and it must abandon the
        item's bookkeeping (finishing the cell itself stays safe:
        delivery is at-least-once).  A renewal past expiry but before
        any steal revives the lease — the worker is demonstrably alive,
        just late.
        """

    @abstractmethod
    def expire(self, worker: str) -> List[int]:
        """End every lease ``worker`` holds; returns the item ids.

        The coordinator calls this for a worker it reaped dead: the
        items become stealable at once, and each counts a death.
        """

    @abstractmethod
    def ack(self, item_id: int, elapsed: float = 0.0,
            result: Optional[bytes] = None) -> None:
        """Mark ``item_id`` done, keeping its pickled ``result``."""

    @abstractmethod
    def nack(self, item_id: int, error_type: str, message: str,
             error: bytes = b"") -> bool:
        """Record a failed attempt (``error``: the pickled exception);
        ``True`` when the item re-queued — claimable once the retry
        delay its publisher set for this attempt has passed — ``False``
        when its attempt budget is spent (now ``failed``)."""

    @abstractmethod
    def clear_result(self, item_id: int) -> None:
        """Drop ``item_id``'s stored result (it is in the store now)."""

    @abstractmethod
    def overdue(self, timeout: float) -> List[Tuple[int, str]]:
        """``(item_id, worker)`` of every claim older than ``timeout``
        seconds."""

    @abstractmethod
    def requeue_failed(self) -> int:
        """Reset every ``failed`` item to a fresh ``pending`` state.

        The queue analogue of rerunning a ``keep_going`` sweep after a
        failure manifest: only the failed cells execute again (done
        items keep their results).  Returns how many were reset.
        """

    @abstractmethod
    def reset_items(self, item_ids: Sequence[int]) -> int:
        """Reset the given published items to a fresh ``pending`` state.

        The store, not the queue, is the durability source of truth:
        the coordinator uses this to re-run items still marked ``done``
        whose results have vanished from the store (purged, or
        quarantined as corrupt).  Unknown ids are ignored; returns how
        many items were reset.
        """

    @abstractmethod
    def snapshot(self) -> Dict[int, ItemState]:
        """Current state of every published item, by id."""

    @abstractmethod
    def peek(self, item_id: int) -> Optional[QueueItem]:
        """The published item (payload included) without claiming it.

        Inspection hook for the status CLI (``python -m repro.store``);
        ``None`` for unknown ids.
        """

    @abstractmethod
    def clear(self) -> None:
        """Drop every item of this queue's sweep."""

    def counts(self) -> Dict[str, int]:
        """Item counts by status (every status always present)."""
        out = {status: 0 for status in STATUSES}
        for state in self.snapshot().values():
            out[state.status] = out.get(state.status, 0) + 1
        return out

    def unfinished(self) -> int:
        """Items not yet ``done`` or ``failed``."""
        counts = self.counts()
        return counts["pending"] + counts["claimed"]


#: Column assignments that return an item to a freshly published state.
_FRESH = ("status = 'pending', attempts = 0, losses = 0, renewals = 0, "
          "deaths = 0, error_type = '', message = '', elapsed = 0, "
          "worker = '', lease_expires = 0, claimed_at = 0, result = NULL, "
          "errors = NULL, not_before = 0")


def _load_errors(blob: Optional[bytes]) -> List[AttemptError]:
    return [AttemptError(*entry) for entry in pickle.loads(blob)] \
        if blob else []


class SQLiteWorkQueue(WorkQueue):
    """Queue rows in a SQLite database (``work_queue`` table).

    The rows of sweep ``S`` published under ``name`` carry ``queue =
    'name@S'``; ``queue_meta`` maps each plain name to its most recently
    published sweep.  Claims run inside ``BEGIN IMMEDIATE``
    transactions, so concurrent workers on one database file serialize
    through SQLite's write lock; the store's WAL mode keeps readers
    unblocked meanwhile.
    """

    def __init__(self, store: "SQLiteStore", name: str) -> None:
        self.store = store
        self.name, _, sweep = name.partition("@")
        #: A handle opened as ``name@sweep`` never leaves that sweep.
        self.pinned = bool(sweep)
        #: The sweep this handle works on; ``None`` until a publish or
        #: the first look at ``queue_meta`` settles it.
        self.sweep: Optional[str] = sweep or None

    def _rows(self) -> str:
        """The ``queue`` value of this handle's rows (``""``, which no
        row has, while nothing is published under the name)."""
        if self.sweep is None:
            found = self.store.query(
                "SELECT fingerprint FROM queue_meta WHERE queue = ?",
                (self.name,))
            if not found:
                return ""
            self.sweep = str(found[0][0])
        return f"{self.name}@{self.sweep}"

    def publish(self, items: Sequence[QueueItem]) -> int:
        if not self.pinned:
            self.sweep = sweep_fingerprint(items)[:SWEEP_ID_LEN]
        rows = self._rows()
        statements: List[Tuple[str, Tuple[Any, ...]]] = [
            ("INSERT OR REPLACE INTO queue_meta (queue, fingerprint) "
             "VALUES (?, ?)", (self.name, self.sweep)),
            # The name's other sweeps are dropped once they are over:
            # every item done and its result collected.
            ("DELETE FROM work_queue WHERE queue IN ("
             "SELECT queue FROM work_queue "
             "WHERE substr(queue, 1, ?) = ? AND queue != ? "
             "GROUP BY queue "
             "HAVING MAX(status != 'done' OR result IS NOT NULL) = 0)",
             (len(self.name) + 1, f"{self.name}@", rows))]
        statements += [
            ("INSERT INTO work_queue "
             "(queue, item_id, key, label, payload, max_attempts, "
             "retry_delays) VALUES (?, ?, ?, ?, ?, ?, ?) "
             "ON CONFLICT (queue, item_id) DO UPDATE SET "
             "label = excluded.label, payload = excluded.payload, "
             "max_attempts = excluded.max_attempts, "
             "retry_delays = excluded.retry_delays",
             (rows, item.item_id, item.key, item.label,
              sqlite3.Binary(item.payload), item.max_attempts,
              json.dumps(list(item.retry_delays))))
            for item in items]
        before = self._count_items()
        self.store.transaction(statements)
        return self._count_items() - before

    def _count_items(self) -> int:
        return int(self.store.query(
            "SELECT COUNT(*) FROM work_queue WHERE queue = ?",
            (self._rows(),))[0][0])

    def claim(self, worker: str, lease: float) -> Optional[QueueItem]:
        rows = self._rows()
        while True:
            now = time.time()
            with self.store.locked() as conn:
                conn.execute("BEGIN IMMEDIATE")
                try:
                    row = conn.execute(
                        "SELECT item_id, key, label, payload, attempts, "
                        "max_attempts, status, losses, deaths "
                        "FROM work_queue "
                        "WHERE queue = ? AND ((status = 'pending' AND "
                        "not_before <= ?) OR "
                        "(status = 'claimed' AND lease_expires < ?)) "
                        "ORDER BY item_id LIMIT 1",
                        (rows, now, now)).fetchone()
                    if row is None:
                        conn.execute("COMMIT")
                        return None
                    (item_id, key, label, payload, attempts,
                     max_attempts, status, losses, deaths) = row
                    item = QueueItem(
                        item_id=int(item_id), key=key, label=label,
                        payload=bytes(payload), attempts=int(attempts),
                        max_attempts=int(max_attempts),
                        stolen=(status == "claimed"), deaths=int(deaths))
                    if status == "claimed":
                        # Lease expired under another worker: a loss.
                        losses = int(losses) + 1
                        if losses > item.loss_budget:
                            conn.execute(
                                "UPDATE work_queue SET status = 'failed', "
                                "losses = ?, error_type = ?, message = ? "
                                "WHERE queue = ? AND item_id = ?",
                                (losses, LOST_ERROR_TYPE,
                                 f"lease on {label} expired {losses} "
                                 f"times (worker killed or died?)",
                                 rows, item_id))
                            conn.execute("COMMIT")
                            continue
                    conn.execute(
                        "UPDATE work_queue SET status = 'claimed', "
                        "worker = ?, lease_expires = ?, claimed_at = ?, "
                        "losses = ? WHERE queue = ? AND item_id = ?",
                        (worker, now + lease, now, int(losses),
                         rows, item_id))
                    conn.execute("COMMIT")
                    return item
                except BaseException:
                    conn.execute("ROLLBACK")
                    raise

    def renew(self, item_id: int, worker: str, lease: float) -> bool:
        rows = self._rows()
        now = time.time()
        with self.store.locked() as conn:
            cursor = conn.execute(
                "UPDATE work_queue SET lease_expires = ?, "
                "renewals = renewals + 1 "
                "WHERE queue = ? AND item_id = ? AND status = 'claimed' "
                "AND worker = ?",
                (now + lease, rows, item_id, worker))
            return cursor.rowcount == 1

    def expire(self, worker: str) -> List[int]:
        held = "queue = ? AND status = 'claimed' AND worker = ?"
        params = (self._rows(), worker)
        rows = self.store.query(
            f"SELECT item_id FROM work_queue WHERE {held}", params)
        self.store.execute(
            f"UPDATE work_queue SET lease_expires = 0, "
            f"deaths = deaths + 1 WHERE {held}", params)
        return sorted(int(r[0]) for r in rows)

    def ack(self, item_id: int, elapsed: float = 0.0,
            result: Optional[bytes] = None) -> None:
        self.store.execute(
            "UPDATE work_queue SET status = 'done', elapsed = ?, "
            "result = ?, error_type = '', message = '', worker = '', "
            "lease_expires = 0 "
            "WHERE queue = ? AND item_id = ?",
            (round(elapsed, 6),
             None if result is None else sqlite3.Binary(result),
             self._rows(), item_id))

    def nack(self, item_id: int, error_type: str, message: str,
             error: bytes = b"") -> bool:
        rows = self._rows()
        with self.store.locked() as conn:
            conn.execute("BEGIN IMMEDIATE")
            try:
                row = conn.execute(
                    "SELECT attempts, max_attempts, deaths, errors, "
                    "retry_delays "
                    "FROM work_queue WHERE queue = ? AND item_id = ?",
                    (rows, item_id)).fetchone()
                if row is None:
                    conn.execute("COMMIT")
                    return False
                attempts = int(row[0]) + 1
                retry = attempts < int(row[1])
                errors = _load_errors(row[3]) + [AttemptError(
                    attempts + int(row[2]), error_type, message, error)]
                delays = json.loads(row[4] or "[]")
                delay = delays[attempts - 1] if attempts <= len(delays) \
                    else 0.0
                conn.execute(
                    "UPDATE work_queue SET status = ?, attempts = ?, "
                    "error_type = ?, message = ?, errors = ?, worker = '', "
                    "lease_expires = 0, not_before = ? "
                    "WHERE queue = ? AND item_id = ?",
                    ("pending" if retry else "failed", attempts,
                     error_type, message,
                     sqlite3.Binary(pickle.dumps(
                         [tuple(e) for e in errors],
                         protocol=pickle.HIGHEST_PROTOCOL)),
                     time.time() + delay, rows, item_id))
                conn.execute("COMMIT")
                return retry
            except BaseException:
                conn.execute("ROLLBACK")
                raise

    def clear_result(self, item_id: int) -> None:
        self.store.execute(
            "UPDATE work_queue SET result = NULL "
            "WHERE queue = ? AND item_id = ?", (self._rows(), item_id))

    def overdue(self, timeout: float) -> List[Tuple[int, str]]:
        rows = self.store.query(
            "SELECT item_id, worker FROM work_queue "
            "WHERE queue = ? AND status = 'claimed' AND claimed_at < ? "
            "ORDER BY item_id", (self._rows(), time.time() - timeout))
        return [(int(r[0]), str(r[1])) for r in rows]

    def requeue_failed(self) -> int:
        rows = self._rows()
        failed = int(self.store.query(
            "SELECT COUNT(*) FROM work_queue "
            "WHERE queue = ? AND status = 'failed'", (rows,))[0][0])
        if failed:
            # A fresh pending state clears *everything* — the stale
            # worker/lease of the last holder included.
            self.store.execute(
                f"UPDATE work_queue SET {_FRESH} "
                f"WHERE queue = ? AND status = 'failed'", (rows,))
        return failed

    def reset_items(self, item_ids: Sequence[int]) -> int:
        wanted = sorted({int(i) for i in item_ids})
        if not wanted:
            return 0
        rows = self._rows()
        found = self.store.query(
            "SELECT item_id FROM work_queue WHERE queue = ?", (rows,))
        existing = sorted({int(r[0]) for r in found} & set(wanted))
        if existing:
            self.store.transaction([
                (f"UPDATE work_queue SET {_FRESH} "
                 f"WHERE queue = ? AND item_id = ?", (rows, item_id))
                for item_id in existing])
        return len(existing)

    def snapshot(self) -> Dict[int, ItemState]:
        rows = self.store.query(
            "SELECT item_id, status, attempts, losses, renewals, "
            "error_type, message, elapsed, worker, lease_expires, deaths, "
            "result, errors FROM work_queue WHERE queue = ?",
            (self._rows(),))
        return {int(r[0]): ItemState(
            status=r[1], attempts=int(r[2]), losses=int(r[3]),
            renewals=int(r[4]), error_type=r[5], message=r[6],
            elapsed=float(r[7]), worker=r[8], lease_expires=float(r[9]),
            deaths=int(r[10]),
            result=None if r[11] is None else bytes(r[11]),
            errors=tuple(_load_errors(r[12])))
            for r in rows}

    def peek(self, item_id: int) -> Optional[QueueItem]:
        rows = self.store.query(
            "SELECT item_id, key, label, payload, attempts, max_attempts, "
            "deaths FROM work_queue WHERE queue = ? AND item_id = ?",
            (self._rows(), int(item_id)))
        if not rows:
            return None
        row = rows[0]
        return QueueItem(item_id=int(row[0]), key=row[1], label=row[2],
                         payload=bytes(row[3]), attempts=int(row[4]),
                         max_attempts=int(row[5]), deaths=int(row[6]))

    def clear(self) -> None:
        self.store.transaction([
            ("DELETE FROM work_queue WHERE queue = ?", (self._rows(),)),
            ("DELETE FROM queue_meta WHERE queue = ? AND fingerprint = ?",
             (self.name, self.sweep)),
        ])
