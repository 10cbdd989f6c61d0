"""Claim/ack/requeue work queue over an experiment store.

The queue is how every sweep executes: the coordinator
(:func:`repro.runner.run_cells`) publishes one item per pending cell
(the pickled cell rides along as an opaque payload), workers claim
items, execute them and ack with the pickled result, and the
coordinator collects each result from its row, persists it to the
experiment store and clears the row's copy.  Workers are the
coordinator's own thread (``--jobs 1``) or processes it forks
(``--jobs N``).

The queue always lives in SQLite (:class:`SQLiteWorkQueue`): a
``sqlite:`` store's own database, a sidecar database under a
``local:`` store's ``aux_dir("queue")``, or a temporary database when
the sweep has no store.

Protocol:

* **claim** — atomically take the lowest-id item that is ``pending``
  and past its retry backoff.  The claim records its holder
  (:func:`worker_id`): the pid of the process running the cell and the
  pid of the coordinator that owns that process.
* **expire** — a worker is dead: release every claim it holds.
* **ack** — the attempt succeeded; the item is done and its row keeps
  the pickled result until the coordinator collects it.
* **nack** — the attempt raised; the error (with the pickled exception)
  joins the item's history, and the item returns to ``pending`` until
  its ``max_attempts`` budget (retries + 1) is spent, then it is marked
  ``failed``.  A returned item is not claimable before its backoff has
  passed: the publisher fixes each item's ``retry_delays``, so every
  worker honors the same schedule.

A released claim charges its item one *death* and returns it to
``pending``, so its next attempt gets a fresh attempt number; an item
whose deaths exceed its loss budget, ``max(max_attempts - 1, 1)``,
fails as :data:`LOST_ERROR_TYPE` instead — a cell that keeps killing
its worker cannot wedge the sweep.  Three paths release a claim, through
the one :meth:`~WorkQueue.expire` statement:

* a live coordinator reaps a dead child and expires its claims at
  once; it is the only process that releases its own workers' claims;
* a coordinator interrupted in a process that lives on leaves claims
  naming that process, which no running loop of it holds in that sweep
  any more (:func:`claiming`): the next publish of the sweep in that
  process releases them;
* when *both* pids of a claim are gone — no coordinator is left to reap
  the worker — the next claim that finds nothing runnable releases it.

Liveness is ``os.kill(pid, 0)``, with its limits: a zombie counts as
alive until it is reaped, and pids repeat — from run to run in a
container, and across hosts they mean nothing.  A dead claim that names
this process's own pid is released at publish.  One whose pids only
other processes have is released if they are all gone, and its cell
reruns, which determinism makes harmless; if one of them is alive, the
claim stays held and the sweep stalls until it is released by hand
(``UPDATE work_queue SET status = 'pending', worker = ''
WHERE status = 'claimed'`` with no run of the sweep active).

Every sweep has rows of its own, named by its sweep id
(:func:`sweep_queue`, a prefix of :func:`sweep_digest`), so two
different sweeps on one store never share a row, and every run of one
sweep meets the same rows: publishing is idempotent and keeps ``done``
states (the resume path), and two coordinators of the same sweep
cooperate on it.  Publishing drops the rows of other sweeps once every
item there is done and collected.

Wall-clock note: ``claimed_at`` (cell timeouts) and ``not_before``
(retry backoff) are ``time.time`` stamps compared in other processes.
They schedule work; they never feed results or cache keys (reprolint
DET002 sanctions this file for exactly that reason).
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import re
import sqlite3
import threading
import time
from abc import ABC, abstractmethod
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Any, Callable, Dict, Iterator, List,
                    NamedTuple, Optional, Sequence, Tuple)

if TYPE_CHECKING:  # runtime-free: the sqlite backend imports this module
    from .sqlite import SQLiteStore

__all__ = [
    "AttemptError",
    "ItemState",
    "QueueItem",
    "WorkQueue",
    "SQLiteWorkQueue",
    "claiming",
    "sweep_digest",
    "sweep_queue",
    "worker_id",
]

#: Item lifecycle states.
STATUSES = ("pending", "claimed", "done", "failed")

#: Error type recorded when an item exhausts its loss budget (workers
#: kept dying while holding its claim).
LOST_ERROR_TYPE = "WorkerLost"


@dataclass(frozen=True)
class QueueItem:
    """One published unit of work: a pending sweep cell.

    ``item_id`` is the cell's index within the sweep (stable across
    runs of the same config — that is what makes resume work);
    ``payload`` is the pickled :class:`~repro.runner.cells.Cell`,
    opaque to the queue.  ``attempts`` counts nacked attempts and
    ``deaths`` attempts whose worker died.  ``retry_delays[n - 1]`` is
    how many seconds the item waits after its ``n``-th nack before it
    may be claimed again (missing entries mean no wait); only
    :meth:`~WorkQueue.publish` reads it.
    """

    item_id: int
    key: str
    label: str
    payload: bytes
    attempts: int = 0
    max_attempts: int = 1
    deaths: int = 0
    retry_delays: Tuple[float, ...] = ()

    @property
    def attempt(self) -> int:
        """The 1-based number of the attempt this claim runs: every
        attempt that ended in a nack or a dead worker counts."""
        return self.attempts + self.deaths + 1


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

    ``worker`` is the current claim holder (empty outside ``claimed``);
    ``deaths`` counts the claims released because their worker died.
    ``result`` is the pickled result of an acked attempt until the
    coordinator collects it; ``errors`` every failed attempt, in order.
    """

    status: str = "pending"
    attempts: int = 0
    deaths: int = 0
    error_type: str = ""
    message: str = ""
    elapsed: float = 0.0
    worker: str = ""
    result: Optional[bytes] = None
    errors: Tuple[AttemptError, ...] = ()


#: Hex digits of a sweep digest that name the sweep's queue rows.
SWEEP_ID_LEN = 16


def sweep_digest(keys: Sequence[str]) -> str:
    """Identity of a sweep: the SHA-256 of its ordered (index, key) pairs.

    Changed config or changed code changes the keys, hence the sweep.
    Its prefixes name the sweep's queue rows (:func:`sweep_queue`) and
    its trace (:func:`repro.obs.trace.trace_id_for`).
    """
    blob = json.dumps([[i, key] for i, key in enumerate(keys)],
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def sweep_queue(keys: Sequence[str]) -> str:
    """The sweep id naming the queue rows of the sweep whose cells have
    ``keys``: shared by every run of that sweep, so a resumed sweep that
    publishes only its pending cells still meets the earlier rows."""
    return sweep_digest(keys)[:SWEEP_ID_LEN]


def worker_id(pid: int, coordinator: int) -> str:
    """The holder a claim records: the pid running the cell and the pid
    of the coordinator that owns it (the same pid at ``--jobs 1``)."""
    return f"worker-{pid}-{coordinator}"


#: How many running loops of this process claim in each sweep as each
#: holder: runs of one sweep overlapping in threads of one process
#: share ``worker-<pid>-<pid>``.
_HELD: "Counter[Tuple[str, str]]" = Counter()
_HELD_LOCK = threading.Lock()


@contextmanager
def claiming(sweep: str, start: Callable[[], int],
             coordinator: int) -> Iterator[str]:
    """Hold the claims one process makes in ``sweep`` for the block;
    yields its holder (:func:`worker_id`).

    ``start`` begins the claiming and returns that process's pid:
    ``os.getpid`` for the coordinator's own loop, a forked worker's
    start otherwise.  While the block runs, publish in this process
    leaves the holder's claims alone; once it ends, a claim the holder
    still has was left behind, and the next publish of ``sweep`` in
    this process releases it.  No publish runs between ``start`` and
    the hold, so a forked worker cannot claim before its holder is
    held (forked workers never publish, so the lock they inherit held
    stays unused).
    """
    with _HELD_LOCK:
        held = (sweep, worker_id(start(), coordinator))
        _HELD[held] += 1
    try:
        yield held[1]
    finally:
        with _HELD_LOCK:
            _HELD[held] -= 1
            if not _HELD[held]:
                del _HELD[held]


def _pids(worker: str) -> Tuple[int, ...]:
    """The pids a holder names: none unless it is a :func:`worker_id`."""
    match = re.fullmatch(r"worker-(\d+)-(\d+)", worker)
    return tuple(int(pid) for pid in match.groups()) if match else ()


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # alive, but another user's
        pass
    return True


def _gone(worker: str) -> bool:
    """Whether both pids of ``worker`` are gone.  A holder that names no
    pids is never presumed dead."""
    pids = _pids(worker)
    return bool(pids) and not any(_alive(pid) for pid in pids)


class WorkQueue(ABC):
    """Abstract claim/ack/requeue queue; one instance per sweep."""

    @abstractmethod
    def publish(self, items: Sequence[QueueItem]) -> int:
        """Idempotently enqueue ``items``; returns how many were new.

        Items already present keep their state — that is the resume
        path — but take the new payload, attempt budget and retry
        delays.  First, every claim that names this process and that no
        running loop of it holds in this sweep (:func:`claiming`) is
        expired: an interrupted run of the sweep left it behind.
        """

    @abstractmethod
    def claim(self, worker: str) -> Optional[QueueItem]:
        """Atomically claim the lowest-id runnable item for ``worker``
        (:func:`worker_id`), or ``None``.

        Runnable means ``pending`` and past its retry backoff.  When
        nothing is, the claims whose worker and coordinator are both
        gone are expired and the claim looks again.
        """

    @abstractmethod
    def expire(self, worker: str) -> List[int]:
        """Release every claim the dead ``worker`` holds; returns the
        item ids.

        Each item is charged a death and returns to ``pending``, or
        fails as :data:`LOST_ERROR_TYPE` once its deaths exceed its
        loss budget.
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
_FRESH = ("status = 'pending', attempts = 0, deaths = 0, error_type = '', "
          "message = '', elapsed = 0, worker = '', claimed_at = 0, "
          "result = NULL, errors = NULL, not_before = 0")

#: The one release statement: a dead worker's claims each count a death
#: and return to ``pending``, or fail once past the loss budget.
_OVER_BUDGET = "deaths + 1 > MAX(max_attempts - 1, 1)"
_RELEASE = (
    f"UPDATE work_queue SET deaths = deaths + 1, worker = '', "
    f"status = CASE WHEN {_OVER_BUDGET} THEN 'failed' ELSE 'pending' END, "
    f"error_type = CASE WHEN {_OVER_BUDGET} THEN '{LOST_ERROR_TYPE}' "
    f"ELSE error_type END, "
    f"message = CASE WHEN {_OVER_BUDGET} THEN 'worker died ' || "
    f"(deaths + 1) || ' times running ' || label ELSE message END "
    f"WHERE queue = ? AND status = 'claimed' AND worker = ?")


def _load_errors(blob: Optional[bytes]) -> List[AttemptError]:
    return [AttemptError(*entry) for entry in pickle.loads(blob)] \
        if blob else []


class SQLiteWorkQueue(WorkQueue):
    """Queue rows in a SQLite database (``work_queue`` table).

    The rows of sweep ``S`` carry ``queue = 'S'``.  Claims run inside
    ``BEGIN IMMEDIATE`` transactions, so concurrent workers on one
    database file serialize through SQLite's write lock; the store's
    WAL mode keeps readers unblocked meanwhile.
    """

    def __init__(self, store: "SQLiteStore", sweep: str) -> None:
        self.store = store
        self.sweep = sweep

    def publish(self, items: Sequence[QueueItem]) -> int:
        me = os.getpid()
        with _HELD_LOCK:
            for holder in self._holders():
                if me in _pids(holder) and (self.sweep, holder) not in _HELD:
                    self.expire(holder)
        statements: List[Tuple[str, Tuple[Any, ...]]] = [
            # Other sweeps are dropped once they are over: every item
            # done and its result collected.
            ("DELETE FROM work_queue WHERE queue IN ("
             "SELECT queue FROM work_queue WHERE queue != ? "
             "GROUP BY queue "
             "HAVING MAX(status != 'done' OR result IS NOT NULL) = 0)",
             (self.sweep,))]
        statements += [
            ("INSERT INTO work_queue "
             "(queue, item_id, key, label, payload, max_attempts, "
             "retry_delays) VALUES (?, ?, ?, ?, ?, ?, ?) "
             "ON CONFLICT (queue, item_id) DO UPDATE SET "
             "label = excluded.label, payload = excluded.payload, "
             "max_attempts = excluded.max_attempts, "
             "retry_delays = excluded.retry_delays",
             (self.sweep, item.item_id, item.key, item.label,
              sqlite3.Binary(item.payload), item.max_attempts,
              json.dumps(list(item.retry_delays))))
            for item in items]
        before = self._count_items()
        self.store.transaction(statements)
        return self._count_items() - before

    def _count_items(self) -> int:
        return int(self.store.query(
            "SELECT COUNT(*) FROM work_queue WHERE queue = ?",
            (self.sweep,))[0][0])

    def _holders(self) -> List[str]:
        """Every holder of a claim in this sweep."""
        return [str(r[0]) for r in self.store.query(
            "SELECT DISTINCT worker FROM work_queue "
            "WHERE queue = ? AND status = 'claimed'", (self.sweep,))]

    def claim(self, worker: str) -> Optional[QueueItem]:
        while True:
            now = time.time()
            with self.store.locked() as conn:
                conn.execute("BEGIN IMMEDIATE")
                try:
                    row = conn.execute(
                        "SELECT item_id, key, label, payload, attempts, "
                        "max_attempts, deaths FROM work_queue "
                        "WHERE queue = ? AND status = 'pending' AND "
                        "not_before <= ? ORDER BY item_id LIMIT 1",
                        (self.sweep, now)).fetchone()
                    if row is not None:
                        conn.execute(
                            "UPDATE work_queue SET status = 'claimed', "
                            "worker = ?, claimed_at = ? "
                            "WHERE queue = ? AND item_id = ?",
                            (worker, now, self.sweep, row[0]))
                    conn.execute("COMMIT")
                except BaseException:
                    conn.execute("ROLLBACK")
                    raise
            if row is not None:
                return QueueItem(
                    item_id=int(row[0]), key=row[1], label=row[2],
                    payload=bytes(row[3]), attempts=int(row[4]),
                    max_attempts=int(row[5]), deaths=int(row[6]))
            gone = [holder for holder in self._holders() if _gone(holder)]
            if not gone:
                return None
            for holder in gone:
                self.expire(holder)

    def expire(self, worker: str) -> List[int]:
        params = (self.sweep, worker)
        rows = self.store.query(
            "SELECT item_id FROM work_queue "
            "WHERE queue = ? AND status = 'claimed' AND worker = ?", params)
        self.store.execute(_RELEASE, params)
        return sorted(int(r[0]) for r in rows)

    def ack(self, item_id: int, elapsed: float = 0.0,
            result: Optional[bytes] = None) -> None:
        self.store.execute(
            "UPDATE work_queue SET status = 'done', elapsed = ?, "
            "result = ?, error_type = '', message = '', worker = '' "
            "WHERE queue = ? AND item_id = ?",
            (round(elapsed, 6),
             None if result is None else sqlite3.Binary(result),
             self.sweep, item_id))

    def nack(self, item_id: int, error_type: str, message: str,
             error: bytes = b"") -> bool:
        with self.store.locked() as conn:
            conn.execute("BEGIN IMMEDIATE")
            try:
                row = conn.execute(
                    "SELECT attempts, max_attempts, deaths, errors, "
                    "retry_delays "
                    "FROM work_queue WHERE queue = ? AND item_id = ?",
                    (self.sweep, item_id)).fetchone()
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
                    "not_before = ? WHERE queue = ? AND item_id = ?",
                    ("pending" if retry else "failed", attempts,
                     error_type, message,
                     sqlite3.Binary(pickle.dumps(
                         [tuple(e) for e in errors],
                         protocol=pickle.HIGHEST_PROTOCOL)),
                     time.time() + delay, self.sweep, item_id))
                conn.execute("COMMIT")
                return retry
            except BaseException:
                conn.execute("ROLLBACK")
                raise

    def clear_result(self, item_id: int) -> None:
        self.store.execute(
            "UPDATE work_queue SET result = NULL "
            "WHERE queue = ? AND item_id = ?", (self.sweep, item_id))

    def overdue(self, timeout: float) -> List[Tuple[int, str]]:
        rows = self.store.query(
            "SELECT item_id, worker FROM work_queue "
            "WHERE queue = ? AND status = 'claimed' AND claimed_at < ? "
            "ORDER BY item_id", (self.sweep, time.time() - timeout))
        return [(int(r[0]), str(r[1])) for r in rows]

    def requeue_failed(self) -> int:
        failed = int(self.store.query(
            "SELECT COUNT(*) FROM work_queue "
            "WHERE queue = ? AND status = 'failed'", (self.sweep,))[0][0])
        if failed:
            # A fresh pending state clears *everything* — the deaths
            # and stale worker of the last holder included.
            self.store.execute(
                f"UPDATE work_queue SET {_FRESH} "
                f"WHERE queue = ? AND status = 'failed'", (self.sweep,))
        return failed

    def reset_items(self, item_ids: Sequence[int]) -> int:
        wanted = sorted({int(i) for i in item_ids})
        if not wanted:
            return 0
        found = self.store.query(
            "SELECT item_id FROM work_queue WHERE queue = ?", (self.sweep,))
        existing = sorted({int(r[0]) for r in found} & set(wanted))
        if existing:
            self.store.transaction([
                (f"UPDATE work_queue SET {_FRESH} "
                 f"WHERE queue = ? AND item_id = ?", (self.sweep, item_id))
                for item_id in existing])
        return len(existing)

    def snapshot(self) -> Dict[int, ItemState]:
        rows = self.store.query(
            "SELECT item_id, status, attempts, deaths, error_type, message, "
            "elapsed, worker, result, errors FROM work_queue "
            "WHERE queue = ?", (self.sweep,))
        return {int(r[0]): ItemState(
            status=r[1], attempts=int(r[2]), deaths=int(r[3]),
            error_type=r[4], message=r[5], elapsed=float(r[6]),
            worker=r[7], result=None if r[8] is None else bytes(r[8]),
            errors=tuple(_load_errors(r[9])))
            for r in rows}
