"""Single-file SQLite store backend, safe for concurrent workers.

``sqlite:PATH`` keeps every entry (and the work queue, and quarantined
corruption evidence) in one database file.  The connection runs in WAL
journal mode with a generous busy timeout, so many independent worker
processes — each with its own connection — can claim queue items and
persist results concurrently without corrupting each other; SQLite's
own locking serializes the writes.

Entries store the exact same checksummed v2 blob as the local backend
(:func:`repro.store.base.encode_entry`), so validation, quarantine
semantics and sweep output are byte-identical across backends.  A
corrupt entry moves to the ``quarantine`` table instead of a
``.corrupt`` sidecar file.

Sidecar artifacts that are inherently files (failure manifests,
telemetry runs) land next to the database under ``<path>.aux/``.  The
same class also serves as the queue-only database a ``local:`` store
keeps under its ``queue/`` sidecar directory, and as the temporary
queue of a sweep without a store.
"""

from __future__ import annotations

import os
import sqlite3
import threading
import warnings
from contextlib import contextmanager
from pathlib import Path
from typing import (TYPE_CHECKING, Any, Dict, Iterable, Iterator, List,
                    Optional, Tuple, Union)

from .base import (CacheCorruptionWarning, ExperimentStore, PurgeResult,
                   register_backend)

if TYPE_CHECKING:
    from .queue import WorkQueue

__all__ = ["SQLiteStore"]

_SCHEMA = (
    """CREATE TABLE IF NOT EXISTS entries (
        key TEXT PRIMARY KEY,
        blob BLOB NOT NULL)""",
    """CREATE TABLE IF NOT EXISTS quarantine (
        key TEXT PRIMARY KEY,
        blob BLOB NOT NULL)""",
    """CREATE TABLE IF NOT EXISTS work_queue (
        queue TEXT NOT NULL,
        item_id INTEGER NOT NULL,
        key TEXT NOT NULL,
        label TEXT NOT NULL,
        payload BLOB NOT NULL,
        attempts INTEGER NOT NULL DEFAULT 0,
        max_attempts INTEGER NOT NULL DEFAULT 1,
        losses INTEGER NOT NULL DEFAULT 0,
        renewals INTEGER NOT NULL DEFAULT 0,
        deaths INTEGER NOT NULL DEFAULT 0,
        status TEXT NOT NULL DEFAULT 'pending',
        worker TEXT NOT NULL DEFAULT '',
        lease_expires REAL NOT NULL DEFAULT 0,
        claimed_at REAL NOT NULL DEFAULT 0,
        error_type TEXT NOT NULL DEFAULT '',
        message TEXT NOT NULL DEFAULT '',
        elapsed REAL NOT NULL DEFAULT 0,
        result BLOB,
        errors BLOB,
        retry_delays TEXT NOT NULL DEFAULT '[]',
        not_before REAL NOT NULL DEFAULT 0,
        PRIMARY KEY (queue, item_id))""",
    """CREATE TABLE IF NOT EXISTS queue_meta (
        queue TEXT PRIMARY KEY,
        fingerprint TEXT NOT NULL)""",
)

#: Columns grown after the table first shipped; ``CREATE TABLE IF NOT
#: EXISTS`` never alters an existing file, so each is applied as an
#: idempotent ``ALTER TABLE`` migration on connect.
_MIGRATIONS = (
    "ALTER TABLE work_queue ADD COLUMN renewals INTEGER NOT NULL DEFAULT 0",
    "ALTER TABLE work_queue ADD COLUMN deaths INTEGER NOT NULL DEFAULT 0",
    "ALTER TABLE work_queue ADD COLUMN claimed_at REAL NOT NULL DEFAULT 0",
    "ALTER TABLE work_queue ADD COLUMN result BLOB",
    "ALTER TABLE work_queue ADD COLUMN errors BLOB",
    "ALTER TABLE work_queue ADD COLUMN retry_delays TEXT NOT NULL "
    "DEFAULT '[]'",
    "ALTER TABLE work_queue ADD COLUMN not_before REAL NOT NULL DEFAULT 0",
)


@register_backend
class SQLiteStore(ExperimentStore):
    """WAL-mode single-file store (``sqlite:PATH``)."""

    scheme = "sqlite"

    def __init__(self, path: Union[str, "os.PathLike[str]"],
                 timeout: float = 30.0) -> None:
        super().__init__()
        self.path = Path(path)
        self.timeout = timeout
        self._lock = threading.Lock()
        self._conn: Optional[sqlite3.Connection] = None  # reprolint: guarded-by=_lock
        self._connect()

    def _connect(self) -> None:  # reprolint: requires-lock=_lock
        self.path.parent.mkdir(parents=True, exist_ok=True)
        conn = sqlite3.connect(str(self.path), timeout=self.timeout,
                               isolation_level=None,
                               check_same_thread=False)
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=NORMAL")
        conn.execute(f"PRAGMA busy_timeout={int(self.timeout * 1000)}")
        for statement in _SCHEMA:
            conn.execute(statement)
        for statement in _MIGRATIONS:
            try:
                conn.execute(statement)
            except sqlite3.OperationalError:
                pass  # column already present (fresh schema or migrated)
        self._conn = conn

    @property
    def connection(self) -> sqlite3.Connection:  # reprolint: requires-lock=_lock
        if self._conn is None:
            self._connect()
        assert self._conn is not None
        return self._conn

    @contextmanager
    def locked(self) -> Iterator[sqlite3.Connection]:
        """The one sanctioned way to borrow the raw connection.

        The connection is opened with ``check_same_thread=False`` and is
        only safe because every use is serialized behind ``_lock``;
        collaborators (the work queue's multi-statement transactions)
        must take it through here rather than reaching into ``_lock`` /
        ``_conn`` themselves.  The connection is only valid inside the
        ``with`` block.
        """
        with self._lock:
            yield self.connection

    def execute(self, sql: str, params: Iterable[Any] = ()) -> None:
        """One serialized write statement (autocommit)."""
        with self.locked() as conn:
            conn.execute(sql, tuple(params))

    def query(self, sql: str,
              params: Iterable[Any] = ()) -> List[Tuple[Any, ...]]:
        """One serialized read; rows are fetched before the lock drops."""
        with self.locked() as conn:
            return conn.execute(sql, tuple(params)).fetchall()

    def transaction(self, statements: Iterable[Tuple[str, Iterable[Any]]],
                    ) -> None:
        """Run ``statements`` inside one immediate transaction."""
        with self.locked() as conn:
            conn.execute("BEGIN IMMEDIATE")
            try:
                for sql, params in statements:
                    conn.execute(sql, tuple(params))
            except BaseException:
                conn.execute("ROLLBACK")
                raise
            conn.execute("COMMIT")

    # -- storage primitives --------------------------------------------

    def _read(self, key: str) -> Optional[bytes]:
        rows = self.query(
            "SELECT blob FROM entries WHERE key = ?", (key,))
        return None if not rows else bytes(rows[0][0])

    def _write(self, key: str, blob: bytes) -> None:
        self.execute(
            "INSERT OR REPLACE INTO entries (key, blob) VALUES (?, ?)",
            (key, sqlite3.Binary(blob)))

    def quarantine(self, key: str) -> Optional[str]:
        """Move ``key``'s row into the ``quarantine`` table atomically.

        Transient errors (a concurrent writer holding the lock) retry
        with bounded backoff; a *permanent* failure warns through the
        :class:`~repro.store.CacheCorruptionWarning` channel and leaves
        the entry in place — never a silent ``None``.
        """
        from .retry import (call_with_retries, is_transient_store_error,
                            store_retry_policy)

        def _move() -> None:
            self.transaction([
                ("INSERT OR REPLACE INTO quarantine (key, blob) "
                 "SELECT key, blob FROM entries WHERE key = ?", (key,)),
                ("DELETE FROM entries WHERE key = ?", (key,)),
            ])

        try:
            call_with_retries(_move, policy=store_retry_policy())
        except sqlite3.Error as exc:
            kind = ("still failing after transient retries"
                    if is_transient_store_error(exc) else "failed")
            warnings.warn(
                f"quarantine of entry {key[:12]}... {kind} "
                f"({type(exc).__name__}: {exc}); the corrupt entry stays "
                f"in place in {self.path}",
                CacheCorruptionWarning, stacklevel=2)
            return None
        return f"{self.path}::quarantine[{key[:12]}...]"

    def contains(self, key: str) -> bool:
        return bool(self.query(
            "SELECT 1 FROM entries WHERE key = ?", (key,)))

    def __len__(self) -> int:
        return int(self.query("SELECT COUNT(*) FROM entries")[0][0])

    def quarantined_count(self) -> int:
        return int(self.query("SELECT COUNT(*) FROM quarantine")[0][0])

    def purge(self) -> PurgeResult:
        entries = len(self)
        quarantined = self.quarantined_count()
        self.transaction([
            ("DELETE FROM entries", ()),
            ("DELETE FROM quarantine", ()),
        ])
        return PurgeResult(entries=entries, quarantined=quarantined)

    # -- identity ------------------------------------------------------

    @property
    def url(self) -> str:
        return f"sqlite:{self.path}"

    def aux_dir(self, name: str) -> Path:
        path = Path(f"{self.path}.aux") / name
        path.mkdir(parents=True, exist_ok=True)
        return path

    def make_queue(self, name: str) -> "WorkQueue":
        from .queue import SQLiteWorkQueue

        return SQLiteWorkQueue(self, name)

    def queues(self) -> List[str]:
        return sorted(str(row[0]) for row in
                      self.query("SELECT queue FROM queue_meta"))

    def close(self) -> None:
        with self._lock:
            if self._conn is not None:
                self._conn.close()
                self._conn = None

    # Connections cannot cross process boundaries; reconnect on unpickle
    # so a store object captured in a config survives a fork/spawn.
    def __getstate__(self) -> Dict[str, Any]:
        state = dict(self.__dict__)
        state["_conn"] = None
        state["_lock"] = None
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()
        self._conn = None
