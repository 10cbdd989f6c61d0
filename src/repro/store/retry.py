"""Transient-vs-permanent store-error classification and bounded retries.

A sweep talks to its store and queue from several processes over a
disk (or a database file) that is allowed to be momentarily unhappy:
SQLite signals contention with ``OperationalError: database is
locked``, NFS and overloaded disks surface ``EAGAIN`` / ``EBUSY`` /
``EIO``.  Those are *transient* — the correct response is a bounded,
deterministic retry with capped exponential backoff, after which
throughput degrades but the sweep still completes.  A malformed
database image, a missing table, or ``ENOSPC`` is *permanent* —
retrying cannot help, and the worker should exit distinctly so the
coordinator stops respawning into a broken store (see
:data:`repro.runner.worker.EXIT_STORE_PERMANENT`).

:func:`is_transient_store_error` draws that line;
:func:`store_retry_policy` builds the budget, a
:class:`repro.runner.RetryPolicy` with store-sized backoff;
:class:`RetryingStore` / :class:`RetryingQueue` wrap any store/queue so
every operation gets the treatment uniformly.  Backoff sleeps schedule
work and never feed results or cache keys, exactly like the runner's
retry backoff.
"""

from __future__ import annotations

import errno
import sqlite3
import time
from typing import (TYPE_CHECKING, Any, Callable, Dict, List, Optional,
                    Sequence, Tuple, TypeVar)

from .base import ExperimentStore, StoreProxy
from .queue import ItemState, QueueItem, WorkQueue, WorkQueueProxy

if TYPE_CHECKING:  # repro.runner imports this package at its own init
    from ..runner.resilience import RetryPolicy

__all__ = [
    "TRANSIENT_ERRNOS",
    "RetryingQueue",
    "RetryingStore",
    "call_with_retries",
    "is_transient_store_error",
    "store_retry_policy",
]

#: ``OSError`` errnos that signal momentary pressure, not broken state.
TRANSIENT_ERRNOS = frozenset({
    errno.EAGAIN, errno.EWOULDBLOCK, errno.EBUSY, errno.EINTR,
    errno.ETIMEDOUT, errno.EIO, errno.ENOLCK, errno.ESTALE,
})

#: Substrings of ``sqlite3.OperationalError`` messages that mean
#: "try again" (lock contention, momentary I/O trouble) rather than a
#: broken schema or database image.
_TRANSIENT_SQLITE_MARKERS = ("locked", "busy", "disk i/o", "unable to open")


def is_transient_store_error(exc: BaseException) -> bool:
    """Whether retrying the failed store operation can plausibly help.

    * ``sqlite3.OperationalError`` — transient only for the contention
      family (``database is locked`` / ``busy`` / ``disk I/O error`` /
      ``unable to open``); a missing table or malformed statement is
      permanent.
    * any other ``sqlite3.Error`` (``DatabaseError: malformed`` etc.) —
      permanent.
    * ``OSError`` — transient for :data:`TRANSIENT_ERRNOS`; an unset
      ``errno`` is treated as transient (unknown beats fatal — the
      retry budget keeps it bounded); everything else (``ENOSPC``,
      ``EROFS``, ``ENOENT``...) is permanent.
    * anything else is not a store-layer error: permanent.
    """
    if isinstance(exc, sqlite3.OperationalError):
        message = str(exc).lower()
        return any(marker in message for marker in
                   _TRANSIENT_SQLITE_MARKERS)
    if isinstance(exc, sqlite3.Error):
        return False
    if isinstance(exc, OSError):
        return exc.errno is None or exc.errno in TRANSIENT_ERRNOS
    return False


def store_retry_policy(retries: int = 5) -> "RetryPolicy":
    """The retry budget for store/queue operations.

    ``retries`` extra attempts with 10 ms backoff doubling to a 250 ms
    cap — much tighter than cell-retry backoff, since store operations
    take milliseconds, not cell executions.
    """
    from ..runner.resilience import RetryPolicy

    return RetryPolicy(retries=retries, backoff_base=0.01, backoff_cap=0.25)


_T = TypeVar("_T")

#: ``on_retry(operation, exc, failures)`` observer, called before each
#: backoff sleep; workers use it for stderr notes and telemetry counts.
RetryObserver = Callable[[str, BaseException, int], None]


def call_with_retries(fn: Callable[[], _T], *,
                      policy: "RetryPolicy",
                      operation: str = "store operation",
                      on_retry: Optional[RetryObserver] = None) -> _T:
    """Run ``fn`` retrying transient store errors within the budget.

    Permanent errors — and transient ones past ``policy.retries`` —
    re-raise unchanged, so callers classify the survivor themselves via
    :func:`is_transient_store_error`.
    """
    failures = 0
    while True:
        try:
            return fn()
        except Exception as exc:
            if not is_transient_store_error(exc) or failures >= policy.retries:
                raise
            failures += 1
            if on_retry is not None:
                on_retry(operation, exc, failures)
            time.sleep(policy.delay(failures))


class RetryingQueue(WorkQueueProxy):
    """A :class:`~repro.store.queue.WorkQueue` with transient-error
    retries on every protocol operation."""

    def __init__(self, inner: WorkQueue, policy: "RetryPolicy",
                 on_retry: Optional[RetryObserver] = None) -> None:
        super().__init__(inner)
        self.policy = policy
        self.on_retry = on_retry

    def _retry(self, operation: str, fn: Callable[[], _T]) -> _T:
        return call_with_retries(fn, policy=self.policy,
                                 operation=operation,
                                 on_retry=self.on_retry)

    def publish(self, items: Sequence[QueueItem]) -> int:
        return self._retry("queue.publish",
                           lambda: self.inner.publish(items))

    def claim(self, worker: str, lease: float) -> Optional[QueueItem]:
        return self._retry("queue.claim",
                           lambda: self.inner.claim(worker, lease))

    def renew(self, item_id: int, worker: str, lease: float) -> bool:
        return self._retry("queue.renew",
                           lambda: self.inner.renew(item_id, worker, lease))

    def expire(self, worker: str) -> List[int]:
        return self._retry("queue.expire", lambda: self.inner.expire(worker))

    def ack(self, item_id: int, elapsed: float = 0.0,
            result: Optional[bytes] = None) -> None:
        self._retry("queue.ack",
                    lambda: self.inner.ack(item_id, elapsed, result))

    def nack(self, item_id: int, error_type: str, message: str,
             error: bytes = b"") -> bool:
        return self._retry(
            "queue.nack",
            lambda: self.inner.nack(item_id, error_type, message, error))

    def clear_result(self, item_id: int) -> None:
        self._retry("queue.clear_result",
                    lambda: self.inner.clear_result(item_id))

    def overdue(self, timeout: float) -> List[Tuple[int, str]]:
        return self._retry("queue.overdue",
                           lambda: self.inner.overdue(timeout))

    def requeue_failed(self) -> int:
        return self._retry("queue.requeue_failed", self.inner.requeue_failed)

    def reset_items(self, item_ids: Sequence[int]) -> int:
        return self._retry("queue.reset_items",
                           lambda: self.inner.reset_items(item_ids))

    def snapshot(self) -> Dict[int, ItemState]:
        return self._retry("queue.snapshot", self.inner.snapshot)

    def peek(self, item_id: int) -> Optional[QueueItem]:
        return self._retry("queue.peek", lambda: self.inner.peek(item_id))


class RetryingStore(StoreProxy):
    """An :class:`~repro.store.ExperimentStore` with transient-error
    retries on every operation; queues it opens are wrapped too."""

    def __init__(self, inner: ExperimentStore, policy: "RetryPolicy",
                 on_retry: Optional[RetryObserver] = None) -> None:
        super().__init__(inner)
        self.policy = policy
        self.on_retry = on_retry

    def _retry(self, operation: str, fn: Callable[[], _T]) -> _T:
        return call_with_retries(fn, policy=self.policy,
                                 operation=operation,
                                 on_retry=self.on_retry)

    def get(self, key: str) -> Tuple[bool, Any]:
        return self._retry("store.get", lambda: self.inner.get(key))

    def put(self, key: str, value: Any) -> None:
        self._retry("store.put", lambda: self.inner.put(key, value))

    def write_raw(self, key: str, blob: bytes) -> None:
        self._retry("store.write_raw",
                    lambda: self.inner.write_raw(key, blob))

    def quarantine(self, key: str) -> Optional[str]:
        return self._retry("store.quarantine",
                           lambda: self.inner.quarantine(key))

    def contains(self, key: str) -> bool:
        return self._retry("store.contains",
                           lambda: self.inner.contains(key))

    def __len__(self) -> int:
        return self._retry("store.len", lambda: len(self.inner))

    def quarantined_count(self) -> int:
        return self._retry("store.quarantined_count",
                           self.inner.quarantined_count)

    def make_queue(self, name: str) -> WorkQueue:
        return RetryingQueue(self.inner.make_queue(name), self.policy,
                             self.on_retry)
