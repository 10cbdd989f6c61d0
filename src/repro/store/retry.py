"""Transient-vs-permanent store errors, bounded retries, injected faults.

A sweep's coordinator talks to its store over a disk (or a database
file) that is allowed to be momentarily unhappy: SQLite signals
contention with ``OperationalError: database is locked`` (another run
writing the same file), NFS and overloaded disks surface ``EAGAIN`` /
``EBUSY`` / ``EIO``.  Those are *transient* — the correct response is
a bounded, deterministic retry with capped exponential backoff, after
which throughput degrades but the sweep still completes.  A malformed
database image, a missing table, or ``ENOSPC`` is *permanent* —
retrying cannot help, so the error propagates and fails the sweep.

:func:`is_transient_store_error` draws that line;
:func:`store_retry_policy` builds the budget, a
:class:`repro.runner.RetryPolicy` with store-sized backoff;
:class:`RetryingStore` wraps any store so every operation named in
:data:`~repro.store.faults.STORE_OPS` gets the treatment uniformly.  It
is also where the fault plan's store-op faults fire
(:class:`~repro.store.faults.FaultInjector`): as the first step of
every attempt, so a retried operation advances its fault's counter
once per attempt and the retry absorbs injected transients exactly as
it absorbs real ones.  Backoff sleeps schedule work and
never feed results or cache keys, exactly like the runner's retry
backoff.
"""

from __future__ import annotations

import errno
import sqlite3
import time
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Optional, Tuple, TypeVar

from .base import ExperimentStore, PurgeResult, StoreStats, encode_entry

if TYPE_CHECKING:  # repro.runner imports this package at its own init
    from ..runner.resilience import RetryPolicy
    from .faults import FaultInjector

__all__ = [
    "TRANSIENT_ERRNOS",
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
    """The retry budget for store operations.

    ``retries`` extra attempts with 10 ms backoff doubling to a 250 ms
    cap — much tighter than cell-retry backoff, since store operations
    take milliseconds, not cell executions.
    """
    from ..runner.resilience import RetryPolicy

    return RetryPolicy(retries=retries, backoff_base=0.01, backoff_cap=0.25)


_T = TypeVar("_T")

#: ``on_retry(operation, exc, failures)`` observer, called before each
#: backoff sleep; the coordinator traces each retry on its cell's span.
RetryObserver = Callable[[str, BaseException, int], None]


def call_with_retries(fn: Callable[[], _T], *,
                      policy: "RetryPolicy",
                      operation: str = "store operation",
                      on_retry: Optional[RetryObserver] = None,
                      faults: Optional["FaultInjector"] = None,
                      tear: Optional[Callable[[], None]] = None) -> _T:
    """Run ``fn`` retrying transient store errors within the budget.

    Each attempt first fires ``faults`` for ``operation`` (``tear``
    writes what a torn ``put`` leaves behind), then calls ``fn``.
    Permanent errors — and transient ones past ``policy.retries`` —
    re-raise unchanged, so callers classify the survivor themselves via
    :func:`is_transient_store_error`.
    """
    failures = 0
    while True:
        try:
            if faults is not None:
                faults.inject(operation, tear)
            return fn()
        except Exception as exc:
            if not is_transient_store_error(exc) or failures >= policy.retries:
                raise
            failures += 1
            if on_retry is not None:
                on_retry(operation, exc, failures)
            time.sleep(policy.delay(failures))


class RetryingStore(ExperimentStore):
    """An :class:`~repro.store.ExperimentStore` whose operations fire
    injected faults and retry transient errors.

    Everything else delegates to ``inner``.  ``get``/``put`` call
    ``inner.get``/``inner.put``, so hit/miss/put traffic keeps accruing
    on the wrapped store's counters and ``stats()`` is the same with or
    without the wrapper.
    """

    def __init__(self, inner: ExperimentStore, policy: "RetryPolicy",
                 on_retry: Optional[RetryObserver] = None,
                 faults: Optional["FaultInjector"] = None) -> None:
        super().__init__()
        self.inner = inner
        self.policy = policy
        self.on_retry = on_retry
        self.faults = faults

    def _call(self, op: str, fn: Callable[[], _T],
              tear: Optional[Callable[[], None]] = None) -> _T:
        return call_with_retries(fn, policy=self.policy, operation=op,
                                 on_retry=self.on_retry, faults=self.faults,
                                 tear=tear)

    def get(self, key: str) -> Tuple[bool, Any]:
        return self._call("get", lambda: self.inner.get(key))

    def put(self, key: str, value: Any) -> None:
        def tear() -> None:
            blob = encode_entry(value)
            self.inner.write_raw(key, blob[:max(len(blob) // 2, 1)])

        self._call("put", lambda: self.inner.put(key, value), tear)

    def write_raw(self, key: str, blob: bytes) -> None:
        self._call("write_raw", lambda: self.inner.write_raw(key, blob))

    def quarantine(self, key: str) -> Optional[str]:
        return self._call("quarantine", lambda: self.inner.quarantine(key))

    def contains(self, key: str) -> bool:
        return self._call("contains", lambda: self.inner.contains(key))

    def __len__(self) -> int:
        return self._call("len", lambda: len(self.inner))

    def quarantined_count(self) -> int:
        return self._call("quarantined_count", self.inner.quarantined_count)

    # -- delegated unguarded -------------------------------------------

    def _read(self, key: str) -> Optional[bytes]:
        return self.inner._read(key)

    def _write(self, key: str, blob: bytes) -> None:
        self.inner._write(key, blob)

    def purge(self) -> PurgeResult:
        return self.inner.purge()

    def stats(self) -> StoreStats:
        return self.inner.stats()

    @property
    def url(self) -> str:
        return self.inner.url

    def aux_dir(self, name: str) -> Path:
        return self.inner.aux_dir(name)

    def close(self) -> None:
        self.inner.close()
