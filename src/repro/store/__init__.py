"""Pluggable experiment-result stores.

Public surface:

* :class:`ExperimentStore` — the abstract checksummed store interface
  (``get``/``put``/``contains``/``quarantine``/``purge``/``stats``).
* :class:`LocalFileStore` (``local:PATH``) — directory of pickles.
* :class:`SQLiteStore` (``sqlite:PATH``) — single WAL-mode database
  file, safe for concurrent processes.
* :func:`open_store` / :func:`resolve_store` — URL/path/instance →
  store resolution against :data:`STORE_BACKENDS`.
* :mod:`repro.store.retry` — transient-vs-permanent error
  classification and the one store wrapper, :class:`RetryingStore`:
  bounded-backoff retries, with injected store-op faults firing inside
  each attempt.
* :mod:`repro.store.faults` — the ``REPRO_FAULTS`` deterministic
  fault plan (:class:`FaultPlan`): cell faults the runner fires around
  cell attempts, store-op faults the wrapper fires.

See DESIGN.md (“The experiment store and cell dispatch”) for the
architecture and CONTRIBUTING.md for the add-a-backend checklist.
"""

from .base import (
    STORE_BACKENDS,
    STORE_FORMAT_VERSION,
    STORE_MAGIC,
    CacheCorruptionWarning,
    ExperimentStore,
    PurgeResult,
    StoreSpec,
    StoreStats,
    decode_entry,
    encode_entry,
    open_store,
    register_backend,
    resolve_store,
)
from .faults import (
    FAULTS_ENV,
    Fault,
    FaultPlan,
    StoreFault,
    active_plan,
)
from .local import LocalFileStore
from .retry import (
    RetryingStore,
    call_with_retries,
    is_transient_store_error,
    store_retry_policy,
)
from .sqlite import SQLiteStore

__all__ = [
    "FAULTS_ENV",
    "STORE_BACKENDS",
    "STORE_FORMAT_VERSION",
    "STORE_MAGIC",
    "CacheCorruptionWarning",
    "ExperimentStore",
    "Fault",
    "FaultPlan",
    "LocalFileStore",
    "PurgeResult",
    "RetryingStore",
    "SQLiteStore",
    "StoreFault",
    "StoreSpec",
    "StoreStats",
    "active_plan",
    "call_with_retries",
    "decode_entry",
    "encode_entry",
    "is_transient_store_error",
    "open_store",
    "register_backend",
    "resolve_store",
    "store_retry_policy",
]
