"""The experiment-result store.

Public surface:

* :class:`LocalFileStore` (``local:PATH``) — the checksummed store, a
  directory of pickles
  (``get``/``put``/``contains``/``quarantine``/``purge``/``stats``).
* :func:`open_store` / :func:`resolve_store` — URL/path/instance →
  store resolution; any scheme but ``local`` is refused.
* :mod:`repro.store.base` — the checksummed v2 entry format.
* :mod:`repro.store.faults` — the ``REPRO_FAULTS`` deterministic
  fault plan (:class:`FaultPlan`): cell faults the runner fires around
  cell attempts.

See DESIGN.md (“The experiment store and cell dispatch”) for the
architecture.
"""

from .base import (
    STORE_FORMAT_VERSION,
    STORE_MAGIC,
    CacheCorruptionWarning,
    PurgeResult,
    StoreStats,
    decode_entry,
    encode_entry,
)
from .faults import (
    FAULTS_ENV,
    Fault,
    FaultPlan,
    active_plan,
)
from .local import LocalFileStore, StoreSpec, open_store, resolve_store

__all__ = [
    "FAULTS_ENV",
    "STORE_FORMAT_VERSION",
    "STORE_MAGIC",
    "CacheCorruptionWarning",
    "Fault",
    "FaultPlan",
    "LocalFileStore",
    "PurgeResult",
    "StoreSpec",
    "StoreStats",
    "active_plan",
    "decode_entry",
    "encode_entry",
    "open_store",
    "resolve_store",
]
