"""The experiment store's entry format and the figures it reports.

Every entry the store (:class:`~repro.store.LocalFileStore`) holds is
in the checksummed v2 layout::

    repro/result-cache/v2\\n<sha256-hex of payload>\\n<pickled payload>

so a present-but-invalid entry (bad header, checksum mismatch,
unpicklable payload) is detected on read, **quarantined** with a
:class:`CacheCorruptionWarning` and treated as a miss, never silently
recomputed over.  A missing entry is the one silent case.
"""

from __future__ import annotations

import hashlib
import pickle
from dataclasses import dataclass
from typing import Any, NamedTuple, Optional, Tuple

__all__ = [
    "STORE_FORMAT_VERSION",
    "STORE_MAGIC",
    "CacheCorruptionWarning",
    "PurgeResult",
    "StoreStats",
    "decode_entry",
    "encode_entry",
]

#: Bump to invalidate every existing entry after a format change.
#: v2: checksummed entry header (STORE_MAGIC + SHA-256 + payload).
STORE_FORMAT_VERSION = 2

#: Leading bytes of every v2 entry, followed by the 64-hex-char SHA-256
#: of the pickled payload, a newline, then the payload itself.
STORE_MAGIC = b"repro/result-cache/v2\n"


class CacheCorruptionWarning(RuntimeWarning):
    """A store entry failed validation and was quarantined."""


class PurgeResult(NamedTuple):
    """What :meth:`LocalFileStore.purge <repro.store.LocalFileStore.purge>`
    removed.

    ``entries`` counts live results deleted; ``quarantined`` counts
    quarantined corrupt entries deleted — reported separately because a
    nonzero count is evidence of earlier corruption worth knowing about
    even while cleaning up.
    """

    entries: int
    quarantined: int

    @property
    def total(self) -> int:
        """Everything removed, live and quarantined."""
        return self.entries + self.quarantined


@dataclass(frozen=True)
class StoreStats:
    """Deterministic facts about a store plus this instance's traffic.

    ``entries`` / ``quarantined`` describe the store's current contents;
    ``hits`` / ``misses`` / ``puts`` / ``quarantines`` count this
    instance's session traffic (they reset with the object, not the
    backing storage).
    """

    location: str
    entries: int
    quarantined: int
    hits: int
    misses: int
    puts: int
    quarantines: int


def encode_entry(value: Any) -> bytes:
    """Serialize ``value`` into the checksummed v2 entry layout."""
    payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    digest = hashlib.sha256(payload).hexdigest().encode("ascii")
    return STORE_MAGIC + digest + b"\n" + payload


def decode_entry(blob: bytes) -> Tuple[Any, Optional[str]]:
    """``(value, None)`` for a valid entry, ``(None, reason)`` otherwise."""
    head = len(STORE_MAGIC)
    if not blob.startswith(STORE_MAGIC) or blob[head + 64:head + 65] != b"\n":
        return None, "missing or malformed entry header"
    digest = blob[head:head + 64]
    payload = blob[head + 65:]
    if hashlib.sha256(payload).hexdigest().encode("ascii") != digest:
        return None, "SHA-256 checksum mismatch"
    try:
        return pickle.loads(payload), None
    except Exception as exc:
        return None, (f"checksummed payload failed to unpickle "
                      f"({type(exc).__name__}: {exc})")
