"""The experiment store: a directory of checksummed pickles.

A :class:`LocalFileStore` persists experiment-cell results addressed
by their content hash (:func:`repro.runner.cache.cell_key`).  The store
is the durability layer of every sweep: cache hits short-circuit
execution, fresh results are persisted as each cell completes, and an
interrupted sweep resumes from whatever the store already holds.

Layout on disk (two-level fan-out keeps directories small)::

    <root>/<key[:2]>/<key>.pkl

Entries are written atomically (temp file + rename), so a killed run
never leaves a truncated entry behind, and runs overlapping on one
root each see whole entries; corrupt entries are quarantined in place
as ``<entry>.pkl.corrupt``.  Sidecar artifacts (failure manifests,
telemetry) live in subdirectories of the root.  :func:`open_store`
resolves a ``local:PATH`` URL, bare path, or ready instance to a store.
"""

from __future__ import annotations

import os
import tempfile
import warnings
from pathlib import Path
from typing import Any, Optional, Tuple, Union

from ..errors import ConfigurationError
from .base import (CacheCorruptionWarning, PurgeResult, StoreStats,
                   decode_entry, encode_entry)

__all__ = ["LocalFileStore", "StoreSpec", "open_store", "resolve_store"]


class LocalFileStore:
    """Pickle-per-entry store rooted at a directory (``local:PATH``).

    The store owns the entry format (:mod:`repro.store.base`),
    corruption quarantine and hit/miss accounting.
    """

    def __init__(self, root: Union[str, "os.PathLike[str]"]) -> None:
        self.root = Path(root)
        self._hits = 0
        self._misses = 0
        self._puts = 0
        self._quarantines = 0

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    def _read(self, key: str) -> Optional[bytes]:
        """Raw entry bytes, or ``None`` for a miss; an entry that exists
        but cannot be read warns with :class:`CacheCorruptionWarning`."""
        path = self.path_for(key)
        try:
            return path.read_bytes()
        except FileNotFoundError:
            return None
        except OSError as exc:
            warnings.warn(
                f"result-cache entry {key[:12]}... is unreadable "
                f"({type(exc).__name__}: {exc}); treating as a miss",
                CacheCorruptionWarning, stacklevel=3)
            return None

    def get(self, key: str) -> Tuple[bool, Any]:
        """``(hit, value)``; a missing entry is a clean miss.

        A *present but invalid* entry — bad header, SHA-256 mismatch,
        payload that will not unpickle — is quarantined with a
        :class:`CacheCorruptionWarning` and reported as a miss, so the
        cell recomputes while the corrupt bytes stay available for
        inspection.
        """
        blob = self._read(key)
        if blob is None:
            self._misses += 1
            return False, None
        value, reason = decode_entry(blob)
        if reason is None:
            self._hits += 1
            return True, value
        self._misses += 1
        self._quarantines += 1
        quarantined = self.quarantine(key)
        where = (f"quarantined to {quarantined}" if quarantined is not None
                 else "quarantine failed; entry left in place")
        warnings.warn(
            f"result-cache entry {key[:12]}... is corrupt ({reason}); "
            f"{where}; the cell will be recomputed",
            CacheCorruptionWarning, stacklevel=2)
        return False, None

    def put(self, key: str, value: Any) -> None:
        """Atomically persist ``value`` (checksummed) under ``key``."""
        self.write_raw(key, encode_entry(value))
        self._puts += 1

    def write_raw(self, key: str, blob: bytes) -> None:
        """Atomically write raw bytes under ``key``, bypassing entry
        encoding.

        Test and fault-injection hook (:mod:`repro.store.faults` uses
        it to plant corrupt entries); normal code wants :meth:`put`.
        """
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent,
                                   prefix=f".{key[:8]}-", suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(blob)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def quarantine(self, key: str) -> Optional[str]:
        """Move ``key``'s entry aside to ``*.pkl.corrupt``; None on failure."""
        path = self.path_for(key)
        target = path.with_name(path.name + ".corrupt")
        try:
            os.replace(path, target)
        except OSError:
            return None
        return str(target)

    def contains(self, key: str) -> bool:
        """Whether a live entry exists under ``key`` (no validation)."""
        return self.path_for(key).exists()

    def __contains__(self, key: str) -> bool:
        return self.contains(key)

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*/*.pkl"))

    def quarantined_count(self) -> int:
        return sum(1 for _ in self.root.glob("*/*.pkl.corrupt"))

    def purge(self) -> PurgeResult:
        """Delete every entry and every quarantined ``*.pkl.corrupt``
        file, counting the two separately."""
        removed = corrupt = 0
        for entry in self.root.glob("*/*.pkl"):
            try:
                entry.unlink()
                removed += 1
            except OSError:
                pass
        for entry in self.root.glob("*/*.pkl.corrupt"):
            try:
                entry.unlink()
                corrupt += 1
            except OSError:
                pass
        return PurgeResult(entries=removed, quarantined=corrupt)

    def stats(self) -> StoreStats:
        """Current contents plus this instance's session traffic."""
        return StoreStats(
            location=self.url, entries=len(self),
            quarantined=self.quarantined_count(), hits=self._hits,
            misses=self._misses, puts=self._puts,
            quarantines=self._quarantines)

    @property
    def url(self) -> str:
        """``local:<root>``, which reopens this store."""
        return f"local:{self.root}"

    def aux_dir(self, name: str) -> Path:
        """Directory for sidecar artifacts (``failures``, ``telemetry``)
        tied to this store's lifetime.  Created on demand."""
        path = self.root / name
        path.mkdir(parents=True, exist_ok=True)
        return path

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.url!r})"


StoreSpec = Union[str, "os.PathLike[str]", LocalFileStore]


def open_store(spec: StoreSpec) -> LocalFileStore:
    """Resolve a store URL, bare path, or instance to a store object.

    ``local:PATH`` and a bare path (no scheme, or a one-letter Windows
    drive) open a :class:`LocalFileStore` there.  Any other scheme
    raises :class:`~repro.errors.ConfigurationError`.
    """
    if isinstance(spec, LocalFileStore):
        return spec
    text = os.fspath(spec)
    scheme, sep, rest = text.partition(":")
    if not sep or len(scheme) == 1:
        return LocalFileStore(text)
    if scheme != "local":
        raise ConfigurationError(
            f"unknown store scheme {scheme!r} in {text!r}; expected "
            f"local:PATH or a bare directory path")
    if not rest:
        raise ConfigurationError(
            f"store URL {text!r} has no path after the scheme")
    return LocalFileStore(rest)


def resolve_store(spec: Optional[StoreSpec]) -> Optional[LocalFileStore]:
    """:func:`open_store`, with ``None`` passing through (no store)."""
    return None if spec is None else open_store(spec)
