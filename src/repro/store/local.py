"""Directory-of-pickles store backend: the original on-disk layout.

Layout on disk (two-level fan-out keeps directories small)::

    <root>/<key[:2]>/<key>.pkl

Entries are written atomically (temp file + rename), so a killed run
never leaves a truncated entry behind; corrupt entries are quarantined
in place as ``<entry>.pkl.corrupt``.  Sidecar artifacts (failure
manifests, telemetry) live in subdirectories of the root; the work
queue lives in one SQLite database under the ``queue/`` sidecar
directory (:data:`QUEUE_DB`), since queue claims need transactions a
directory of files cannot give.
"""

from __future__ import annotations

import os
import tempfile
import warnings
from pathlib import Path
from typing import TYPE_CHECKING, List, Optional, Union

from .base import CacheCorruptionWarning, ExperimentStore, PurgeResult, register_backend
from .sqlite import SQLiteStore

if TYPE_CHECKING:
    from .queue import WorkQueue

__all__ = ["LocalFileStore", "QUEUE_DB"]

#: File name of the work-queue database inside ``aux_dir("queue")``.
QUEUE_DB = "queue.sqlite"


@register_backend
class LocalFileStore(ExperimentStore):
    """Pickle-per-entry store rooted at a directory (``local:PATH``)."""

    scheme = "local"

    def __init__(self, root: Union[str, "os.PathLike[str]"]) -> None:
        super().__init__()
        self.root = Path(root)
        self._queue_db: Optional[SQLiteStore] = None

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    def _read(self, key: str) -> Optional[bytes]:
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

    def _write(self, key: str, blob: bytes) -> None:
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
        return self.path_for(key).exists()

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

    @property
    def url(self) -> str:
        return f"local:{self.root}"

    def aux_dir(self, name: str) -> Path:
        path = self.root / name
        path.mkdir(parents=True, exist_ok=True)
        return path

    def _queue_store(self) -> SQLiteStore:
        if self._queue_db is None:
            self._queue_db = SQLiteStore(self.aux_dir("queue") / QUEUE_DB)
        return self._queue_db

    def make_queue(self, name: str) -> "WorkQueue":
        from .queue import SQLiteWorkQueue

        return SQLiteWorkQueue(self._queue_store(), name)

    def queues(self) -> List[str]:
        if not (self.root / "queue" / QUEUE_DB).is_file():
            return []
        return self._queue_store().queues()

    def close(self) -> None:
        if self._queue_db is not None:
            self._queue_db.close()
