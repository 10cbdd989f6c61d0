"""Content-addressed cell cache keys.

A cell's key is the SHA-256 of a canonical JSON encoding of its full
identity (experiment name, executing function, complete argument tuple
including the config dataclass) plus a code-version salt
(:func:`cell_key` / :func:`canonical_encode` / :func:`code_version_salt`).
Identical configs therefore hit the same entry across runs *and across
processes*, while any change to the config, the sweep coordinates, the
library version or the entry format produces a fresh key.

The storage behind those keys is the pluggable :mod:`repro.store`
package: :class:`~repro.store.LocalFileStore` (a directory of pickles),
:class:`~repro.store.SQLiteStore` (a single-file alternative), and
:func:`~repro.store.open_store` to resolve ``local:PATH`` /
``sqlite:PATH`` URLs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from pathlib import Path
from typing import Any, Optional

from ..errors import ConfigurationError
from ..store import STORE_FORMAT_VERSION, CacheCorruptionWarning
from .cells import Cell

__all__ = [
    "CacheCorruptionWarning",
    "canonical_encode",
    "cell_key",
    "code_version_salt",
    "default_cache_dir",
]

#: Environment variable overriding the default cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Environment variable appended to the salt (tests use it to force
#: invalidation without touching the library version).
CACHE_SALT_ENV = "REPRO_CACHE_SALT"


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` or ``~/.cache/repro-experiments``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env).expanduser()
    return Path.home() / ".cache" / "repro-experiments"


def code_version_salt() -> str:
    """Version salt mixed into every cache key.

    Combines the library version with the entry-format version so
    upgrading either invalidates stale entries wholesale.
    """
    from .. import __version__  # lazy: avoids a cycle at package init

    salt = f"repro-{__version__}/cache-{STORE_FORMAT_VERSION}"
    extra = os.environ.get(CACHE_SALT_ENV)
    return f"{salt}/{extra}" if extra else salt


def canonical_encode(obj: Any) -> Any:
    """Reduce ``obj`` to a JSON-stable structure.

    Supports the vocabulary experiment configs are built from: ``None``,
    ``bool``, ``int``, ``float``, ``str``, tuples/lists, string-keyed
    dicts and (nested) dataclasses.  Anything else raises
    :class:`~repro.errors.ConfigurationError` — failing loudly beats
    silently computing a wrong key.
    """
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, (list, tuple)):
        return [canonical_encode(v) for v in obj]
    if isinstance(obj, dict):
        for k in obj:
            if not isinstance(k, str):
                raise ConfigurationError(
                    f"cache keys require string dict keys, got {k!r}")
        return {k: canonical_encode(obj[k]) for k in sorted(obj)}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        cls = type(obj)
        return {
            "__dataclass__": f"{cls.__module__}:{cls.__qualname__}",
            "fields": {f.name: canonical_encode(getattr(obj, f.name))
                       for f in dataclasses.fields(obj)},
        }
    raise ConfigurationError(
        f"cannot canonically encode {type(obj).__name__!r} value {obj!r} "
        f"for a cell cache key")


def cell_key(cell: Cell, salt: Optional[str] = None) -> str:
    """SHA-256 hex key for a cell: canonical JSON of its fingerprint."""
    payload = {
        "salt": salt if salt is not None else code_version_salt(),
        "cell": canonical_encode(cell.fingerprint()),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
