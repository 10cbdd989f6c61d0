"""Module-scope helpers for store tests (picklable into workers)."""

from __future__ import annotations

import time
from typing import Any, List, Tuple

from repro.store import ExperimentStore


def make_store(backend, tmp_path):
    """Instantiate ``backend`` (a registered store class) under tmp_path."""
    if backend.scheme == "sqlite":
        return backend(tmp_path / "store.sqlite")
    return backend(tmp_path / "store")


def put_many(store: ExperimentStore, pairs: List[Tuple[str, Any]]) -> int:
    """Worker body for concurrent-put tests: put every pair, count them."""
    for key, value in pairs:
        store.put(key, value)
    return len(pairs)


def get_many(store: ExperimentStore, keys: List[str]) -> List[Any]:
    """Worker body for concurrent-get tests."""
    return [store.get(key) for key in keys]


def key_of(n: int) -> str:
    """A deterministic 64-hex-char pseudo-key for test entry ``n``."""
    return f"{n:064x}"


def pause_then(seconds: float, value: Any) -> Any:
    """Cell body: sleep ``seconds``, then return ``value``."""
    time.sleep(seconds)
    return value
