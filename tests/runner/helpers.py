"""Module-level cell functions for runner tests.

Cells are pickled by reference into worker processes, so test cell
bodies must live at module scope (not inside test functions).
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass
from pathlib import Path

from repro.runner import Cell
from repro.store import open_store

from ..store.helpers import pause_then


def square(config, x):
    return x * x


def touch_and_return(sentinel_dir, name, value):
    """Record that this cell executed, then return ``value``."""
    Path(sentinel_dir, name).write_text("ran")
    return value


def raise_value_error(message):
    raise ValueError(message)


def raise_configuration_error(message):
    from repro.errors import ConfigurationError
    raise ConfigurationError(message)


def kill_after_peers(sentinel_dir, peers):
    """Wait until every peer cell has recorded execution, then die hard
    (simulating a worker killed mid-sweep)."""
    deadline = time.time() + 30
    while time.time() < deadline:
        if all(Path(sentinel_dir, p).exists() for p in peers):
            break
        time.sleep(0.01)
    os.kill(os.getpid(), signal.SIGKILL)


def kill_after_cached(cache_root, count):
    """Die hard once the parent has persisted ``count`` cache entries.

    Polling the cache (not execution sentinels) makes the interrupt test
    deterministic: peers' results are on disk, not merely in flight."""
    deadline = time.time() + 30
    while time.time() < deadline:
        if len(list(Path(cache_root).rglob("*.pkl"))) >= count:
            break
        time.sleep(0.01)
    os.kill(os.getpid(), signal.SIGKILL)


def square_cells(n, config=None):
    return [Cell("squares", (i,), square, (config, i)) for i in range(n)]


def nap_cells(n, seconds):
    """Cells that each sleep ``seconds``, then return their index."""
    return [Cell("nap", (i,), pause_then, (seconds, i)) for i in range(n)]


def log_then_nap(log_dir, index, seconds):
    """Record in ``log_dir`` when this attempt started (wall clock),
    then sleep ``seconds`` and return ``index``."""
    Path(log_dir, f"start-{index}-{os.getpid()}").write_text(
        repr(time.time()))
    time.sleep(seconds)
    return index


def logged_nap_cells(n, seconds, log_dir):
    """Cells that each log their start, then sleep ``seconds``."""
    return [Cell("lognap", (i,), log_then_nap, (str(log_dir), i, seconds))
            for i in range(n)]


def succeed_after(sentinel_dir, name, failures, value):
    """Raise ``ValueError`` on the first ``failures`` calls, then return
    ``value``.  Attempts are counted with marker files so the count
    survives process boundaries (each retry may land in a fresh worker)."""
    attempt = len(list(Path(sentinel_dir).glob(f"{name}.attempt*"))) + 1
    Path(sentinel_dir, f"{name}.attempt{attempt}").write_text("tried")
    if attempt <= failures:
        raise ValueError(f"{name}: transient failure on attempt {attempt}")
    return value


def sleep_forever():
    """Hang well past any test's per-cell timeout."""
    time.sleep(600)


def kill_once(sentinel_dir, name, value):
    """Die hard on the first call, return ``value`` on the retry."""
    marker = Path(sentinel_dir, f"{name}.killed")
    if not marker.exists():
        marker.write_text("killed")
        os.kill(os.getpid(), signal.SIGKILL)
    return value


def interrupt_once(sentinel_dir, store_url, coordinator, value):
    """Ctrl-C the ``coordinator`` process on the first call, once it has
    stored a result, then hang until killed; return ``value`` on the
    rerun.  Run by the coordinator itself, the interrupt is raised
    inside this cell."""
    marker = Path(sentinel_dir, "interrupted")
    if marker.exists():
        return value
    marker.write_text("interrupted")
    store = open_store(store_url)
    try:
        deadline = time.time() + 30
        while not len(store) and time.time() < deadline:
            time.sleep(0.01)
    finally:
        store.close()
    os.kill(coordinator, signal.SIGINT)
    time.sleep(60)
    return value


@dataclass(frozen=True)
class FlakyConfig:
    """Config for CLI-registered test experiments (picklable, with the
    scale constructors the registry expects)."""

    n: int = 3

    @classmethod
    def smoke(cls):
        return cls(n=3)

    scaled = paper = smoke
