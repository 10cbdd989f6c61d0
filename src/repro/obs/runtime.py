"""Process-wide telemetry runtime: how worker processes find out.

Experiment cells execute inside queue workers — often other processes
— and build their caches internally, so the runner cannot hand a
recorder object to them.  Activation therefore travels through the
environment: :class:`~repro.obs.session.TelemetrySession` sets
``REPRO_TELEMETRY`` (the telemetry directory) before any worker starts,
workers inherit it, and the simulation drivers
(:meth:`repro.sim.engine.MultiprogramSimulator.run`, the mixing drivers
in :mod:`repro.trace.mixing`) wrap their access loop in
:func:`record_series`.  With the variable unset, :func:`record_series`
is an early-out no-op: no recorder is created, no observer is
subscribed, and the compiled access kernel is exactly the
telemetry-free one.

The runner tells each worker which cell it is executing via
:func:`set_cell`, so series files land at deterministic paths
(``series/<cell-label>-<n>.jsonl``, ``n`` counting the simulations the
cell ran, in execution order).  A retried cell calls :func:`set_cell`
again and rewrites the same paths — under a deterministic fault plan the
surviving bytes are identical.

Environment variables:

``REPRO_TELEMETRY``
    Telemetry directory for the current run; presence enables series
    recording.
``REPRO_TELEMETRY_INTERVAL``
    Sampling window in accesses (default ``1024``).
``REPRO_TELEMETRY_PROFILE``
    When ``"1"``, each cell execution is additionally captured under
    ``cProfile`` into ``profile/<cell-label>.prof``.
"""

from __future__ import annotations

import cProfile
import json
import os
import re
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Optional, Tuple

from ..errors import ConfigurationError

if TYPE_CHECKING:
    from .timeseries import TimeSeriesRecorder

__all__ = [
    "TELEMETRY_ENV",
    "TELEMETRY_INTERVAL_ENV",
    "TELEMETRY_PROFILE_ENV",
    "maybe_profile",
    "record_series",
    "series_config",
    "set_cell",
    "write_lifecycle",
]

TELEMETRY_ENV = "REPRO_TELEMETRY"
TELEMETRY_INTERVAL_ENV = "REPRO_TELEMETRY_INTERVAL"
TELEMETRY_PROFILE_ENV = "REPRO_TELEMETRY_PROFILE"

DEFAULT_INTERVAL = 1024

#: Label of the cell this process is currently executing ("" outside
#: cell execution, e.g. telemetry-enabled API calls without the runner).
_cell_label = ""
#: Per-process sequence number of the next series file for the current
#: cell (several simulations per cell -> several series files).
_cell_seq = 0
#: Per-process sequence number of the next lifecycle file, same scheme.
_lifecycle_seq = 0


def series_config() -> Optional[Tuple[Path, int]]:
    """``(telemetry_dir, interval)`` when recording is on, else ``None``."""
    root = os.environ.get(TELEMETRY_ENV)
    if not root:
        return None
    raw = os.environ.get(TELEMETRY_INTERVAL_ENV, "")
    try:
        interval = int(raw) if raw else DEFAULT_INTERVAL
    except ValueError:
        raise ConfigurationError(
            f"{TELEMETRY_INTERVAL_ENV} must be an integer, got {raw!r}")
    if interval < 1:
        raise ConfigurationError(
            f"{TELEMETRY_INTERVAL_ENV} must be >= 1, got {interval}")
    return Path(root), interval


def set_cell(label: str) -> None:
    """Name the cell this process is about to execute (runner-called).

    Resets the series sequence counter so a retried cell rewrites the
    same file paths instead of appending new ones.
    """
    global _cell_label, _cell_seq, _lifecycle_seq
    _cell_label = label
    _cell_seq = 0
    _lifecycle_seq = 0


def _slug(label: str) -> str:
    """Filesystem-safe form of a cell label."""
    return re.sub(r"[^A-Za-z0-9._-]+", "_", label) or "series"


@contextmanager
def record_series(cache) -> Iterator[Optional["TimeSeriesRecorder"]]:
    """Record a per-partition time series of ``cache`` while the body runs.

    No-op (yields ``None``) unless ``REPRO_TELEMETRY`` is set.  When
    active, subscribes a :class:`~repro.obs.timeseries.TimeSeriesRecorder`
    *before* the body captures ``cache.access`` — subscription rebuilds
    the compiled kernel with the recorder inlined — and on exit
    unsubscribes it (restoring the telemetry-free kernel) and writes
    ``series/<cell>-<n>.jsonl`` under the telemetry directory.
    """
    config = series_config()
    if config is None:
        yield None
        return
    global _cell_seq
    from .timeseries import TimeSeriesRecorder
    root, interval = config
    recorder = TimeSeriesRecorder(interval).attach(cache)
    try:
        with cache.events.subscribed(recorder):
            yield recorder
    finally:
        seq = _cell_seq
        _cell_seq = seq + 1
        name = f"{_slug(_cell_label)}-{seq:03d}.jsonl"
        recorder.write_jsonl(root / "series" / name)


def write_lifecycle(cache) -> Optional[Path]:
    """Write ``cache``'s partition lifecycle log as a telemetry artifact.

    Emits ``lifecycle/<cell-label>-<n>.jsonl`` (one JSON object per
    control-plane event: create / retire / retarget, with the target
    snapshot and, when the driver stamped it, the global access index)
    under the telemetry directory.  No-op returning ``None`` unless
    ``REPRO_TELEMETRY`` is set and the log has at least one lifecycle
    event beyond plain retargets — steady-state runs that only ever
    call ``set_targets`` produce no lifecycle files, keeping their
    telemetry directories identical to pre-control-plane runs.
    """
    config = series_config()
    if config is None:
        return None
    log = getattr(cache, "lifecycle_log", None)
    if not log or all(row["event"] == "retarget" for row in log):
        return None
    global _lifecycle_seq
    root, _ = config
    seq = _lifecycle_seq
    _lifecycle_seq = seq + 1
    out = root / "lifecycle" / f"{_slug(_cell_label)}-{seq:03d}.jsonl"
    out.parent.mkdir(parents=True, exist_ok=True)
    from .schema import header_line
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(header_line("lifecycle") + "\n")
        for row in log:
            fh.write(json.dumps(row, sort_keys=True))
            fh.write("\n")
    return out


@contextmanager
def maybe_profile(label: str) -> Iterator[None]:
    """cProfile the body into ``profile/<label>.prof`` when enabled.

    Profiling is opt-in twice over: ``REPRO_TELEMETRY`` must point at a
    directory *and* ``REPRO_TELEMETRY_PROFILE`` must be ``"1"``.
    Profile files are wall-clock artifacts by nature and are never part
    of the byte-reproducibility contract.
    """
    config = series_config()
    if config is None or os.environ.get(TELEMETRY_PROFILE_ENV) != "1":
        yield
        return
    root, _ = config
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        yield
    finally:
        profiler.disable()
        out = root / "profile" / f"{_slug(label)}.prof"
        out.parent.mkdir(parents=True, exist_ok=True)
        profiler.dump_stats(str(out))
