"""One telemetry-enabled run: directory layout, activation, manifest.

:class:`TelemetrySession` owns the on-disk telemetry directory for one
experiment run::

    <dir>/
        manifest.json     run manifest (version, config, counts, wall)
        traces/*.jsonl    the sweep's trace, the one per-cell record:
                          coordinator.jsonl plus one file per worker
                          process; see repro.obs.trace
        series/*.jsonl    per-partition time series, one file per
                          simulation a cell ran (deterministic)
        lifecycle/*.jsonl partition control-plane events (create /
                          retire / retarget), written only by cells
                          whose caches saw lifecycle activity
        profile/*.prof    optional cProfile captures (wall-clock)

Used as a context manager around the runner call::

    with TelemetrySession(path, experiment="fig3") as session:
        run_cells(cells, RunConfig(telemetry=session.telemetry))

``__enter__`` clears what an earlier run left in the four per-run
subdirectories and exports the :mod:`repro.obs.runtime` environment
variables, so worker processes spawned afterwards record series and
trace spans; ``__exit__`` restores the environment and writes the
coordinator's trace and the manifest.  The manifest separates the
deterministic facts of the run (version, configuration, cell counts)
from everything wall-clock, which lives under the single ``"wall"``
key — mirroring the trace convention — so reproducibility checks can
compare manifests minus ``"wall"``.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from contextlib import contextmanager
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from ..errors import ConfigurationError
from .runtime import (
    DEFAULT_INTERVAL,
    TELEMETRY_ENV,
    TELEMETRY_INTERVAL_ENV,
    TELEMETRY_PROFILE_ENV,
)
from .spans import RunTelemetry

__all__ = ["TelemetrySession"]

#: The subdirectories one run writes into.
_PER_RUN = ("series", "lifecycle", "profile", "traces")


def _package_version() -> str:
    from .. import __version__  # deferred: repro/__init__ may be mid-import
    return __version__


class TelemetrySession:
    """Telemetry directory + activation for one experiment run."""

    def __init__(self, path: Union[str, Path], *, experiment: str = "",
                 interval: int = DEFAULT_INTERVAL,
                 profile: bool = False) -> None:
        if interval < 1:
            raise ConfigurationError(
                f"sampling interval must be >= 1, got {interval}")
        self.dir = Path(path)
        self.experiment = experiment
        self.interval = int(interval)
        self.profile = bool(profile)
        #: Hand this to ``RunConfig(telemetry=...)`` to trace the sweep.
        self.telemetry = RunTelemetry(experiment, self.dir / "traces")
        self._phases: List[Tuple[str, float]] = []
        self._saved_env: Dict[str, Optional[str]] = {}
        self._t0: Optional[float] = None
        self._started_iso = ""
        self._active = False

    # -- activation -----------------------------------------------------------
    def activate(self) -> "TelemetrySession":
        """Clear the per-run subdirectories, create the directory and
        export the worker environment."""
        if self._active:
            raise ConfigurationError("telemetry session is already active")
        # A reused directory must not mix runs: the manifest lists what
        # these hold, and trace files are append-mode (workers reopen
        # them across items).
        for name in _PER_RUN:
            shutil.rmtree(self.dir / name, ignore_errors=True)
        (self.dir / "series").mkdir(parents=True, exist_ok=True)
        env = {
            TELEMETRY_ENV: str(self.dir),
            TELEMETRY_INTERVAL_ENV: str(self.interval),
            TELEMETRY_PROFILE_ENV: "1" if self.profile else "0",
        }
        self._saved_env = {key: os.environ.get(key) for key in env}
        os.environ.update(env)
        self._t0 = time.monotonic()
        # Wall-clock by design: lands only under the manifest's "wall" key.
        self._started_iso = datetime.now(timezone.utc).isoformat()  # reprolint: disable=DET002
        self._active = True
        return self

    def __enter__(self) -> "TelemetrySession":
        return self.activate()

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.finish()

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Time one named phase of the run (build / execute / render ...).

        Timings are wall-clock and appear only under the manifest's
        ``"wall"`` key, in phase order.
        """
        start = time.monotonic()
        try:
            yield
        finally:
            self._phases.append((name, time.monotonic() - start))

    # -- artifacts ------------------------------------------------------------
    def manifest(self) -> Dict[str, Any]:
        """The run manifest; wall-clock facts live under ``"wall"``.

        ``artifacts`` lists the ``*.jsonl`` files of ``series/``, and of
        ``lifecycle/`` and ``traces/`` when they have any: lifecycle
        files appear only when a cell saw partition control-plane
        activity, trace files only once a sweep ran.
        """
        artifacts: Dict[str, Any] = {}
        for name in ("series", "lifecycle", "traces"):
            files = sorted(p.name for p in (self.dir / name).glob("*.jsonl"))
            if files or name == "series":
                artifacts[name] = files
        return {
            "version": _package_version(),
            "experiment": self.experiment,
            "interval": self.interval,
            "profile": self.profile,
            "cells": self.telemetry.counts(),
            "artifacts": artifacts,
            "wall": {
                "started_utc": self._started_iso,
                "total_s": (time.monotonic() - self._t0
                            if self._t0 is not None else None),
                "phases": [
                    {"name": name, "seconds": seconds}
                    for name, seconds in self._phases],
            },
        }

    def finish(self) -> Path:
        """Restore the environment and write the coordinator's trace and
        the manifest."""
        if self._active:
            for key, value in self._saved_env.items():
                if value is None:
                    os.environ.pop(key, None)
                else:
                    os.environ[key] = value
            self._saved_env = {}
            self._active = False
        self.telemetry.write_trace()
        manifest_path = self.dir / "manifest.json"
        with open(manifest_path, "w", encoding="utf-8") as fh:
            json.dump(self.manifest(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        return manifest_path
