"""The coordinator's record of one sweep: one span per experiment cell.

:class:`RunTelemetry` is the object the runner notifies
(:func:`repro.runner.run_cells` takes it through
:attr:`RunConfig.telemetry <repro.runner.RunConfig.telemetry>`).  It
keeps a :class:`CellSpan` per cell — status, attempts, retries, worker
losses and timings — in coordinator memory, and writes two things from
it: the run manifest's cell counts (:meth:`RunTelemetry.counts`) and
the coordinator's trace file (:meth:`RunTelemetry.write_trace`), which
the workers' trace files hang their spans under.  That trace is the
run's one per-cell record on disk.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from .trace import TraceWriter, span_id, trace_id_for, wall_now

if TYPE_CHECKING:  # avoid a runtime repro.runner <-> repro.obs cycle
    from ..runner.cells import Cell

__all__ = ["CellSpan", "RunTelemetry"]


class CellSpan:
    """Mutable lifecycle record of one cell within one run."""

    __slots__ = ("cell", "key", "status", "attempts", "retries", "losses",
                 "finished_s", "duration_s")

    def __init__(self, label: str, key: str) -> None:
        self.cell = label
        self.key = key
        self.status = "pending"
        self.attempts = 0
        self.retries = 0
        self.losses = 0
        #: Seconds from sweep start until the cell was done.
        self.finished_s: Optional[float] = None
        #: Worker-side seconds of the attempt that finished the cell.
        self.duration_s: Optional[float] = None


class RunTelemetry:
    """Collects cell spans for one ``run_cells`` sweep.

    The runner drives the lifecycle hooks; everything is parent-process
    state (worker processes never see this object), so recording cannot
    perturb cell execution or results.  ``trace_dir`` is where
    :meth:`write_trace` puts ``coordinator.jsonl``; a
    :class:`~repro.obs.session.TelemetrySession` points it at its
    ``traces/`` directory, and ``None`` keeps tracing off.
    """

    def __init__(self, experiment: str = "",
                 trace_dir: Optional[Path] = None) -> None:
        self.experiment = experiment
        self.trace_dir = trace_dir
        self.spans: List[CellSpan] = []
        self.trace_id: str = ""
        self._t0: Optional[float] = None
        self._wall0: Optional[float] = None
        #: ``(index, attempt) -> error_type`` of attempts that ended
        #: without a worker-side terminal span (worker reaped or killed
        #: for a timeout, loss budget exhausted, fleet aborted).
        self._lost: Dict[Tuple[int, int], str] = {}

    # -- lifecycle hooks (called by repro.runner) ----------------------------
    def begin(self, cells: Sequence["Cell"], keys: Sequence[str]) -> None:
        """Open one span per cell; all cells are queued at sweep start.

        With tracing enabled this also opens the sweep's trace: the
        trace ID (a pure function of the cell keys) is computed here,
        and :meth:`trace_context` hands it to each attempt.
        """
        self._t0 = time.monotonic()
        if self.trace_dir is not None:
            self.trace_id = trace_id_for(list(keys))
            self._wall0 = wall_now()
            self._lost = {}
        self.spans = [CellSpan(cell.label, key)
                      for cell, key in zip(cells, keys)]

    def _span(self, index: int) -> CellSpan:
        try:
            return self.spans[index]
        except IndexError:
            raise ConfigurationError(
                f"no span for cell index {index}; was begin() called?"
            ) from None

    def _elapsed(self) -> float:
        return time.monotonic() - self._t0 if self._t0 is not None else 0.0

    def cache_hit(self, index: int) -> None:
        """The cell's result was served from the content-addressed cache."""
        span = self._span(index)
        span.status = "cached"
        span.finished_s = self._elapsed()

    def retried(self, index: int, attempt: int) -> None:
        """Attempt ``attempt`` (1-based) failed and the cell will be
        retried."""
        span = self._span(index)
        span.attempts = max(span.attempts, attempt)
        span.retries += 1

    def lost(self, index: int) -> None:
        """The worker running the cell died."""
        self._span(index).losses += 1

    def completed(self, index: int, attempts: int, elapsed: float) -> None:
        """Attempt ``attempts`` produced the cell's result (``elapsed`` =
        worker-side seconds)."""
        self._finish(index, "ok", attempts, elapsed)

    def failed(self, index: int, attempts: int, elapsed: float) -> None:
        """The cell permanently failed after ``attempts`` attempts."""
        self._finish(index, "failed", attempts, elapsed)

    def _finish(self, index: int, status: str, attempts: int,
                elapsed: float) -> None:
        span = self._span(index)
        span.status = status
        span.attempts = max(span.attempts, attempts)
        span.finished_s = self._elapsed()
        span.duration_s = elapsed

    # -- distributed tracing -------------------------------------------------
    def trace_context(self, index: int) -> Optional[Dict[str, str]]:
        """Trace context to hand over with each attempt of cell ``index``.

        ``{"trace": ..., "parent": ...}`` — the parent is the cell
        span's derived ID, so any worker process can hang its
        ``claim``/``execute`` spans under the right node.  ``None``
        when tracing is off.
        """
        if not self.trace_id:
            return None
        span = self._span(index)
        return {"trace": self.trace_id,
                "parent": span_id(self.trace_id, "cell", span.key)}

    def trace_lost(self, index: int, error_type: str,
                   attempts: int) -> None:
        """Record a coordinator-side ``lost`` terminal for attempt
        ``attempts`` of cell ``index``.

        Only for attempts that ended *without* a worker-side terminal:
        a worker the coordinator reaped dead or killed for a timeout, a
        cell past its loss budget, an aborted fleet.  Worker-side
        failures already wrote their own ``nack`` span, and a second
        terminal would break the one-terminal-per-attempt invariant.
        Recording one attempt twice keeps the first record.
        """
        if self.trace_id:
            self._lost.setdefault((index, attempts), error_type)

    def write_trace(self) -> Optional[Path]:
        """Write the coordinator's trace file (root sweep + cell spans).

        Timestamps are the sweep-relative monotonic offsets the cell
        spans carry, rebased onto the wall-clock epoch captured at
        :meth:`begin` — so coordinator rows and worker rows (which
        stamp :func:`repro.obs.trace.wall_now` directly) share one
        timeline.  Every cell span starts at that epoch: all cells are
        queued at sweep start.  Returns ``None`` when tracing is off or
        no sweep ran.
        """
        if self.trace_dir is None or not self.trace_id:
            return None
        tid = self.trace_id
        wall0 = self._wall0

        def at(offset: Optional[float]) -> Optional[float]:
            if offset is None or wall0 is None:
                return None
            return wall0 + offset

        root_sid = span_id(tid, "sweep")
        rows: List[Dict[str, Any]] = [{
            "trace": tid, "span": root_sid, "parent": None,
            "kind": "sweep", "name": self.experiment or "sweep",
            "key": "", "attempt": 0, "status": "ok", "events": [],
            "wall": {"start": wall0, "end": wall_now(),
                     "worker": "coordinator"},
        }]
        for span in self.spans:
            rows.append({
                "trace": tid,
                "span": span_id(tid, "cell", span.key),
                "parent": root_sid, "kind": "cell", "name": span.cell,
                "key": span.key, "attempt": span.attempts,
                "status": span.status,
                "events": [],
                "wall": {"start": wall0, "end": at(span.finished_s),
                         "worker": "coordinator"},
            })
        for (index, attempts), error_type in self._lost.items():
            span = self.spans[index]
            rows.append({
                "trace": tid,
                "span": span_id(tid, "lost", span.key, attempts),
                "parent": span_id(tid, "cell", span.key), "kind": "lost",
                "name": span.cell, "key": span.key, "attempt": attempts,
                "status": "error",
                # Which failures end in a coordinator-side loss is a
                # fact of the schedule (who died when), not of the
                # computation, hence det=False.
                "events": [{"name": "lost", "det": False,
                            "error_type": error_type}],
                "wall": {"start": None, "end": at(span.finished_s),
                         "worker": "coordinator"},
            })
        writer = TraceWriter(self.trace_dir / "coordinator.jsonl")
        for row in rows:
            writer.write(row)
        writer.close()
        return writer.path

    # -- export ---------------------------------------------------------------
    def counts(self) -> Dict[str, int]:
        """Summary counters for the run manifest."""
        statuses = [span.status for span in self.spans]
        return {
            "total": len(self.spans),
            "completed": statuses.count("ok"),
            "cached": statuses.count("cached"),
            "failed": statuses.count("failed"),
            "retries": sum(span.retries for span in self.spans),
            "losses": sum(span.losses for span in self.spans),
        }
