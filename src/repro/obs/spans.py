"""The coordinator's record of one sweep: one span per experiment cell.

:class:`RunTelemetry` is the object the runner notifies
(:func:`repro.runner.run_cells` takes it through
:attr:`RunConfig.telemetry <repro.runner.RunConfig.telemetry>`).  It
keeps a :class:`CellSpan` per cell — status, attempts, retries, worker
losses and timings — in coordinator memory, and writes two things from
it: the run manifest's cell counts (:meth:`RunTelemetry.counts`) and,
when tracing, the sweep's trace (:meth:`RunTelemetry.write_trace`).
It is the trace's only writer: each attempt's record comes back with
its worker's answer and is folded into one row per attempt here.  That
trace is the run's one per-cell record on disk.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from .schema import header_line
from .trace import TRACE_FILE, span_id, trace_id_for, wall_now

if TYPE_CHECKING:  # avoid a runtime repro.runner <-> repro.obs cycle
    from ..runner.cells import Cell

__all__ = ["CellSpan", "Record", "RunTelemetry"]

#: What a traced attempt returns with its answer: the monotonic
#: ``(start, end)`` it ran in, which the coordinator rebases onto the
#: wall clock, and the deterministic events it saw.
Record = Tuple[float, float, List[Dict[str, Any]]]


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
    :meth:`write_trace` puts ``trace.jsonl``; a
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
        self._wall0 = 0.0
        #: Each cell's attempt rows, in the order they were recorded.
        self._rows: List[List[Dict[str, Any]]] = []

    # -- lifecycle hooks (called by repro.runner) ----------------------------
    def begin(self, cells: Sequence["Cell"], keys: Sequence[str]) -> None:
        """Open one span per cell; all cells are queued at sweep start.

        With tracing enabled this also opens the sweep's trace: the
        trace ID (a pure function of the cell keys) and the wall-clock
        epoch every coordinator timestamp is rebased onto.
        """
        self._t0 = time.monotonic()
        if self.trace_dir is not None:
            self.trace_id = trace_id_for(list(keys))
            self._wall0 = wall_now()
        self.spans = [CellSpan(cell.label, key)
                      for cell, key in zip(cells, keys)]
        self._rows = [[] for _ in self.spans]

    def _span(self, index: int) -> CellSpan:
        try:
            return self.spans[index]
        except IndexError:
            raise ConfigurationError(
                f"no span for cell index {index}; was begin() called?"
            ) from None

    def _elapsed(self, now: Optional[float] = None) -> float:
        """Seconds from sweep start to the monotonic time ``now``
        (default: the present)."""
        if self._t0 is None:
            return 0.0
        return (time.monotonic() if now is None else now) - self._t0

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
        self._annotate(index, attempt, "retry_scheduled")

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
        self._annotate(index, attempts, "attempts_exhausted")

    def _finish(self, index: int, status: str, attempts: int,
                elapsed: float) -> None:
        span = self._span(index)
        span.status = status
        span.attempts = max(span.attempts, attempts)
        span.finished_s = self._elapsed()
        span.duration_s = elapsed

    # -- tracing -------------------------------------------------------------
    def executed(self, index: int, attempt: int, record: Record, pid: int,
                 error_type: Optional[str]) -> None:
        """Fold the record of attempt ``attempt`` of cell ``index``, which
        answered, into its ``execute`` row.

        ``record`` is the ``(start, end, events)`` the worker (process
        ``pid``) returned with its answer; an answered failure (an
        ``error_type``, else ``None``) gets status ``error`` and an
        ``error`` event after the worker's own.
        """
        start, end, events = record
        events = list(events)
        if error_type is not None:
            events.append({"name": "error", "det": True, "error": error_type})
        self._attempt_row(index, "execute", attempt,
                          "ok" if error_type is None else "error", events,
                          self._at(start), self._at(end), pid)

    def trace_lost(self, index: int, attempt: int, error_type: str,
                   handed_off: Optional[float] = None,
                   pid: Optional[int] = None) -> None:
        """Record a ``lost`` row for attempt ``attempt`` of cell ``index``,
        ending now: its worker ``pid`` died or was killed for a timeout,
        or the attempt never started.

        ``handed_off`` is the monotonic time the attempt went to its
        worker, ``None`` for an attempt that never started.
        """
        # Which failures end in a lost attempt is a fact of the schedule
        # (who died when), not of the computation, hence det=False.
        self._attempt_row(
            index, "lost", attempt, "error",
            [{"name": "lost", "det": False, "error_type": error_type}],
            self._at(handed_off), self._at(time.monotonic()), pid)

    def _at(self, monotonic: Optional[float]) -> Optional[float]:
        """The monotonic time ``monotonic`` on the wall clock: every trace
        timestamp is rebased onto the epoch captured at :meth:`begin`."""
        if monotonic is None:
            return None
        return self._wall0 + self._elapsed(monotonic)

    def _attempt_row(self, index: int, kind: str, attempt: int, status: str,
                     events: List[Dict[str, Any]], start: Optional[float],
                     end: Optional[float], pid: Optional[int]) -> None:
        if self.trace_id:
            self._rows[index].append(self._row(
                kind, self._span(index), attempt, status, events, start, end,
                "" if pid is None else f"pid-{pid}"))

    def _annotate(self, index: int, attempt: int, event: str) -> None:
        """Append the deterministic ``event`` to the cell's last row when
        that is the ``execute`` row of ``attempt``: the decision a
        failed answer led to.  A lost attempt's row stays as it is."""
        rows = self._rows[index] if self.trace_id else []
        if rows and rows[-1]["kind"] == "execute" \
                and rows[-1]["attempt"] == attempt:
            rows[-1]["events"].append({"name": event, "det": True})

    def _row(self, kind: str, span: Optional[CellSpan], attempt: int,
             status: str, events: List[Dict[str, Any]],
             start: Optional[float], end: Optional[float],
             worker: str) -> Dict[str, Any]:
        """One trace row: of the sweep when ``span`` is ``None``, else of
        the cell or of one of its attempts.  A cell's ``attempt`` is the
        number of attempts it took, so only an attempt's span ID depends
        on it."""
        tid = self.trace_id
        if span is None:
            name, key, parent = self.experiment or "sweep", "", None
            sid = span_id(tid, kind)
        elif kind == "cell":
            name, key, parent = span.cell, span.key, span_id(tid, "sweep")
            sid = span_id(tid, kind, key)
        else:
            name, key = span.cell, span.key
            parent = span_id(tid, "cell", key)
            sid = span_id(tid, kind, key, attempt)
        return {"trace": tid, "span": sid, "parent": parent, "kind": kind,
                "name": name, "key": key, "attempt": attempt,
                "status": status, "events": events,
                "wall": {"start": start, "end": end, "worker": worker}}

    def trace_rows(self) -> List[Dict[str, Any]]:
        """The sweep's trace: the root ``sweep`` row, then each cell's
        row followed by its attempt rows, in cell order (none when
        tracing is off).

        Every timestamp is a monotonic reading — the coordinator's own,
        or a worker's record — rebased onto the wall-clock epoch captured
        at :meth:`begin`, so all rows share one timeline.  Every cell row
        starts at that epoch: all cells are queued at sweep start.
        """
        if not self.trace_id:
            return []
        wall0 = self._wall0
        rows = [self._row("sweep", None, 0, "ok", [], wall0,
                          self._at(time.monotonic()), "coordinator")]
        for span, attempts in zip(self.spans, self._rows):
            end = (None if span.finished_s is None
                   else wall0 + span.finished_s)
            rows.append(self._row("cell", span, span.attempts, span.status,
                                  [], wall0, end, "coordinator"))
            rows.extend(attempts)
        return rows

    def write_trace(self) -> Optional[Path]:
        """Write :meth:`trace_rows` to ``trace_dir/trace.jsonl`` in one go,
        through a temporary file and ``os.replace``.  Returns ``None``
        when tracing is off or no sweep ran."""
        rows = self.trace_rows()
        if self.trace_dir is None or not rows:
            return None
        path = self.trace_dir / TRACE_FILE
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + ".tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(header_line("trace") + "\n")
            for row in rows:
                fh.write(json.dumps(row, sort_keys=True,
                                    separators=(",", ":")) + "\n")
        os.replace(tmp, path)
        return path

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
