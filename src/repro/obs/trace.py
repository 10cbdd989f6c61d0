"""Deterministic distributed tracing for sweeps.

One sweep = one trace.  The coordinator opens a root ``sweep`` span and
one ``cell`` span per cell; whichever worker executes an attempt — the
coordinator's own thread or a forked worker — appends ``claim`` /
``execute`` / ``ack`` / ``nack`` child spans to its own
``traces/<worker>.jsonl`` file, parented through the trace context each
queue item carries.  The stitcher (:mod:`repro.obs.stitch`) rebuilds
the tree from any mix of those files, so a sweep spread over processes
still yields one causal story per cell.

Identity is the whole trick.  Trace and span IDs are pure functions of
the sweep digest, cell key, span kind and attempt number — **never**
the clock, the PID, or ``uuid4()``:

* any process can compute any span's ID without coordination (a worker
  derives its parent ``cell`` span ID from the trace ID + cell key);
* a span written twice — a rerun rewriting the coordinator's spans, a
  cell run twice — gets the *same* span ID with the same deterministic
  content, and the stitcher collapses the copies;
* the deterministic projection of a trace (drop ``"wall"``, drop
  timing-dependent events) is byte-identical across ``--jobs`` and
  worker counts, which the chaos tests assert literally.

Wall-clock timestamps are the *point* of a trace, so they exist — but
only under each row's ``"wall"`` sub-object, mirroring the manifest
convention, and they are read through the single sanctioned
:func:`wall_now` below.  Events carry a ``"det"`` flag: ``det=True``
events (fault injections, error types) are facts of the computation and
survive into the canonical projection; ``det=False`` events
(store-retry backoffs) describe the *schedule* and are stripped.

Tracing follows telemetry: an active
:class:`~repro.obs.session.TelemetrySession` sets ``$REPRO_TELEMETRY``,
and every process writes its trace file to that directory's
``traces/``.  Nothing here runs unless the variable is set: the runner
guards every hook on it, so telemetry disabled is zero trace code
executed and zero artifacts written.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import threading
import time
from pathlib import Path
from types import TracebackType
from typing import IO, Any, Dict, Iterator, List, Optional, Sequence, Type

from contextlib import contextmanager

from ..errors import ConfigurationError
from ..store.queue import sweep_digest
from .runtime import TELEMETRY_ENV

__all__ = [
    "SPAN_KINDS",
    "Span",
    "TraceWriter",
    "Tracer",
    "add_event",
    "ambient_tracer",
    "close_ambient_writers",
    "execute_span",
    "set_worker",
    "span_id",
    "trace_id_for",
    "wall_now",
    "worker_name",
]

#: Every span kind, in causal order.  ``sweep`` and ``cell`` are
#: coordinator-side; ``claim``/``execute``/``ack``/``nack`` are emitted
#: by the process that ran the attempt; ``lost`` is the coordinator's
#: terminal for a cell whose worker died without nacking.
SPAN_KINDS = ("sweep", "cell", "claim", "execute", "ack", "nack", "lost")


def wall_now() -> float:
    """The one sanctioned wall-clock read for trace timestamps.

    Trace rows are *about* wall time, but every reading funnels through
    here and lands exclusively under a row's ``"wall"`` sub-object —
    the same contract as the run manifest.
    """
    return time.time()  # reprolint: disable=DET002,DET004


def trace_id_for(keys: Sequence[str]) -> str:
    """Deterministic trace ID for one sweep: a prefix of
    :func:`repro.store.queue.sweep_digest`, the hash of its ordered
    ``(index, key)`` pairs whose shorter prefix names the sweep's queue
    rows.  The same sweep traced twice yields the same trace ID, and no
    clock or RNG can leak in by construction."""
    return sweep_digest(keys)[:32]


def span_id(trace_id: str, kind: str, key: str = "", attempt: int = 0) -> str:
    """Deterministic span ID: pure function of (trace, kind, key, attempt).

    Because the ID carries no process identity, an attempt written by
    two processes produces the *same* span IDs — the stitcher's dedup
    then collapses the duplicates instead of showing a forked tree.
    """
    if kind not in SPAN_KINDS:
        raise ConfigurationError(
            f"unknown span kind {kind!r}; expected one of {list(SPAN_KINDS)}")
    blob = f"{trace_id}/{kind}/{key}/{attempt}"
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


# -- per-process worker identity ------------------------------------------

_worker_lock = threading.Lock()
_worker_name = ""


def set_worker(name: str) -> None:
    """Name this process's trace file (e.g. the queue worker ID)."""
    global _worker_name
    with _worker_lock:
        _worker_name = name


def worker_name() -> str:
    """This process's identity in trace rows (default ``pid-<pid>``)."""
    with _worker_lock:
        return _worker_name or f"pid-{os.getpid()}"


def _slug(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "_", name)


# -- writing ----------------------------------------------------------------


class TraceWriter:
    """Append-mode JSONL writer for one ``traces/*.jsonl`` file.

    Opens lazily on first write, stamps the ``schema_version`` header
    row into fresh files, and flushes every line so a killed process
    loses no finished span.  Append mode (not truncate) lets a worker
    process reopen its file across work items without losing rows.
    """

    def __init__(self, path: Path) -> None:
        self.path = Path(path)
        self._fh: Optional[IO[str]] = None
        self._lock = threading.Lock()

    def write(self, row: Dict[str, Any]) -> None:
        line = json.dumps(row, sort_keys=True, separators=(",", ":"))
        with self._lock:
            if self._fh is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                fresh = (not self.path.exists()
                         or self.path.stat().st_size == 0)
                self._fh = open(self.path, "a", encoding="utf-8")
                if fresh:
                    from .schema import header_line
                    self._fh.write(header_line("trace") + "\n")
            self._fh.write(line + "\n")
            self._fh.flush()

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None


class Span:
    """One span under construction; write happens on :meth:`end`.

    Context-manager use pushes the span onto the process-local active
    stack so :func:`add_event` calls from anywhere in the process — the
    fault injector, the store retry observer — attach to the innermost
    running span.
    """

    def __init__(self, tracer: "Tracer", kind: str, name: str, *,
                 key: str = "", attempt: int = 0,
                 parent: Optional[str] = None,
                 start: Optional[float] = None) -> None:
        self.tracer = tracer
        self.kind = kind
        self.name = name
        self.key = key
        self.attempt = attempt
        self.parent = parent
        self.span = span_id(tracer.trace_id, kind, key, attempt)
        self.status = ""
        self.start = wall_now() if start is None else start
        self._events: List[Dict[str, Any]] = []
        self._done = False

    def event(self, name: str, det: bool = False, **fields: Any) -> None:
        """Attach a point event; ``det=True`` marks a deterministic fact."""
        row: Dict[str, Any] = {"name": name, "det": bool(det)}
        row.update(fields)
        with _stack_lock:
            self._events.append(row)

    def to_row(self, end: Optional[float]) -> Dict[str, Any]:
        with _stack_lock:
            events = list(self._events)
        return {
            "trace": self.tracer.trace_id,
            "span": self.span,
            "parent": self.parent,
            "kind": self.kind,
            "name": self.name,
            "key": self.key,
            "attempt": self.attempt,
            "status": self.status or "ok",
            "events": events,
            "wall": {
                "start": self.start,
                "end": end,
                "worker": self.tracer.worker,
            },
        }

    def end(self, status: Optional[str] = None) -> None:
        """Stamp the end timestamp and write the row (idempotent)."""
        if self._done:
            return
        self._done = True
        if status is not None:
            self.status = status
        self.tracer.writer.write(self.to_row(wall_now()))

    def __enter__(self) -> "Span":
        with _stack_lock:
            _stack.append(self)
        return self

    def __exit__(self, exc_type: Optional[Type[BaseException]],
                 exc: Optional[BaseException],
                 tb: Optional[TracebackType]) -> None:
        with _stack_lock:
            if _stack and _stack[-1] is self:
                _stack.pop()
        if exc is not None:
            self.event("error", det=True, error=type(exc).__name__)
            self.end("error")
        else:
            self.end()


class Tracer:
    """Span factory bound to one trace ID and one output file."""

    def __init__(self, trace_id: str, writer: TraceWriter,
                 worker: str = "") -> None:
        self.trace_id = trace_id
        self.writer = writer
        self.worker = worker or worker_name()

    def span(self, kind: str, name: str, *, key: str = "", attempt: int = 0,
             parent: Optional[str] = None,
             start: Optional[float] = None) -> Span:
        return Span(self, kind, name, key=key, attempt=attempt,
                    parent=parent, start=start)


# -- ambient per-process state ----------------------------------------------

_stack_lock = threading.Lock()
_stack: List[Span] = []
_writers: Dict[str, TraceWriter] = {}


def add_event(name: str, det: bool = False, **fields: Any) -> None:
    """Attach an event to the innermost active span; no-op otherwise.

    This is the hook the fault injector and the store retry observer
    call — neither needs (or gets) a span handle, and both must cost
    nothing when tracing is off (callers guard on ``$REPRO_TELEMETRY``
    before importing this module).
    """
    with _stack_lock:
        span = _stack[-1] if _stack else None
    if span is not None:
        span.event(name, det=det, **fields)


def trace_dir() -> Optional[Path]:
    """The telemetry directory's ``traces/`` from the environment, or
    ``None`` when telemetry is off."""
    raw = os.environ.get(TELEMETRY_ENV)
    return Path(raw) / "traces" if raw else None


def ambient_tracer(trace_id: str) -> Optional[Tracer]:
    """A tracer for ``trace_id`` in this process, or ``None`` when
    tracing is off (or there is no trace ID).

    Queue items carry the trace ID across processes; the
    output file is ``$REPRO_TELEMETRY/traces/<worker>.jsonl``.  Writers
    are cached per path so one worker process appends to one file.
    """
    directory = trace_dir()
    if directory is None or not trace_id:
        return None
    path = directory / f"{_slug(worker_name())}.jsonl"
    key = str(path)
    with _stack_lock:
        writer = _writers.get(key)
        if writer is None:
            writer = _writers[key] = TraceWriter(path)
    return Tracer(trace_id, writer)


def close_ambient_writers() -> None:
    """Close and drop every cached ambient writer.

    Rows are flushed line by line, so this is never needed for
    correctness — it exists for orderly worker shutdown and for tests
    that must not leak file handles across cases.
    """
    with _stack_lock:
        writers = list(_writers.values())
        _writers.clear()
    for writer in writers:
        writer.close()


@contextmanager
def execute_span(label: str, key: str, attempt: int,
                 ctx: Optional[Dict[str, Any]] = None) -> Iterator[
                     Optional[Span]]:
    """Ambient ``execute`` span around one cell attempt.

    ``ctx`` is the trace context the queue item carries
    (``{"trace": ..., "parent": ...}``, the parent being the attempt's
    ``claim`` span); without one, no span is recorded.
    """
    tracer = ambient_tracer(ctx["trace"]) if ctx else None
    if tracer is None or ctx is None:
        yield None
        return
    span = tracer.span("execute", label, key=key, attempt=attempt,
                       parent=ctx["parent"])
    with span:
        yield span
