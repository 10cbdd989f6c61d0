"""The worker side of sweep execution: run one attempt, answer it.

The coordinator (:mod:`repro.runner.pool`) hands cells out one attempt
at a time, and :func:`attempt_cell` runs every attempt the same way
wherever it runs:

* on the coordinator's own thread at ``--jobs 1``, so profilers and
  instrumentation see the cells, and a ``kill`` fault kills the run;
* in the ``--jobs N`` processes the coordinator forks, each running
  :func:`serve` on one end of a pipe.

Each attempt runs through :func:`execute_attempt` — the global RNGs are
reseeded from the cell key before every attempt, then fault injection
gets its chance — and its answer is ``(elapsed, value, failure)``: the
result, or ``failure = (error_type, message, exception)``.  A forked
worker inherits the sweep's cells and keys through the fork, receives
``(index, attempt, retry, trace context)`` on its pipe and sends the
answer back pickled (:func:`send_answer`).  It exits on EOF, so no
worker outlives its coordinator by more than the attempt it is running.
Workers never open the experiment store: the coordinator alone reads
and writes it, through the one store wrapper (:func:`wrap_store`).
"""

from __future__ import annotations

import os
import pickle
import random
import time
from contextlib import nullcontext
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import WorkerError
from ..store import ExperimentStore
from ..store.faults import active_plan, inject_cell_faults
from ..store.retry import RetryingStore, RetryObserver, store_retry_policy
from .cells import Cell

__all__ = ["attempt_cell", "execute_attempt", "recv_answer", "send_answer",
           "serve", "worker_id", "wrap_store"]

#: What one attempt answers: ``(elapsed, value, failure)``, where
#: ``failure`` is ``None`` or ``(error_type, message, exception)``.
Answer = Tuple[float, Any, Optional[Tuple[str, str, BaseException]]]


def worker_id(pid: int, coordinator: int) -> str:
    """Name of the process running attempts, which names its trace
    file: its own pid and its coordinator's (the same pid at
    ``--jobs 1``)."""
    return f"worker-{pid}-{coordinator}"


def wrap_store(store: ExperimentStore, store_retries: int,
               on_retry: Optional[RetryObserver] = None) -> RetryingStore:
    """The one store wrapper, around a freshly opened store.

    Every store operation retries transient errors within
    ``store_retries``, calling ``on_retry`` before each backoff.  When
    ``$REPRO_FAULTS`` has store-op entries, the wrapper holds a fresh
    injector for them: each attempt fires its faults first, so the
    retries absorb injected transients exactly as they absorb real
    ones.  The coordinator wraps its store once per sweep.
    """
    plan = active_plan()
    return RetryingStore(
        store, store_retry_policy(store_retries), on_retry,
        plan.injector() if plan is not None else None)


def _seed_from_key(key: str) -> None:
    """Deterministically reseed global RNGs for one cell attempt.

    Cells are expected to derive their own seeded ``random.Random`` from
    their config; this is belt-and-braces so global-state randomness can
    never differ between workers, ``--jobs`` counts or retries.
    """
    seed = int(key[:16], 16)
    random.seed(seed)
    try:
        import numpy as np

        np.random.seed(seed & 0xFFFFFFFF)
    except ImportError:  # numpy is a hard dep, but stay defensive
        pass


def execute_attempt(key: str, cell: Cell, attempt: int,
                    ctx: Optional[Dict[str, Any]] = None,
                    ) -> Tuple[float, Any]:
    """Run one attempt of ``cell``; returns ``(elapsed, result)``.

    ``ctx`` is the attempt's trace context
    (``{"trace": ..., "parent": ...}``; see :mod:`repro.obs.trace`):
    with tracing on, the attempt runs inside an ``execute`` span so
    retries, faults and errors are causally attributed.  Zero trace
    code runs without ``$REPRO_TELEMETRY``.
    """
    if os.environ.get("REPRO_TELEMETRY"):
        from ..obs.trace import execute_span

        with execute_span(cell.label, key, attempt, ctx):
            return _run_attempt(key, cell, attempt)
    return _run_attempt(key, cell, attempt)


def _run_attempt(key: str, cell: Cell, attempt: int) -> Tuple[float, Any]:
    _seed_from_key(key)
    inject_cell_faults(cell.label, attempt)
    if os.environ.get("REPRO_TELEMETRY"):
        # Telemetry is on: name the cell so series files land at
        # deterministic paths, and optionally capture a cProfile.
        from ..obs.runtime import maybe_profile, set_cell

        set_cell(cell.label)
        start = time.perf_counter()
        with maybe_profile(cell.label):
            result = cell.run()
        return time.perf_counter() - start, result
    start = time.perf_counter()
    result = cell.run()
    return time.perf_counter() - start, result


def attempt_cell(key: str, cell: Cell, attempt: int, retry: bool,
                 ctx: Optional[Dict[str, Any]],
                 send: Callable[[Answer], None]) -> None:
    """Run attempt ``attempt`` of ``cell`` and ``send`` its answer.

    With tracing on and a trace context ``ctx``, the attempt leaves a
    ``claim`` span (it took the cell), its ``execute`` span, and an
    ``ack`` or ``nack`` span around ``send``; ``retry`` says whether a
    failure of this attempt will be retried, which the ``nack`` span
    records.
    """
    tracer = None
    if ctx and os.environ.get("REPRO_TELEMETRY"):
        from ..obs.trace import ambient_tracer, span_id

        tracer = ambient_tracer(ctx["trace"])
    exec_ctx: Optional[Dict[str, Any]] = None
    if tracer is not None and ctx is not None:
        tracer.span("claim", cell.label, key=key, attempt=attempt,
                    parent=ctx["parent"]).end()
        # Derived from the pure ID function (== claim.span), so the
        # context provably carries no wall-clock taint.
        exec_ctx = {"trace": tracer.trace_id,
                    "parent": span_id(tracer.trace_id, "claim", key,
                                      attempt)}

    def terminal(kind: str) -> Any:
        if tracer is None or exec_ctx is None:
            return nullcontext()
        return tracer.span(kind, cell.label, key=key, attempt=attempt,
                           parent=exec_ctx["parent"])

    try:
        elapsed, value = execute_attempt(key, cell, attempt, exec_ctx)
    except Exception as exc:
        with terminal("nack") as span:
            if span is not None:
                span.status = "error"
                span.event("error", det=True, error=type(exc).__name__)
            send((0.0, None, (type(exc).__name__, str(exc), exc)))
            if span is not None:
                span.event("retry_scheduled" if retry
                           else "attempts_exhausted", det=True)
        return
    with terminal("ack"):
        send((elapsed, value, None))


def _pickled_error(exc: BaseException) -> bytes:
    """``exc`` pickled for the pipe, or ``b""`` when it will not pickle
    (the coordinator then stands a :class:`~repro.errors.WorkerError`
    in for it, built from the type name and message)."""
    try:
        return pickle.dumps(exc, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:
        return b""


def send_answer(conn: Any, answer: Answer) -> None:
    """Send ``answer`` over ``conn``: a result that will not pickle
    becomes the failure its pickling raised."""
    elapsed, value, failure = answer
    if failure is None:
        try:
            blob = pickle.dumps(answer, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            failure = (type(exc).__name__, str(exc), exc)
    if failure is not None:
        error_type, message, exc = failure
        blob = pickle.dumps(
            (elapsed, None, (error_type, message, _pickled_error(exc))),
            protocol=pickle.HIGHEST_PROTOCOL)
    conn.send_bytes(blob)


def recv_answer(conn: Any) -> Answer:
    """Receive a :func:`send_answer` answer from ``conn``."""
    elapsed, value, failure = pickle.loads(conn.recv_bytes())
    if failure is None:
        return elapsed, value, None
    error_type, message, error = failure
    exc: Any = None
    if error:
        try:
            exc = pickle.loads(error)
        except Exception:
            exc = None
    if not isinstance(exc, BaseException):
        exc = WorkerError(f"{error_type}: {message}")
    return elapsed, None, (error_type, message, exc)


def serve(conn: Any, cells: Sequence[Cell], keys: Sequence[str],
          inherited: List[Any], coordinator: int) -> None:
    """Body of a worker process the coordinator forks: answer each
    ``(index, attempt, retry, ctx)`` received on ``conn`` until EOF.

    ``inherited`` are the coordinator's pipe ends this process got
    through the fork; closing them leaves the coordinator the only
    holder, so each worker sees EOF once the coordinator closes its end
    or dies.
    """
    for end in inherited:
        end.close()
    tracing = bool(os.environ.get("REPRO_TELEMETRY"))
    if tracing:
        from ..obs.trace import set_worker

        set_worker(worker_id(os.getpid(), coordinator))
    try:
        while True:
            index, attempt, retry, ctx = conn.recv()
            attempt_cell(keys[index], cells[index], attempt, retry, ctx,
                         lambda answer: send_answer(conn, answer))
    except (EOFError, OSError):
        pass  # the coordinator is done with this worker, or gone
    finally:
        if tracing:
            from ..obs.trace import close_ambient_writers

            close_ambient_writers()
