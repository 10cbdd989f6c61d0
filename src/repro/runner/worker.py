"""The worker side of sweep execution: claim, execute, ack.

Every sweep runs through a work queue (:mod:`repro.store.queue`), and
:func:`work_loop` is the one loop that drains it.  It runs

* on the coordinator's own thread at ``--jobs 1``, so profilers and
  instrumentation see the cells, and a ``kill`` fault kills the run;
* in the ``--jobs N`` processes the coordinator forks
  (:mod:`repro.runner.pool`), each running :func:`serve`, which opens
  its own store connection after the fork.

Each claimed item runs through :func:`execute_attempt` — the global
RNGs are reseeded from the cell key before every attempt, then fault
injection gets its chance — and goes back to the queue as an ``ack``
carrying the pickled result or a ``nack`` carrying the pickled
exception.  Workers never write the experiment store: the coordinator
collects results from the queue and persists them.

Crash recovery asks nothing of a live worker.  Each claim records the
pids of its worker and of that worker's coordinator
(:func:`~repro.store.queue.worker_id`): the coordinator releases a
forked worker's claims as soon as it reaps the worker dead, an
interrupted coordinator whose process lives on releases them when it
next publishes the sweep, and once the coordinator is gone too, the
next idle claim releases them.

Store resilience: every store/queue operation a worker makes goes
through the one store wrapper (:func:`wrap_store`) — transient errors
(SQLite lock contention, ``EAGAIN``-family ``OSError``) retry with
bounded deterministic backoff; a *permanent* store error (malformed
database, ``ENOSPC``) ends the worker with
:data:`EXIT_STORE_PERMANENT`, which the coordinator treats as "do not
respawn" — a broken store will not heal by throwing fresh processes at
it.
"""

from __future__ import annotations

import os
import pickle
import random
import sqlite3
import sys
import time
from typing import Any, Callable, Dict, Optional, Tuple

from ..store import ExperimentStore, open_store
from ..store.faults import active_plan, inject_cell_faults
from ..store.queue import WorkQueue, worker_id
from ..store.retry import (RetryingStore, is_transient_store_error,
                           store_retry_policy)
from .cells import Cell

__all__ = ["EXIT_STORE_PERMANENT", "execute_attempt", "serve",
           "work_loop", "wrap_store"]

#: Worker exit code for a permanent store failure (malformed database,
#: ``ENOSPC``, missing table) — distinct from a cell-induced crash so
#: the coordinator knows respawning cannot help.
EXIT_STORE_PERMANENT = 3

#: Seconds between an idle worker's claim attempts, and between the
#: coordinator's looks at the queue and its workers.
_POLL = 0.05


def _trace_event(name: str, det: bool = False, **fields: Any) -> None:
    """Forward a point event to the active trace span, if tracing is on.

    The ``$REPRO_TELEMETRY`` guard keeps the telemetry-off path at one
    dict lookup and zero imports — the zero-overhead contract of
    :mod:`repro.obs.trace`.
    """
    if os.environ.get("REPRO_TELEMETRY"):
        from ..obs.trace import add_event

        add_event(name, det=det, **fields)


def _trace_store_retry(operation: str, exc: BaseException,
                       failures: int) -> None:
    _trace_event("store_retry", op=operation, error=type(exc).__name__,
                 n=failures)


def wrap_store(store: ExperimentStore,
               store_retries: int) -> RetryingStore:
    """The one store wrapper, around a freshly opened store.

    Every store/queue operation retries transient errors within
    ``store_retries``.  When ``$REPRO_FAULTS`` has store-op entries,
    the wrapper holds a fresh injector for them: each attempt fires its
    faults first, so the retries absorb injected transients exactly as
    they absorb real ones.  With tracing on, each absorbed transient
    becomes a ``store_retry`` event on the active span.  The
    coordinator wraps its store once per sweep, and every worker
    process wraps the store it opens.
    """
    plan = active_plan()
    return RetryingStore(
        store, store_retry_policy(store_retries),
        _trace_store_retry if os.environ.get("REPRO_TELEMETRY") else None,
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

    ``ctx`` is the trace context the queue item carries
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


def _pickled_error(exc: BaseException) -> bytes:
    """``exc`` pickled for its nack, or ``b""`` when it will not pickle
    (the coordinator then rebuilds a :class:`~repro.errors.WorkerError`
    from the recorded type and message)."""
    try:
        return pickle.dumps(exc, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:
        return b""


def work_loop(queue: WorkQueue, worker: str, *,
              after_item: Optional[Callable[[], None]] = None) -> None:
    """Claim and execute ``queue``'s items as ``worker`` until every
    published item is ``done`` or ``failed``.

    Retry backoff is the queue's: a nacked item is not claimable before
    its delay has passed, so this loop just polls.  ``after_item`` (the
    in-process coordinator's collection hook) runs after every item.
    Store errors that survive the retry stack propagate.
    """
    tracing = bool(os.environ.get("REPRO_TELEMETRY"))
    if tracing:
        from ..obs.trace import ambient_tracer, set_worker, span_id, wall_now

        set_worker(worker)  # names this worker's traces/<id>.jsonl
    try:
        while True:
            claim_t0 = wall_now() if tracing else None
            item = queue.claim(worker)
            if item is None:
                if queue.unfinished() == 0:
                    break
                # Everything runnable is claimed by someone else (or
                # backing off); poll until that changes.
                time.sleep(_POLL)
                continue
            loaded = pickle.loads(item.payload)
            key, cell = loaded[1], loaded[2]
            # Traced coordinators publish a 4th element: the trace
            # context ({"trace", "parent"}).
            ctx = loaded[3] if len(loaded) > 3 else None
            attempt = item.attempt
            tracer = (ambient_tracer(ctx["trace"])
                      if tracing and ctx else None)
            exec_ctx: Optional[Dict[str, Any]] = None
            if tracer is not None:
                # The claim span covers queue.claim itself (claim_t0 ..
                # now).
                tracer.span("claim", cell.label, key=key, attempt=attempt,
                            parent=ctx["parent"], start=claim_t0).end()
                # Derived from the pure ID function (== claim.span), so
                # the context provably carries no wall-clock taint.
                exec_ctx = {"trace": tracer.trace_id,
                            "parent": span_id(tracer.trace_id, "claim",
                                              key, attempt)}
            failure: Optional[Exception] = None
            try:
                elapsed, value = execute_attempt(key, cell, attempt,
                                                 exec_ctx)
            except Exception as exc:
                failure = exc
            if failure is not None:
                name, error = type(failure).__name__, _pickled_error(failure)
                if tracer is not None and exec_ctx is not None:
                    with tracer.span("nack", cell.label, key=key,
                                     attempt=attempt,
                                     parent=exec_ctx["parent"]) as nspan:
                        nspan.status = "error"
                        nspan.event("error", det=True, error=name)
                        retry = queue.nack(item.item_id, name, str(failure),
                                           error)
                        nspan.event(
                            "retry_scheduled" if retry
                            else "attempts_exhausted", det=True)
                else:
                    queue.nack(item.item_id, name, str(failure), error)
            else:
                result = pickle.dumps(value,
                                      protocol=pickle.HIGHEST_PROTOCOL)
                if tracer is not None and exec_ctx is not None:
                    with tracer.span("ack", cell.label, key=key,
                                     attempt=attempt,
                                     parent=exec_ctx["parent"]):
                        queue.ack(item.item_id, elapsed, result)
                else:
                    queue.ack(item.item_id, elapsed, result)
            if after_item is not None:
                after_item()
    finally:
        if tracing:
            from ..obs.trace import close_ambient_writers

            close_ambient_writers()
            set_worker("")


def serve(store_url: str, sweep: str, coordinator: int,
          store_retries: int) -> None:
    """Body of a worker process the coordinator forks: open
    ``store_url`` and drain the queue of sweep ``sweep``.

    Its claims record this process and ``coordinator``.  A store error
    ends the process with :data:`EXIT_STORE_PERMANENT`.
    """
    wid = worker_id(os.getpid(), coordinator)
    try:
        store = wrap_store(open_store(store_url), store_retries)
        try:
            work_loop(store.make_queue(sweep), wid)
        finally:
            store.close()
    except (sqlite3.Error, OSError) as exc:
        # A store-layer error escaping work_loop already survived the
        # transient-retry budget (or was permanent outright): either
        # way this worker cannot make progress against this store.
        flavor = ("transient, retry budget exhausted"
                  if is_transient_store_error(exc) else "permanent")
        print(f"[{wid}] store failure ({flavor}): "
              f"{type(exc).__name__}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_STORE_PERMANENT)
