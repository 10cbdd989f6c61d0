"""The worker side of sweep execution: claim, execute, ack.

Every sweep runs through a work queue (:mod:`repro.store.queue`), and
:func:`work_loop` is the one loop that drains it.  It runs

* on the coordinator's own thread at ``--jobs 1``, so profilers and
  instrumentation see the cells, and a ``kill`` fault kills the run;
* in the ``--jobs N`` processes the coordinator forks
  (:mod:`repro.runner.pool`), each opening its own store connection
  after the fork;
* in ``python -m repro.runner.worker --store URL`` processes that join
  a sweep from outside, on this machine or any machine that can reach
  the store.

Each claimed item runs through :func:`execute_attempt` — the global
RNGs are reseeded from the cell key before every attempt, then fault
injection gets its chance — and goes back to the queue as an ``ack``
carrying the pickled result or a ``nack`` carrying the pickled
exception.  Workers never write the experiment store: the coordinator
collects results from the queue and persists them.

Crash recovery is the lease protocol of :mod:`repro.store.queue`: while
a cell runs, a background *heartbeat thread* renews the worker's lease
every ``renew_interval`` seconds (default ``lease / 3``), so a **live**
worker running a long cell is never stolen from.  A worker that
**dies** mid-cell stops heartbeating: the coordinator expires the
leases of a forked worker as soon as it reaps it, any other worker's
lease runs out on its own, and the next claim steals the item —
charged against the item's loss budget.  Delivery is therefore
at-least-once, which is safe by construction: cells are deterministic,
so a double execution is invisible in the results.

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

import argparse
import os
import pickle
import random
import sqlite3
import sys
import threading
import time
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from ..store import ExperimentStore, open_store
from ..store.faults import active_plan, inject_cell_faults
from ..store.queue import WorkQueue
from ..store.retry import (RetryingStore, is_transient_store_error,
                           store_retry_policy)
from .cells import Cell

__all__ = ["EXIT_STORE_PERMANENT", "execute_attempt", "main", "serve",
           "work_loop", "wrap_store"]

#: Worker exit code for a permanent store failure (malformed database,
#: ``ENOSPC``, missing table) — distinct from a cell-induced crash so
#: the coordinator knows respawning cannot help.
EXIT_STORE_PERMANENT = 3


def _trace_event(name: str, det: bool = False, **fields: Any) -> None:
    """Forward a point event to the active trace span, if tracing is on.

    The ``$REPRO_TRACE`` guard keeps the tracing-off path at one dict
    lookup and zero imports — the zero-overhead contract of
    :mod:`repro.obs.trace`.
    """
    if os.environ.get("REPRO_TRACE"):
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
        _trace_store_retry if os.environ.get("REPRO_TRACE") else None,
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
    code runs without ``$REPRO_TRACE``.
    """
    if os.environ.get("REPRO_TRACE"):
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


class _Heartbeat:
    """Background lease-renewal loop for one claimed queue item.

    Beats every ``interval`` seconds until stopped.  A renewal that
    *fails* transiently (the retry stack re-raises past its budget) is
    skipped — the next beat tries again, and the lease survives one
    missed beat because ``interval < lease``.  A renewal that is
    *refused* (the item was stolen; this worker no longer holds it)
    sets :attr:`lost` and stops beating — finishing the cell stays
    safe, delivery is at-least-once.
    """

    def __init__(self, queue: WorkQueue, item_id: int, worker: str,
                 lease: float, interval: float) -> None:
        self.queue = queue
        self.item_id = item_id
        self.worker = worker
        self.lease = lease
        self.interval = interval
        self.lost = threading.Event()
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, daemon=True,
            name=f"heartbeat-{worker}-{item_id}")

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                renewed = self.queue.renew(self.item_id, self.worker,
                                           self.lease)
            except Exception:
                # Renewal could not reach the store even after retries;
                # keep beating — the item may survive, and the cell's
                # outcome is protected by at-least-once delivery anyway.
                continue
            if not renewed:
                # Someone stole the lease: a schedule fact, not a
                # computation fact, hence det=False.
                _trace_event("lease_lost", worker=self.worker)
                self.lost.set()
                return
            _trace_event("lease_renew", worker=self.worker)


def work_loop(queue: WorkQueue, worker_id: str, *,
              lease: float = 60.0, poll: float = 0.2,
              max_items: Optional[int] = None,
              renew_interval: Optional[float] = None,
              after_item: Optional[Callable[[], None]] = None) -> int:
    """Claim and execute ``queue``'s items until it drains.

    Returns the number of items processed (successful or not).  The
    loop exits when every published item is ``done`` or ``failed``, or
    after ``max_items`` claims (an ops hook: a worker stopped at
    ``--max-items K`` leaves a partially drained queue that the next
    worker — or a full rerun — picks up seamlessly).  Retry backoff is
    the queue's: a nacked item is not claimable before its delay has
    passed, so this loop just polls.  ``after_item`` (the in-process
    coordinator's collection hook) runs after every item.

    While a cell runs, a :class:`_Heartbeat` thread renews the lease
    every ``renew_interval`` seconds (``None`` = ``lease / 3``; ``0``
    disables renewal, restoring steal-on-slow behavior).  Store errors
    that survive the retry stack propagate.
    """
    interval = lease / 3.0 if renew_interval is None else renew_interval
    tracing = bool(os.environ.get("REPRO_TRACE"))
    if tracing:
        from ..obs.trace import ambient_tracer, set_worker, span_id, wall_now

        set_worker(worker_id)  # names this worker's traces/<id>.jsonl
    processed = 0
    try:
        while max_items is None or processed < max_items:
            claim_t0 = wall_now() if tracing else None
            item = queue.claim(worker_id, lease)
            if item is None:
                if queue.unfinished() == 0:
                    break
                # Everything runnable is claimed by someone else (or
                # backing off); poll until a lease frees or expires.
                time.sleep(poll)
                continue
            loaded = pickle.loads(item.payload)
            key, cell = loaded[1], loaded[2]
            # Traced coordinators publish a 4th element: the trace
            # context ({"trace", "parent"}).
            ctx = loaded[3] if len(loaded) > 3 else None
            attempt = item.attempt
            processed += 1
            tracer = (ambient_tracer(ctx["trace"])
                      if tracing and ctx else None)
            exec_ctx: Optional[Dict[str, Any]] = None
            if tracer is not None:
                # The claim span covers queue.claim itself (claim_t0 ..
                # now); a re-claim of a stolen item carries the same
                # attempt number, so its span ID — and the stitched
                # tree — deduplicate instead of forking.
                claim = tracer.span("claim", cell.label, key=key,
                                    attempt=attempt, parent=ctx["parent"],
                                    start=claim_t0)
                if item.stolen:
                    claim.event("steal", worker=worker_id)
                claim.end()
                # Derived from the pure ID function (== claim.span), so
                # the context provably carries no wall-clock taint.
                exec_ctx = {"trace": tracer.trace_id,
                            "parent": span_id(tracer.trace_id, "claim",
                                              key, attempt)}
            beat: Optional[_Heartbeat] = None
            if interval > 0:
                beat = _Heartbeat(queue, item.item_id, worker_id, lease,
                                  interval)
                beat.start()
            failure: Optional[Exception] = None
            try:
                elapsed, value = execute_attempt(key, cell, attempt,
                                                 exec_ctx)
            except Exception as exc:
                failure = exc
            finally:
                if beat is not None:
                    beat.stop()
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
                # Ack even when the lease was stolen mid-cell: an ack of
                # an already-reassigned item merely marks it done — the
                # at-least-once contract.
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
    return processed


def serve(store_url: str, queue_name: str = "sweep", *,
          worker_id: Optional[str] = None, store_retries: int = 5,
          **loop: Any) -> int:
    """Open ``store_url``, drain its queue ``queue_name``, return an
    exit status.

    The body of every worker process — forked by the coordinator or
    started as ``python -m repro.runner.worker``: 0 once the queue
    drained (or ``max_items`` were processed), or
    :data:`EXIT_STORE_PERMANENT` when a store error survived the retry
    budget.  ``loop`` passes through to :func:`work_loop`.
    """
    wid = worker_id or f"worker-{os.getpid()}"
    try:
        store = wrap_store(open_store(store_url), store_retries)
        try:
            work_loop(store.make_queue(queue_name), wid, **loop)
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
        return EXIT_STORE_PERMANENT
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI: drain a store's work queue in this process."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.runner.worker",
        description="Join a running sweep: claim and execute cells from "
                    "a store's work queue (see repro.store.queue).  The "
                    "sweep's coordinator persists the results.")
    parser.add_argument("--store", required=True, metavar="URL",
                        help="experiment store URL (local:PATH or "
                             "sqlite:PATH) holding the queue")
    parser.add_argument("--queue", default="sweep", metavar="NAME",
                        help="queue name within the store; the worker "
                             "joins the sweep most recently published "
                             "under it (default: sweep)")
    parser.add_argument("--lease", type=float, default=60.0, metavar="SEC",
                        help="claim lease; a worker silent past this is "
                             "presumed dead and its item is stolen "
                             "(default: 60)")
    parser.add_argument("--poll", type=float, default=0.2, metavar="SEC",
                        help="idle poll interval while other workers "
                             "hold the remaining items (default: 0.2)")
    parser.add_argument("--max-items", type=int, default=None, metavar="N",
                        help="exit after processing N items (default: "
                             "run until the queue drains)")
    parser.add_argument("--worker-id", default=None, metavar="ID",
                        help="claim identity (default: worker-<pid>)")
    parser.add_argument("--renew-interval", type=float, default=None,
                        metavar="SEC",
                        help="lease-renewal heartbeat period while a cell "
                             "runs (default: lease/3; 0 disables renewal "
                             "and restores steal-on-slow behavior)")
    parser.add_argument("--store-retries", type=int, default=5, metavar="N",
                        help="bounded retries for transient store errors "
                             "(locked database, EAGAIN); permanent errors "
                             f"exit {EXIT_STORE_PERMANENT} immediately "
                             "(default: 5)")
    args = parser.parse_args(argv)
    return serve(args.store, args.queue, worker_id=args.worker_id,
                 store_retries=args.store_retries,
                 lease=args.lease, poll=args.poll,
                 max_items=args.max_items,
                 renew_interval=args.renew_interval)


if __name__ == "__main__":
    sys.exit(main())
