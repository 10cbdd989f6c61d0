"""The coordinator: every sweep drains a work queue.

:func:`run_cells` is the single entry point.  It resolves store hits,
publishes the remaining cells to a work queue (:mod:`repro.store.queue`)
and drains it with :func:`repro.runner.worker.work_loop` — on the
calling thread at ``jobs=1``, in ``jobs`` forked worker processes
otherwise — while it collects each result as it lands, persists it to
the experiment store (so an interrupted sweep resumes from where it
died) and returns the results in cell order.  The reduce step therefore
sees the exact sequence a sequential run would have produced, which
makes output byte-identical at any ``--jobs``.

The queue always lives in SQLite: a ``sqlite:`` store's own database,
a sidecar database under a ``local:`` store's ``aux_dir("queue")``, or
a temporary database when the sweep has no store.  Each sweep gets
rows of its own (:func:`repro.store.queue.sweep_queue`), so sweeps
running side by side on one store never touch each other's items,
while two runs of the same sweep share the work.  The coordinator is
the only writer of the experiment store; workers hand results back
through their acks.

Failures are handled the same way at every ``jobs``, per the
:class:`~repro.runner.RetryPolicy`:

* an attempt that raises is nacked with its pickled exception and
  retried with capped deterministic backoff until ``retries`` is spent;
  the queue holds the cell back until its delay has passed;
* a worker whose claim outlives ``cell_timeout`` is killed and its cell
  nacked with :class:`~repro.errors.CellTimeoutError` — a cell on the
  calling thread cannot be killed, so a timeout forks a worker even at
  ``jobs=1``;
* a worker that dies is reaped at once and a fresh worker forked; its
  claims are released, each charged to its cell as a death, and a cell
  whose worker died more often than its loss budget allows fails with
  :class:`~repro.errors.WorkerError`.  Claims left behind by a
  coordinator that died or was interrupted are released by the next
  run of the sweep (:mod:`repro.store.queue`).

Determinism: every attempt reseeds the global RNGs from the cell key
(:func:`repro.runner.worker.execute_attempt`), so neither ``jobs`` nor
retries can change a result.
"""

from __future__ import annotations

import os
import pickle
import shutil
import tempfile
import time
from contextlib import ExitStack
from typing import Any, Dict, List, Optional, Sequence

from ..errors import CellTimeoutError, ReproError, WorkerError
from ..store import ExperimentStore, QueueItem, SQLiteStore
from ..store.faults import active_plan, corrupt_cache_entries
from ..store.queue import (LOST_ERROR_TYPE, AttemptError, ItemState,
                           claiming, sweep_queue)
from .cache import cell_key
from .cells import Cell
from .config import RunConfig
from .resilience import FailedCell
from .worker import (_POLL, EXIT_STORE_PERMANENT, serve, work_loop,
                     wrap_store)

__all__ = ["run_cells", "default_jobs"]

_PENDING = object()

#: Seconds finished workers get to exit on their own before a kill.
_EXIT_GRACE = 10.0


def default_jobs() -> int:
    """Default worker count: ``os.cpu_count()``."""
    return os.cpu_count() or 1


def run_cells(cells: Sequence[Cell],
              config: Optional[RunConfig] = None) -> List[Any]:
    """Execute ``cells`` per ``config`` and return results in cell order.

    ``config`` is a :class:`~repro.runner.RunConfig` — workers
    (``jobs``), the experiment store, the resilience policy
    (``retries`` / ``cell_timeout`` / ``keep_going``) and the
    progress/telemetry sinks in one value; the default runs every cell
    on the calling thread without a store.

    The store is wrapped once (:func:`repro.runner.worker.wrap_store`),
    so hit reads, the sweep's queue traffic and result writes all retry
    transient errors and see the fault plan's store-op faults.  Store
    hits short-circuit execution; fresh results persist as each cell
    completes, so interrupted sweeps resume from the store.  Under
    ``keep_going`` permanently failed cells yield
    :class:`~repro.runner.FailedCell` sentinels instead of aborting;
    otherwise a single failing :class:`~repro.errors.ReproError`
    propagates unwrapped and any other permanent failure raises
    :class:`~repro.errors.WorkerError` listing *every* failed cell,
    chained to the first one's exception.
    """
    cfg = config if config is not None else RunConfig()
    jobs = cfg.jobs if cfg.jobs and cfg.jobs > 0 else default_jobs()
    store = cfg.open_store()
    if store is not None:
        store = wrap_store(store, cfg.store_retries)
    progress = cfg.progress
    telemetry = cfg.telemetry
    cells = list(cells)
    keys = [cell_key(cell) for cell in cells]
    results: List[Any] = [_PENDING] * len(cells)
    if telemetry is not None:
        telemetry.begin(cells, keys)
    if progress is not None:
        progress.begin(len(cells))

    plan = active_plan()
    if plan is not None and store is not None and not cfg.force:
        corrupt_cache_entries(plan, cells, keys, store)

    pending: List[int] = []
    for i, cell in enumerate(cells):
        if store is not None and not cfg.force:
            hit, value = store.get(keys[i])
            if hit:
                results[i] = value
                if telemetry is not None:
                    telemetry.cache_hit(i)
                if progress is not None:
                    progress.cell(cell, cached=True)
                continue
        pending.append(i)

    if pending:
        _Sweep(cells, keys, pending, results, cfg, store).drain(jobs)

    failures = [r for r in results if isinstance(r, FailedCell)]
    if failures and not cfg.keep_going:
        if len(failures) == 1 and isinstance(failures[0].exc, ReproError):
            raise failures[0].exc
        detail = "; ".join(f"{f.label}: {f.error_type}: {f.message}"
                           for f in failures)
        raise WorkerError(
            f"{len(failures)} cell(s) failed: {detail}") from failures[0].exc

    missing = [i for i, r in enumerate(results) if r is _PENDING]
    if missing:  # defensive: should be unreachable
        raise WorkerError(
            f"{len(missing)} cell(s) produced no result "
            f"(first: {cells[missing[0]].label})")
    return results


def _error_of(err: AttemptError) -> BaseException:
    """The exception a nack carried, or a :class:`WorkerError` standing
    in for one that did not survive pickling."""
    if err.error:
        try:
            exc = pickle.loads(err.error)
        except Exception:
            exc = None
        if isinstance(exc, BaseException):
            return exc
    return WorkerError(f"{err.error_type}: {err.message}")


class _Sweep:
    """Coordinator state for the pending cells of one :func:`run_cells`
    call: publishes them, drains the queue, and folds every finished
    attempt into ``results``, telemetry and progress."""

    def __init__(self, cells: List[Cell], keys: List[str],
                 pending: List[int], results: List[Any], cfg: RunConfig,
                 store: Optional[ExperimentStore]) -> None:
        self.cells = cells
        self.keys = keys
        self.results = results
        self.cfg = cfg
        self.store = store
        self.policy = cfg.policy()
        self.progress = cfg.progress
        self.telemetry = cfg.telemetry
        #: Indices still waiting for a result or a final failure.
        self.open = set(pending)
        #: Failed attempts already reported as retries, per index.
        self.reported: Dict[int, int] = {}

    # -- driving ---------------------------------------------------------

    def drain(self, jobs: int) -> None:
        """Publish the open cells and drain the queue with ``jobs``
        workers (the calling thread when ``jobs == 1`` and no cell
        timeout applies)."""
        tmp = None
        if self.store is not None:
            self.host = self.store
        else:  # a store-less sweep's queue traffic is wrapped too
            tmp = tempfile.mkdtemp(prefix="repro-queue-")
            self.host = wrap_store(
                SQLiteStore(os.path.join(tmp, "queue.sqlite")),
                self.cfg.store_retries)
        self.sweep = sweep_queue(self.keys)
        self.queue = self.host.make_queue(self.sweep)
        try:
            self.publish()
            if jobs == 1 and self.policy.cell_timeout is None:
                with claiming(self.sweep, os.getpid, os.getpid()) as wid:
                    while self.open:
                        work_loop(self.queue, wid, after_item=self.collect)
                        self.collect()
            else:
                # The workers' claims stay held until the fleet is gone;
                # what a killed worker still holds is then left for the
                # next publish.
                with ExitStack() as held:
                    self.run_fleet(min(jobs, len(self.open)), held)
        finally:
            if tmp is not None:
                self.host.close()
                shutil.rmtree(tmp, ignore_errors=True)

    def item(self, i: int) -> QueueItem:
        """The queue item for cell ``i``."""
        # With tracing on, items carry their trace context so a worker
        # process can parent its spans.
        ctx = self.telemetry.trace_context(i) if self.telemetry is not None \
            else None
        body = ((i, self.keys[i], self.cells[i], ctx) if ctx
                else (i, self.keys[i], self.cells[i]))
        return QueueItem(
            item_id=i, key=self.keys[i], label=self.cells[i].label,
            payload=pickle.dumps(body, protocol=pickle.HIGHEST_PROTOCOL),
            max_attempts=self.policy.retries + 1,
            retry_delays=tuple(self.policy.delay(n) for n in
                               range(1, self.policy.retries + 1)))

    def publish(self) -> None:
        self.queue.publish([self.item(i) for i in sorted(self.open)])
        # A rerun after failures retries exactly the failed cells.
        self.queue.requeue_failed()
        # The store, not the queue, is the source of truth: every open
        # index is missing from the store (or forced), so an item still
        # marked done whose result was already collected is stale and
        # runs again.  One acked with its result still in the row (its
        # coordinator died first) is simply collected.
        states = self.queue.snapshot()
        self.queue.reset_items([
            i for i in self.open if i in states
            and states[i].status == "done" and states[i].result is None])

    def run_fleet(self, workers: int, held: ExitStack) -> None:
        """Drain the queue with ``workers`` forked worker processes, each
        holding its claims (:func:`~repro.store.queue.claiming`) on
        ``held``.

        Each pass reaps the workers that exited (releasing the claims a
        dead one held), kills workers whose claim outlived
        ``cell_timeout``, collects finished items and tops the fleet
        back up while the queue has work.  A worker that died holding a
        claim is always replaced: its cell's loss budget bounds those
        deaths.  A death outside any claim draws on a spare budget of
        ``workers * (loss_budget + 1)``.  A worker that found the store
        permanently broken stops the top-ups.
        """
        import multiprocessing
        from multiprocessing.connection import wait

        context = multiprocessing.get_context("fork")
        pid = os.getpid()
        procs: Dict[str, Any] = {}
        spare = workers * (self.policy.loss_budget + 1)
        permanent = 0

        def spawn() -> None:
            # The child opens its own connection; none crosses the fork.
            self.host.close()
            proc = context.Process(
                target=serve, daemon=True,
                args=(self.host.url, self.sweep, pid,
                      self.cfg.store_retries))

            def start() -> int:
                proc.start()
                return proc.pid

            procs[held.enter_context(claiming(self.sweep, start, pid))] = proc

        clean = False
        try:
            for _ in range(workers):
                spawn()
            while True:
                for wid, proc in list(procs.items()):
                    if proc.exitcode is None:
                        continue
                    del procs[wid]
                    if proc.exitcode == 0:
                        continue
                    lost = self.queue.expire(wid)
                    if proc.exitcode == EXIT_STORE_PERMANENT:
                        permanent += 1
                    elif not lost:
                        spare -= 1
                    self.reaped(lost)
                if self.policy.cell_timeout is not None:
                    for i, wid in self.queue.overdue(
                            self.policy.cell_timeout):
                        proc = procs.pop(wid, None)
                        if proc is None:  # not ours: cannot kill it
                            continue
                        proc.kill()
                        proc.join()
                        self.time_out(i, wid)
                self.collect()
                if not self.open:
                    break
                if not permanent and spare >= 0 and len(procs) < workers:
                    for _ in range(min(workers, self.queue.unfinished())
                                   - len(procs)):
                        spawn()
                if not procs:
                    self.abandon(
                        f"queue workers aborted on permanent store errors "
                        f"({permanent} worker(s); see worker stderr)"
                        if permanent else
                        "queue workers exhausted their respawn budget "
                        "before the cell finished")
                    break
                wait([p.sentinel for p in procs.values()], timeout=_POLL)
            clean = True
        finally:
            deadline = time.monotonic() + (_EXIT_GRACE if clean else 0.0)
            for proc in procs.values():
                # Workers exit on their own once the queue drains; give
                # them a moment, then insist.
                proc.join(timeout=max(0.0, deadline - time.monotonic()))
                if proc.exitcode is None:
                    proc.kill()
                    proc.join()

    def reaped(self, items: List[int]) -> None:
        """Record the attempts a reaped worker died in: the claimed
        ``items`` :meth:`~repro.store.queue.WorkQueue.expire` returned
        for it.  Each attempt's trace ends in a ``lost`` terminal."""
        if self.telemetry is None:
            return
        states = (self.queue.snapshot() if items and self.telemetry.trace_id
                  else {})
        for i in items:
            if i not in self.open:
                continue
            self.telemetry.lost(i)
            if i in states:
                # expire() counted the death: attempts + deaths is now
                # the number of the attempt that died.
                self.telemetry.trace_lost(
                    i, LOST_ERROR_TYPE,
                    states[i].attempts + states[i].deaths)

    def time_out(self, i: int, wid: str) -> None:
        """Nack cell ``i`` for the killed worker ``wid`` that held it."""
        state = self.queue.snapshot().get(i)
        if state is not None and state.status == "claimed" \
                and state.worker == wid:
            attempt = state.attempts + state.deaths + 1
            exc = CellTimeoutError(
                f"cell {self.cells[i].label} exceeded its cell-timeout "
                f"of {self.policy.cell_timeout:g}s on attempt {attempt}")
            self.queue.nack(i, type(exc).__name__, str(exc),
                            pickle.dumps(exc))
            if self.telemetry is not None:
                # The killed worker wrote no execute or nack span.
                self.telemetry.trace_lost(i, type(exc).__name__, attempt)
        self.queue.expire(wid)  # anything else it held

    # -- collecting ------------------------------------------------------

    def collect(self) -> None:
        """Fold every newly finished attempt of an open cell into the
        results: retries are announced, results persisted to the store
        (then dropped from the queue), final failures recorded."""
        states = self.queue.snapshot()
        for i in sorted(self.open):
            state = states.get(i)
            if state is None or (state.status == "done"
                                 and state.result is None):
                self.recover(i, state)
                continue
            nacked = (state.status == "failed"
                      and state.error_type != LOST_ERROR_TYPE)
            retried = state.errors[:-1] if nacked else state.errors
            seen = self.reported.get(i, 0)
            for n, err in enumerate(retried[seen:], start=seen + 1):
                self.retried(i, n, err)
            self.reported[i] = len(retried)
            if state.status == "done" and state.result is not None:
                self.completed(i, state)
            elif nacked:
                err = state.errors[-1]
                self.failed(i, _error_of(err), err.error_type, err.message,
                            state)
            elif state.status == "failed":
                exc = WorkerError(
                    f"worker pool broke {state.deaths} times while cell "
                    f"{self.cells[i].label} was in flight (worker killed "
                    f"or died?)")
                self.failed(i, exc, type(exc).__name__, str(exc), state)
                if self.telemetry is not None:
                    self.telemetry.trace_lost(i, LOST_ERROR_TYPE,
                                              state.attempts + state.deaths)

    def retried(self, i: int, failures: int, err: AttemptError) -> None:
        """Report the ``failures``-th failed attempt of a retried cell."""
        if self.telemetry is not None:
            self.telemetry.retried(i, err.attempt)
        if self.progress is not None:
            self.progress.retry(self.cells[i], err.attempt, _error_of(err),
                                self.policy.delay(failures))

    def completed(self, i: int, state: ItemState) -> None:
        assert state.result is not None
        value = pickle.loads(state.result)
        if self.store is not None:
            # Persist before dropping the queue's copy: an interrupt
            # later in the sweep must not lose a finished cell.
            self.store.put(self.keys[i], value)
        self.queue.clear_result(i)
        self.finish(i, value, state)

    def recover(self, i: int, state: Optional[ItemState]) -> None:
        """Cell ``i``'s row holds no result to collect: another run of
        this sweep collected it first, or the row is gone.  Take the
        result from the store, or run the cell again."""
        hit, value = (self.store.get(self.keys[i])
                      if self.store is not None else (False, None))
        if hit:
            self.finish(i, value, state)
            return
        self.reported.pop(i, None)
        if state is None:
            self.queue.publish([self.item(i)])
        else:
            self.queue.reset_items([i])

    def finish(self, i: int, value: Any, state: Optional[ItemState]) -> None:
        self.open.discard(i)
        self.results[i] = value
        elapsed = state.elapsed if state else 0.0
        if self.telemetry is not None:
            self.telemetry.completed(
                i, state.attempts + state.deaths + 1 if state else 1,
                elapsed)
        if self.progress is not None:
            self.progress.cell(self.cells[i], elapsed=elapsed)

    def failed(self, i: int, exc: BaseException, error_type: str,
               message: str, state: Optional[ItemState]) -> None:
        attempts = max(state.attempts + state.deaths, 1) if state else 1
        elapsed = state.elapsed if state else 0.0
        self.open.discard(i)
        self.results[i] = FailedCell(
            index=i, label=self.cells[i].label, key=self.keys[i],
            error_type=error_type, message=message, attempts=attempts,
            elapsed=round(elapsed, 3), exc=exc)
        if self.telemetry is not None:
            self.telemetry.failed(i, attempts, elapsed)
        if self.progress is not None:
            self.progress.cell(self.cells[i], failed=True)

    def abandon(self, reason: str) -> None:
        """Fail every open cell: no worker is left to run it."""
        states = self.queue.snapshot()
        for i in sorted(self.open):
            exc = WorkerError(reason)
            state = states.get(i)
            self.failed(i, exc, type(exc).__name__, reason, state)
            if self.telemetry is not None:
                # The attempt the cell was waiting for, or running in a
                # worker that left without a terminal, is lost.
                self.telemetry.trace_lost(
                    i, type(exc).__name__,
                    state.attempts + state.deaths + 1 if state else 1)
