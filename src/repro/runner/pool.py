"""The coordinator: it hands a sweep's cells to its own workers.

:func:`run_cells` is the single entry point.  It resolves store hits,
then runs every other cell — on the calling thread at ``jobs=1``, in
``jobs`` forked worker processes otherwise — persists each result to
the experiment store as it lands (so an interrupted sweep resumes from
where it died) and returns the results in cell order.  The reduce step
therefore sees the exact sequence a sequential run would have
produced, which makes output byte-identical at any ``--jobs``.

Dispatch lives in the coordinator's memory: each open cell's failed
attempts, worker deaths and backoff deadline are fields of
:class:`_Sweep`, and a forked worker gets one attempt at a time over
its pipe (:func:`repro.runner.worker.serve`).  The store is a sweep's
only durable state, and the coordinator the only process that touches
it: hit reads first, then one ``put`` per result.

Failures are handled the same way at every ``jobs``, per the
:class:`~repro.runner.RetryPolicy`:

* an attempt that raises is retried with capped deterministic backoff
  until ``retries`` is spent; the cell waits out its delay before any
  worker gets it again;
* a worker still running an attempt after ``cell_timeout`` is killed
  and the attempt failed with :class:`~repro.errors.CellTimeoutError`
  — a cell on the calling thread cannot be killed, so a timeout forks a
  worker even at ``jobs=1``;
* a worker that dies is reaped at once and a fresh worker forked; the
  attempt it ran counts a death against its cell, and a cell whose
  workers died more often than its loss budget allows fails with
  :class:`~repro.errors.WorkerError`.

Determinism: every attempt reseeds the global RNGs from the cell key
(:func:`repro.runner.worker.execute_attempt`), so neither ``jobs`` nor
retries can change a result.
"""

from __future__ import annotations

import os
import time
from collections import Counter
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..errors import CellTimeoutError, ReproError, WorkerError
from ..store.faults import active_plan, corrupt_cache_entries
from .cache import cell_key
from .cells import Cell
from .config import RunConfig
from .resilience import FailedCell
from .worker import (Answer, attempt_cell, recv_answer, serve, worker_id,
                     wrap_store)

__all__ = ["run_cells", "default_jobs"]

_PENDING = object()

#: Seconds finished workers get to exit on their own before a kill.
_EXIT_GRACE = 10.0

#: Error type an attempt whose worker died is traced with.
_LOST = "WorkerLost"


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
    so hit reads and result writes retry transient errors and see the
    fault plan's store-op faults; a permanent store error propagates.
    Store hits short-circuit execution; fresh results persist as each
    cell completes, so interrupted sweeps resume from the store.  Under
    ``keep_going`` permanently failed cells yield
    :class:`~repro.runner.FailedCell` sentinels instead of aborting;
    otherwise a single failing :class:`~repro.errors.ReproError`
    propagates unwrapped and any other permanent failure raises
    :class:`~repro.errors.WorkerError` listing *every* failed cell,
    chained to the first one's exception.
    """
    cfg = config if config is not None else RunConfig()
    jobs = cfg.jobs if cfg.jobs and cfg.jobs > 0 else default_jobs()
    sweep = _Sweep(list(cells), cfg)
    sweep.run(jobs)
    results = sweep.results

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
            f"(first: {sweep.cells[missing[0]].label})")
    return results


class _Sweep:
    """Coordinator state for one :func:`run_cells` call: the store, the
    open cells' attempt history, and the fold of every answer into
    ``results``, telemetry and progress."""

    def __init__(self, cells: List[Cell], cfg: RunConfig) -> None:
        self.cells = cells
        self.keys = [cell_key(cell) for cell in cells]
        self.cfg = cfg
        self.policy = cfg.policy()
        self.progress = cfg.progress
        self.telemetry = cfg.telemetry
        self.results: List[Any] = [_PENDING] * len(cells)
        #: The cell whose store call is running: a retried call is
        #: traced on that cell's span.
        self.current: Optional[int] = None
        store = cfg.open_store()
        self.store = (None if store is None else
                      wrap_store(store, cfg.store_retries, self.store_retried))
        #: Cells still waiting for a result or a final failure.
        self.open: Set[int] = set()
        #: Open cells an attempt is running for.
        self.running: Set[int] = set()
        #: Failed attempts and worker deaths per cell.
        self.nacks: "Counter[int]" = Counter()
        self.deaths: "Counter[int]" = Counter()
        #: Monotonic time before which a retried cell waits.
        self.ready_at: Dict[int, float] = {}

    def store_retried(self, op: str, exc: BaseException,
                      failures: int) -> None:
        if self.telemetry is not None and self.current is not None:
            self.telemetry.store_retry(self.current, op, type(exc).__name__,
                                       failures)

    # -- driving ---------------------------------------------------------

    def run(self, jobs: int) -> None:
        """Serve hits from the store, then run the open cells with
        ``jobs`` workers (the calling thread when ``jobs == 1`` and no
        cell timeout applies)."""
        if self.telemetry is not None:
            self.telemetry.begin(self.cells, self.keys)
        if self.progress is not None:
            self.progress.begin(len(self.cells))
        plan = active_plan()
        if plan is not None and self.store is not None and not self.cfg.force:
            corrupt_cache_entries(plan, self.cells, self.keys, self.store)
        for i, cell in enumerate(self.cells):
            if self.store is not None and not self.cfg.force:
                self.current = i
                hit, value = self.store.get(self.keys[i])
                if hit:
                    self.results[i] = value
                    if self.telemetry is not None:
                        self.telemetry.cache_hit(i)
                    if self.progress is not None:
                        self.progress.cell(cell, cached=True)
                    continue
            self.open.add(i)
        if not self.open:
            return
        if jobs == 1 and self.policy.cell_timeout is None:
            self.run_inline()
        else:
            self.run_fleet(min(jobs, len(self.open)))

    def attempt(self, i: int) -> int:
        """The 1-based number of cell ``i``'s next attempt: every
        attempt that failed or whose worker died counts."""
        return self.nacks[i] + self.deaths[i] + 1

    def next_cell(self) -> Optional[int]:
        """The lowest-index open cell that nothing runs and whose
        backoff has passed."""
        now = time.monotonic()
        return min((i for i in self.open - self.running
                    if self.ready_at.get(i, 0.0) <= now), default=None)

    def backoff_end(self) -> Optional[float]:
        """When the next backing-off cell becomes runnable."""
        return min((self.ready_at.get(i, 0.0)
                    for i in self.open - self.running), default=None)

    def ticket(self, i: int) -> Tuple[int, int, bool, Any]:
        """What an attempt of cell ``i`` is handed: ``(index, attempt,
        retry, trace context)``, ``retry`` saying whether a failure of
        this attempt will be retried."""
        ctx = (self.telemetry.trace_context(i)
               if self.telemetry is not None else None)
        return (i, self.attempt(i), self.nacks[i] < self.policy.retries,
                ctx)

    def run_inline(self) -> None:
        """Run every open cell on the calling thread, lowest index
        first, each as soon as its backoff has passed."""
        tracing = bool(os.environ.get("REPRO_TELEMETRY"))
        if tracing:
            from ..obs.trace import set_worker

            set_worker(worker_id(os.getpid(), os.getpid()))
        try:
            while self.open:
                i = self.next_cell()
                if i is None:
                    end = self.backoff_end()
                    assert end is not None
                    time.sleep(max(0.0, end - time.monotonic()))
                    continue
                _, attempt, retry, ctx = self.ticket(i)
                answers: List[Answer] = []
                attempt_cell(self.keys[i], self.cells[i], attempt, retry,
                             ctx, answers.append)
                self.land(i, attempt, answers[0])
        finally:
            if tracing:
                from ..obs.trace import close_ambient_writers, set_worker

                close_ambient_writers()
                set_worker("")

    def run_fleet(self, workers: int) -> None:
        """Run the open cells in ``workers`` forked worker processes,
        one attempt per worker at a time.

        Each pass tops the fleet up, hands runnable cells to idle
        workers, waits for an answer, a death, a backoff's end or a
        cell timeout, folds in the answers, reaps dead workers and kills
        workers past ``cell_timeout``.  A worker that died running an
        attempt is always replaced: its cell's loss budget bounds those
        deaths.  A death outside any attempt draws on a spare budget of
        ``workers * (loss_budget + 1)``.
        """
        import multiprocessing
        from multiprocessing.connection import wait

        context = multiprocessing.get_context("fork")
        coordinator = os.getpid()
        timeout = self.policy.cell_timeout
        #: Our end of each worker's pipe -> the worker.
        procs: Dict[Any, Any] = {}
        #: Our end of each busy worker's pipe -> (cell, attempt, start).
        busy: Dict[Any, Tuple[int, int, float]] = {}
        spare = workers * (self.policy.loss_budget + 1)

        def spawn() -> None:
            if self.store is not None:
                self.store.close()  # no SQLite connection crosses a fork
            end, child = context.Pipe()
            proc = context.Process(
                target=serve, daemon=True,
                args=(child, self.cells, self.keys, [*procs, end],
                      coordinator))
            proc.start()
            child.close()
            procs[end] = proc

        def retire(end: Any) -> Any:
            end.close()
            return procs.pop(end)

        clean = False
        try:
            while self.open:
                while spare >= 0 and len(procs) < min(workers,
                                                       len(self.open)):
                    spawn()
                if not procs:
                    self.abandon("workers exhausted their respawn budget "
                                 "before the cell finished")
                    break
                for end in procs:
                    if end in busy:
                        continue
                    i = self.next_cell()
                    if i is None:
                        break
                    ticket = self.ticket(i)
                    try:
                        end.send(ticket)
                    except OSError:
                        continue  # a dead worker: reaped below
                    self.running.add(i)
                    busy[end] = (i, ticket[1], time.monotonic())
                deadlines = ([start + timeout for _, _, start in
                              busy.values()] if timeout is not None else [])
                backoff = self.backoff_end()
                if backoff is not None and len(busy) < len(procs):
                    deadlines.append(backoff)
                ready = wait(
                    [*procs, *(proc.sentinel for proc in procs.values())],
                    max(0.0, min(deadlines) - time.monotonic())
                    if deadlines else None)
                for end, proc in list(procs.items()):
                    alive = proc.sentinel not in ready
                    answers: List[Answer] = []
                    try:
                        while end.poll():
                            answers.append(recv_answer(end))
                    except (EOFError, OSError):
                        alive = False
                    for answer in answers:
                        i, attempt, _ = busy.pop(end)
                        self.land(i, attempt, answer)
                    if not alive:
                        retire(end).join()
                        if end in busy:
                            i, attempt, _ = busy.pop(end)
                            self.died(i, attempt)
                        else:
                            spare -= 1
                if timeout is not None:
                    now = time.monotonic()
                    for end, (i, attempt, start) in list(busy.items()):
                        if now - start > timeout:
                            proc = retire(end)
                            proc.kill()
                            proc.join()
                            del busy[end]
                            self.timed_out(i, attempt)
            clean = True
        finally:
            # Closing our ends lets idle workers exit on EOF; give them a
            # moment, then insist.
            for end in procs:
                end.close()
            deadline = time.monotonic() + (_EXIT_GRACE if clean else 0.0)
            for proc in procs.values():
                proc.join(timeout=max(0.0, deadline - time.monotonic()))
                if proc.exitcode is None:
                    proc.kill()
                    proc.join()

    # -- folding answers in ------------------------------------------------

    def land(self, i: int, attempt: int, answer: Answer) -> None:
        """Fold the answer of attempt ``attempt`` of cell ``i`` in: a
        result is persisted, then recorded; a failure is a nack."""
        elapsed, value, failure = answer
        self.running.discard(i)
        if failure is not None:
            self.nack(i, attempt, *failure)
            return
        if self.store is not None:
            # Persisted as it lands: an interrupt later in the sweep must
            # not lose a finished cell.
            self.current = i
            self.store.put(self.keys[i], value)
        self.open.discard(i)
        self.results[i] = value
        if self.telemetry is not None:
            self.telemetry.completed(i, attempt, elapsed)
        if self.progress is not None:
            self.progress.cell(self.cells[i], elapsed=elapsed)

    def nack(self, i: int, attempt: int, error_type: str, message: str,
             exc: BaseException) -> None:
        """Attempt ``attempt`` of cell ``i`` failed with ``exc``: retry
        it after its backoff, or fail the cell once ``retries`` is
        spent."""
        self.nacks[i] += 1
        if self.nacks[i] > self.policy.retries:
            self.failed(i, exc, error_type, message, attempt)
            return
        delay = self.policy.delay(self.nacks[i])
        self.ready_at[i] = time.monotonic() + delay
        if self.telemetry is not None:
            self.telemetry.retried(i, attempt)
        if self.progress is not None:
            self.progress.retry(self.cells[i], attempt, exc, delay)

    def died(self, i: int, attempt: int) -> None:
        """The worker running attempt ``attempt`` of cell ``i`` died."""
        self.running.discard(i)
        self.deaths[i] += 1
        if self.telemetry is not None:
            self.telemetry.lost(i)
            # The dead worker wrote no execute or nack span.
            self.telemetry.trace_lost(i, _LOST, attempt)
        if self.deaths[i] > self.policy.loss_budget:
            exc = WorkerError(
                f"worker pool broke {self.deaths[i]} times while cell "
                f"{self.cells[i].label} was in flight (worker killed or "
                f"died?)")
            self.failed(i, exc, type(exc).__name__, str(exc), attempt)

    def timed_out(self, i: int, attempt: int) -> None:
        """Attempt ``attempt`` of cell ``i`` outlived ``cell_timeout``
        and its worker was killed."""
        self.running.discard(i)
        exc = CellTimeoutError(
            f"cell {self.cells[i].label} exceeded its cell-timeout "
            f"of {self.policy.cell_timeout:g}s on attempt {attempt}")
        if self.telemetry is not None:
            # The killed worker wrote no execute or nack span.
            self.telemetry.trace_lost(i, type(exc).__name__, attempt)
        self.nack(i, attempt, type(exc).__name__, str(exc), exc)

    def failed(self, i: int, exc: BaseException, error_type: str,
               message: str, attempts: int) -> None:
        self.open.discard(i)
        self.results[i] = FailedCell(
            index=i, label=self.cells[i].label, key=self.keys[i],
            error_type=error_type, message=message, attempts=attempts,
            elapsed=0.0, exc=exc)
        if self.telemetry is not None:
            self.telemetry.failed(i, attempts, 0.0)
        if self.progress is not None:
            self.progress.cell(self.cells[i], failed=True)

    def abandon(self, reason: str) -> None:
        """Fail every open cell: no worker is left to run it."""
        for i in sorted(self.open):
            exc = WorkerError(reason)
            attempt = self.attempt(i)
            self.failed(i, exc, type(exc).__name__, reason,
                        max(attempt - 1, 1))
            if self.telemetry is not None:
                # The attempt the cell was waiting for is lost.
                self.telemetry.trace_lost(i, type(exc).__name__, attempt)
