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
gets its chance — and its answer is ``(elapsed, value, failure,
record)``: the result, or ``failure = (error_type, message,
exception)``, and, with telemetry on, the attempt's trace record (the
window it ran in and the deterministic events it saw, which the
coordinator folds into the sweep's trace).  A forked worker inherits
the sweep's cells and keys through the fork, receives ``(index,
attempt)`` on its pipe and sends the answer back pickled
(:func:`send_answer`).  It exits on EOF, so no worker outlives its
coordinator by more than the attempt it is running.  Workers never open
the experiment store or write a trace: the coordinator alone does both.
"""

from __future__ import annotations

import os
import pickle
import random
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..errors import WorkerError
from ..obs.runtime import TELEMETRY_ENV, maybe_profile, set_cell
from ..obs.spans import Record
from ..store.faults import inject_cell_faults
from .cells import Cell

__all__ = ["attempt_cell", "execute_attempt", "recv_answer", "send_answer",
           "serve"]

#: What one attempt answers: ``(elapsed, value, failure, record)``,
#: where ``failure`` is ``None`` or ``(error_type, message, exception)``
#: and ``record`` is ``None`` unless telemetry is on.
Answer = Tuple[float, Any, Optional[Tuple[str, str, BaseException]],
               Optional[Record]]


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
                    events: Optional[List[Dict[str, Any]]],
                    ) -> Tuple[float, Any]:
    """Run one attempt of ``cell``; returns ``(elapsed, result)``.

    ``events`` is the traced attempt's event list (``None`` when
    telemetry is off): injected faults are appended to it, the cell is
    named so its series files land at deterministic paths, and a
    cProfile capture may wrap the cell.
    """
    _seed_from_key(key)
    inject_cell_faults(cell.label, attempt, events)
    if events is None:
        start = time.perf_counter()
        result = cell.run()
        return time.perf_counter() - start, result
    set_cell(cell.label)
    start = time.perf_counter()
    with maybe_profile(cell.label):
        result = cell.run()
    return time.perf_counter() - start, result


def attempt_cell(key: str, cell: Cell, attempt: int) -> Answer:
    """Run attempt ``attempt`` of ``cell`` and return its answer.

    With telemetry on, the answer carries the attempt's record
    ``(start, end, events)``, its window in this host's monotonic clock
    (the one the coordinator reads); without, checking the environment
    is all the trace work an attempt does.
    """
    traced = bool(os.environ.get(TELEMETRY_ENV))
    events: Optional[List[Dict[str, Any]]] = [] if traced else None
    start = time.monotonic() if traced else 0.0
    failure = None
    try:
        elapsed, value = execute_attempt(key, cell, attempt, events)
    except Exception as exc:
        elapsed, value = 0.0, None
        failure = (type(exc).__name__, str(exc), exc)
    if events is None:
        return elapsed, value, failure, None
    return elapsed, value, failure, (start, time.monotonic(), events)


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
    elapsed, value, failure, record = answer
    if failure is None:
        try:
            blob = pickle.dumps(answer, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            failure = (type(exc).__name__, str(exc), exc)
    if failure is not None:
        error_type, message, exc = failure
        blob = pickle.dumps(
            (elapsed, None, (error_type, message, _pickled_error(exc)),
             record), protocol=pickle.HIGHEST_PROTOCOL)
    conn.send_bytes(blob)


def recv_answer(conn: Any) -> Answer:
    """Receive a :func:`send_answer` answer from ``conn``."""
    elapsed, value, failure, record = pickle.loads(conn.recv_bytes())
    if failure is None:
        return elapsed, value, None, record
    error_type, message, error = failure
    exc: Any = None
    if error:
        try:
            exc = pickle.loads(error)
        except Exception:
            exc = None
    if not isinstance(exc, BaseException):
        exc = WorkerError(f"{error_type}: {message}")
    return elapsed, None, (error_type, message, exc), record


def serve(conn: Any, cells: Sequence[Cell], keys: Sequence[str],
          inherited: List[Any]) -> None:
    """Body of a worker process the coordinator forks: answer each
    ``(index, attempt)`` received on ``conn`` until EOF.

    ``inherited`` are the coordinator's pipe ends this process got
    through the fork; closing them leaves the coordinator the only
    holder, so each worker sees EOF once the coordinator closes its end
    or dies.
    """
    for end in inherited:
        end.close()
    try:
        while True:
            index, attempt = conn.recv()
            send_answer(conn, attempt_cell(keys[index], cells[index],
                                           attempt))
    except (EOFError, OSError):
        pass  # the coordinator is done with this worker, or gone
