"""Trace assembly: one run's ``traces/trace.jsonl`` as a span tree.

The coordinator writes a sweep's whole trace to one file (see
:mod:`repro.obs.trace`): the root ``sweep`` span, then each cell's span
followed by its attempt rows (``execute`` / ``lost``), in cell order.
This module reads it back:

* :func:`load_trace_rows` reads the trace of one run directory,
  checking its schema header and every row;
* :func:`stitch` hangs the rows under their parents, keeping the
  file's order;
* :func:`completeness` checks the trace's invariants — one root
  ``sweep``; each cell's attempts numbered 1..K with exactly one row
  each; no attempts under a cached cell; an ``ok`` cell's attempt K an
  ``ok`` ``execute``;
* :func:`canonical` is the deterministic projection (no ``"wall"``, no
  ``det=False`` events) that is byte-identical across ``--jobs`` and
  worker counts — the chaos tests compare it literally;
* :func:`critical_path` attributes the sweep's cell-seconds to
  queue-wait vs execute vs retry.

``lost`` rows are the one row kind that can depend on the schedule
(which worker died holding which attempt), so canonical equality is
asserted for deterministic fault plans (``raise``), not kill-based
ones.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from ..errors import ConfigurationError
from .schema import validate_header, validate_trace_row
from .trace import SPAN_KINDS, TRACE_FILE

__all__ = [
    "canonical",
    "completeness",
    "critical_path",
    "load_trace_rows",
    "render_critical_path",
    "render_tree",
    "stitch",
]

_KIND_ORDER = {kind: i for i, kind in enumerate(SPAN_KINDS)}


def load_trace_rows(run_dir: Union[str, Path]) -> List[Dict[str, Any]]:
    """Every row of ``run_dir``'s trace, schema-validated.

    Raises :class:`~repro.errors.ConfigurationError` when the run has no
    trace, when its header names another schema version, and on the
    first malformed row — a trace that fails its own schema is not
    worth assembling.
    """
    path = Path(run_dir) / "traces" / TRACE_FILE
    if not path.is_file():
        raise ConfigurationError(
            f"no trace at {path}; was the sweep run with --telemetry?")
    rows: List[Dict[str, Any]] = []
    with open(path, encoding="utf-8") as fh:
        for n, line in enumerate(fh, start=1):
            row = json.loads(line)
            if n == 1:
                problems = validate_header(row, "trace", f"{path}:{n}")
                if problems:
                    raise ConfigurationError(problems[0])
                continue
            problems = validate_trace_row(row)
            if problems:
                raise ConfigurationError(
                    f"{path}:{n}: malformed trace row: {problems[0]}")
            rows.append(row)
    return rows


def stitch(rows: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Assemble one trace's rows into a tree.

    Returns ``{"trace", "root", "rows", "children"}``: ``rows`` in file
    order, ``children`` mapping a span ID to its child rows in file
    order, and ``root`` the one parentless row (``None`` when there is
    not exactly one — :func:`completeness` reports it).
    """
    rows = list(rows)
    children: Dict[str, List[Dict[str, Any]]] = {}
    for row in rows:
        if row["parent"] is not None:
            children.setdefault(row["parent"], []).append(row)
    roots = [row for row in rows if row["parent"] is None]
    root = roots[0] if len(roots) == 1 else None
    return {"trace": root["trace"] if root else "", "root": root,
            "rows": rows, "children": children}


def _cells(tree: Dict[str, Any]) -> List[Dict[str, Any]]:
    """The tree's cell rows, in sweep order."""
    return [row for row in tree["rows"] if row["kind"] == "cell"]


def completeness(tree: Dict[str, Any]) -> List[str]:
    """Invariant violations of an assembled trace ([] = complete).

    Checks:

    * there is exactly one root, and it is the ``sweep`` span (a row
      whose parent is not in the trace is another root);
    * each cell's attempts run 1..K, with exactly one row each;
    * a cached cell has no attempts;
    * an ``ok`` cell's attempt K is an ``ok`` ``execute``.
    """
    problems: List[str] = []
    known = {row["span"] for row in tree["rows"]}
    roots = [row for row in tree["rows"] if row["parent"] not in known]
    sweeps = [row for row in roots
              if row["parent"] is None and row["kind"] == "sweep"]
    if len(sweeps) != 1:
        problems.append(f"expected exactly one root sweep span, found "
                        f"{len(sweeps)}")
    for row in roots:
        if row is not tree["root"]:
            problems.append(f"span {row['span']} ({row['kind']} "
                            f"{row['name']}) has unresolved parent "
                            f"{row['parent']}")
    for cell in _cells(tree):
        label = f"cell {cell['name']} ({cell['key'][:12]})"
        rows = tree["children"].get(cell["span"], [])
        if cell["status"] == "cached":
            if rows:
                problems.append(f"{label}: cached cell has attempt rows")
            continue
        attempts = sorted(row["attempt"] for row in rows)
        if attempts != list(range(1, len(rows) + 1)):
            problems.append(
                f"{label}: attempts {attempts} are not 1..K with one row "
                f"each")
        final = [row for row in rows if row["attempt"] == len(rows)]
        if cell["status"] == "ok" and not any(
                row["kind"] == "execute" and row["status"] == "ok"
                for row in final):
            problems.append(
                f"{label}: cell is ok but its attempt {len(rows)} is not "
                f"an ok execute")
    return problems


def _sort_key(row: Dict[str, Any]) -> Tuple[Any, ...]:
    return (row.get("key", ""), _KIND_ORDER.get(row.get("kind", ""), 99),
            row.get("attempt", 0), row.get("span", ""))


def canonical(tree: Dict[str, Any]) -> str:
    """The deterministic projection: byte-identical across schedules.

    Drops every ``"wall"`` sub-object and every ``det=False`` event
    (worker deaths — schedule facts), orders rows by (key, causal kind
    order, attempt, span), and emits compact JSON lines.  What survives
    is a pure function of config + seed + fault plan, so two runs of
    the same sweep — any ``--jobs``, any worker count — compare equal
    with ``==``.
    """
    projected = []
    for row in tree["rows"]:
        projected.append({
            "trace": row["trace"],
            "span": row["span"],
            "parent": row.get("parent"),
            "kind": row["kind"],
            "name": row["name"],
            "key": row.get("key", ""),
            "attempt": row.get("attempt", 0),
            "status": row.get("status", ""),
            "events": [e for e in row.get("events", []) if e.get("det")],
        })
    projected.sort(key=_sort_key)
    return "\n".join(
        json.dumps(row, sort_keys=True, separators=(",", ":"))
        for row in projected) + "\n"


# -- critical path ------------------------------------------------------------

def _duration(row: Dict[str, Any]) -> float:
    wall = row.get("wall") or {}
    start, end = wall.get("start"), wall.get("end")
    if isinstance(start, (int, float)) and isinstance(end, (int, float)):
        return max(0.0, float(end) - float(start))
    return 0.0


def critical_path(tree: Dict[str, Any]) -> Dict[str, Any]:
    """Attribute each cell's wall window to where the time went.

    Buckets (cell-seconds — concurrent cells overlap, so they sum to
    more than the sweep's wall time):

    * ``execute`` — the last answered attempt's ``execute`` row;
    * ``retry`` — every other attempt row: earlier answered attempts and
      ``lost`` attempts, from hand-off to the worker's death or kill;
    * ``queue_wait`` — the rest of the cell's window: waiting for a
      worker, backing off between attempts, and the hand-over of each
      attempt and its answer.

    ``per_cell`` holds one entry per executed cell, longest window
    first (ties in sweep order), with its status, attempts, breakdown,
    ``retries`` (attempts whose failure scheduled a retry) and
    ``losses`` (``lost`` attempts).  The ``critical_cell`` is its head —
    the sweep cannot finish before that cell does, so its breakdown is
    where optimization effort pays first.
    """
    totals = {"queue_wait": 0.0, "execute": 0.0, "retry": 0.0}
    cells: List[Dict[str, Any]] = []
    for cell in _cells(tree):
        if cell["status"] == "cached":
            continue
        rows = tree["children"].get(cell["span"], [])
        final = max((row["attempt"] for row in rows
                     if row["kind"] == "execute"), default=0)
        breakdown = {"queue_wait": 0.0, "execute": 0.0, "retry": 0.0}
        for row in rows:
            final_execute = row["kind"] == "execute" \
                and row["attempt"] == final
            breakdown["execute" if final_execute else "retry"] += \
                _duration(row)
        breakdown["queue_wait"] = max(
            0.0, _duration(cell) - breakdown["execute"] - breakdown["retry"])
        for bucket, seconds in breakdown.items():
            totals[bucket] += seconds
        cells.append({
            "cell": cell["name"], "key": cell["key"],
            "status": cell["status"], "attempts": cell["attempt"],
            "retries": sum(
                1 for row in rows if any(
                    e["name"] == "retry_scheduled" for e in row["events"])),
            "losses": sum(1 for row in rows if row["kind"] == "lost"),
            "window_s": _duration(cell), "breakdown": breakdown,
        })
    cells.sort(key=lambda c: -c["window_s"])
    root = tree["root"]
    return {
        "trace": tree["trace"],
        "sweep_wall_s": _duration(root) if root else None,
        "cells": len(cells),
        "totals": totals,
        "critical_cell": cells[0] if cells else None,
        "per_cell": cells,
    }


# -- rendering ----------------------------------------------------------------

def _fmt_s(value: Optional[float]) -> str:
    return "-" if value is None else f"{value:.3f}s"


def render_critical_path(report: Dict[str, Any]) -> str:
    """Plain-text rendering of a :func:`critical_path` report."""
    lines = [
        "== critical path ==",
        f"trace      : {report['trace']}",
        f"sweep wall : {_fmt_s(report['sweep_wall_s'])}",
        f"cells      : {report['cells']} executed",
    ]
    totals = report["totals"]
    grand = sum(totals.values())
    lines.append("cell-seconds by bucket "
                 "(concurrent cells overlap; not wall time):")
    for bucket in ("execute", "retry", "queue_wait"):
        share = totals[bucket] / grand * 100.0 if grand else 0.0
        lines.append(f"  {bucket:<10s} {totals[bucket]:10.3f}s  "
                     f"{share:5.1f}%")
    crit = report.get("critical_cell")
    if crit is not None:
        b = crit["breakdown"]
        lines.append(
            f"critical cell: {crit['cell']} "
            f"({_fmt_s(crit['window_s'])} window, "
            f"{crit['attempts']} attempt(s)) — "
            f"execute={_fmt_s(b['execute'])} retry={_fmt_s(b['retry'])} "
            f"queue_wait={_fmt_s(b['queue_wait'])}")
    return "\n".join(lines) + "\n"


def _render_row(row: Dict[str, Any], depth: int) -> str:
    worker = (row.get("wall") or {}).get("worker", "")
    marks = "".join(f" [{e['name']}]" for e in row.get("events", []))
    head = f"{'  ' * depth}{row['kind']} {row['name']}"
    if row.get("attempt"):
        head += f" #{row['attempt']}"
    tail = f" ({row.get('status')}, {_duration(row):.3f}s"
    if worker:
        tail += f", {worker}"
    return head + tail + ")" + marks


def render_tree(tree: Dict[str, Any], *, max_cells: int = 0) -> str:
    """Indented text rendering of the trace: the sweep, then each cell
    in sweep order with its attempts."""
    lines: List[str] = [f"trace {tree['trace']}"]
    root = tree["root"]
    if root is not None:
        lines.append(f"sweep {root['name']} ({root['status']}, "
                     f"{_duration(root):.3f}s)")
    cells = _cells(tree)
    for cell in cells[:max_cells] if max_cells else cells:
        lines.append(_render_row(cell, 1))
        lines.extend(_render_row(row, 2)
                     for row in tree["children"].get(cell["span"], []))
    if max_cells and len(cells) > max_cells:
        lines.append(f"  (+{len(cells) - max_cells} more cells)")
    return "\n".join(lines) + "\n"
