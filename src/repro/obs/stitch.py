"""Trace assembly: stitch ``traces/*.jsonl`` files into one span tree.

A traced sweep scatters its spans across processes — the coordinator
writes ``coordinator.jsonl`` (root ``sweep`` span, one ``cell`` span
per cell, ``lost`` terminals), every worker writes its own file
(``claim`` / ``execute`` / ``ack`` / ``nack`` spans).  Because span IDs
are pure functions of (trace, kind, key, attempt) — see
:mod:`repro.obs.trace` — this module can rebuild the tree from *any*
mix of those files, from one run directory or several, without any
process having coordinated with another:

* :func:`load_trace_rows` collects rows from run dirs / traces dirs /
  files (schema headers skipped, malformed rows reported);
* :func:`stitch` merges duplicate span IDs (a rerun that rewrites the
  coordinator's spans, or a cell whose claim was wrongly judged dead
  and ran twice, collapses to one node) and hangs children under
  parents;
* :func:`completeness` checks the causal invariants — one rooted
  sweep, resolvable parents, and for every claimed cell a full
  attempt ladder ending in exactly one terminal (``ack`` / ``nack`` /
  ``lost``), where every attempt whose worker died or was killed ends
  in the coordinator's ``lost`` terminal;
* :func:`canonical` is the deterministic projection (no ``"wall"``, no
  ``det=False`` events) that is byte-identical across ``--jobs`` and
  worker counts — the chaos tests compare it literally;
* :func:`critical_path` attributes the sweep's cell-seconds to
  queue-wait vs execute vs retry vs store I/O.

``lost`` terminals are the one *row* that can depend on the schedule
(which worker died holding which attempt), so canonical equality is
asserted for deterministic fault plans (``raise``), not kill-based
ones.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..errors import ConfigurationError
from .schema import load_jsonl, validate_trace_row
from .trace import SPAN_KINDS

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

#: Merge preference for duplicate span statuses: a definite outcome
#: beats a pending one, an error beats an ok (one of the duplicate
#: executions saw the failure; the trace should show it).
_STATUS_RANK = {"pending": 0, "cached": 1, "ok": 2, "failed": 3, "error": 4}


def _trace_sources(source: Union[str, Path]) -> List[Path]:
    """The ``*.jsonl`` files one source stands for.

    A source may be a telemetry run directory (its ``traces/`` subdir
    is used), a traces directory itself, or a single file — so a trace
    stitches from whatever subset of its files was gathered.
    """
    path = Path(source)
    if path.is_dir():
        traces = path / "traces"
        root = traces if traces.is_dir() else path
        return sorted(root.glob("*.jsonl"))
    if path.is_file():
        return [path]
    raise ConfigurationError(f"trace source {path} does not exist")


def load_trace_rows(sources: Sequence[Union[str, Path]],
                    ) -> List[Dict[str, Any]]:
    """Every trace row from ``sources``, schema-validated.

    Raises :class:`~repro.errors.ConfigurationError` on the first
    malformed row — a trace that fails its own schema is not worth
    stitching.
    """
    rows: List[Dict[str, Any]] = []
    files: List[Path] = []
    for source in sources:
        files.extend(_trace_sources(source))
    if not files:
        raise ConfigurationError(
            f"no trace files found under {[str(s) for s in sources]}; "
            f"was the sweep run with --telemetry?")
    for path in files:
        for n, row in enumerate(load_jsonl(path), start=1):
            problems = validate_trace_row(row)
            if problems:
                raise ConfigurationError(
                    f"{path}:{n}: malformed trace row: {problems[0]}")
            rows.append(row)
    return rows


def _merge(a: Dict[str, Any], b: Dict[str, Any]) -> Dict[str, Any]:
    """Fold duplicate rows for one span ID into one node.

    Duplicates are legitimate — a rerun rewrites the coordinator's
    spans, a cell judged dead while alive runs twice — and
    deterministic IDs make them collapse here instead of forking the
    tree.  Events concatenate (exact duplicates dropped), the status
    with the most definite outcome wins, and the wall window is the
    union.
    """
    out = dict(a)
    seen = {json.dumps(e, sort_keys=True) for e in a.get("events", [])}
    merged_events = list(a.get("events", []))
    for event in b.get("events", []):
        blob = json.dumps(event, sort_keys=True)
        if blob not in seen:
            seen.add(blob)
            merged_events.append(event)
    out["events"] = merged_events
    if _STATUS_RANK.get(b.get("status", ""), -1) > \
            _STATUS_RANK.get(a.get("status", ""), -1):
        out["status"] = b["status"]
    wall_a = a.get("wall") or {}
    wall_b = b.get("wall") or {}
    starts = [w["start"] for w in (wall_a, wall_b)
              if isinstance(w.get("start"), (int, float))]
    ends = [w["end"] for w in (wall_a, wall_b)
            if isinstance(w.get("end"), (int, float))]
    workers = sorted({w.get("worker", "") for w in (wall_a, wall_b)
                      if w.get("worker")})
    out["wall"] = {
        "start": min(starts) if starts else None,
        "end": max(ends) if ends else None,
        "worker": "+".join(workers),
    }
    return out


def _child_sort_key(row: Dict[str, Any]) -> Tuple[Any, ...]:
    return (row.get("key", ""), _KIND_ORDER.get(row.get("kind", ""), 99),
            row.get("attempt", 0), row.get("span", ""))


def stitch(rows: Iterable[Dict[str, Any]],
           trace_id: Optional[str] = None) -> Dict[str, Any]:
    """Assemble rows into one span tree for one trace.

    Returns ``{"trace", "root", "spans", "children"}``: ``spans`` maps
    span ID to its merged row, ``children`` maps span ID to its
    children's IDs in deterministic order, ``root`` is the sweep span's
    ID (or ``None`` — :func:`completeness` reports it).  With rows from
    several traces present, ``trace_id`` selects one; omitting it is an
    error naming the candidates.
    """
    rows = list(rows)
    trace_ids = sorted({row["trace"] for row in rows})
    if trace_id is None:
        if len(trace_ids) > 1:
            raise ConfigurationError(
                f"rows from {len(trace_ids)} traces "
                f"({', '.join(trace_ids)}); pass trace_id to select one")
        trace_id = trace_ids[0] if trace_ids else ""
    spans: Dict[str, Dict[str, Any]] = {}
    for row in rows:
        if row["trace"] != trace_id:
            continue
        sid = row["span"]
        spans[sid] = _merge(spans[sid], row) if sid in spans else dict(row)
    children: Dict[str, List[str]] = {}
    for sid, row in spans.items():
        parent = row.get("parent")
        if parent is not None:
            children.setdefault(parent, []).append(sid)
    for sid in children:
        children[sid].sort(key=lambda c: _child_sort_key(spans[c]))
    roots = [sid for sid, row in spans.items()
             if row.get("parent") is None and row.get("kind") == "sweep"]
    return {
        "trace": trace_id,
        "root": roots[0] if len(roots) == 1 else None,
        "spans": spans,
        "children": children,
    }


def _cell_terminals(tree: Dict[str, Any],
                    cell_id: str) -> List[Dict[str, Any]]:
    """Terminal leaves (``ack``/``nack``/``lost``) in the cell's subtree."""
    spans = tree["spans"]
    out = []
    stack = list(tree["children"].get(cell_id, ()))
    while stack:
        sid = stack.pop()
        row = spans[sid]
        if row["kind"] in ("ack", "nack", "lost"):
            out.append(row)
        stack.extend(tree["children"].get(sid, ()))
    return out


def completeness(tree: Dict[str, Any]) -> List[str]:
    """Causal-invariant violations of a stitched tree ([] = complete).

    Checks:

    * exactly one rooted ``sweep`` span;
    * every non-root span's parent resolves to a known span;
    * every finished, uncached cell was claimed — unless the
      coordinator ended it with a ``lost`` terminal before any worker
      got to it;
    * claims ladder from attempt 1 with no gaps; every non-final
      claimed attempt has its ``nack``; the final attempt has exactly
      one terminal — ``ack`` (cell ok), ``nack`` or ``lost`` (cell
      failed) — and never more than one ``ack``;
    * every claim has its ``execute`` (the attempt actually ran).

    ``lost`` terminals match attempts by number: a claimed attempt
    that ends in one (its worker was reaped dead or killed for a
    timeout) needs no ``execute`` or ``nack``, and the final attempt is
    the highest claimed or lost one.
    """
    problems: List[str] = []
    spans = tree["spans"]
    roots = [s for s in spans.values()
             if s.get("parent") is None and s["kind"] == "sweep"]
    if len(roots) != 1:
        problems.append(
            f"expected exactly one root sweep span, found {len(roots)}")
    for sid in sorted(spans):
        parent = spans[sid].get("parent")
        if parent is not None and parent not in spans:
            problems.append(
                f"span {sid} ({spans[sid]['kind']} {spans[sid]['name']}) "
                f"has unresolved parent {parent}")
    for sid in sorted(spans):
        cell = spans[sid]
        if cell["kind"] != "cell":
            continue
        label = f"cell {cell['name']} ({cell['key'][:12]})"
        kids = [spans[c] for c in tree["children"].get(sid, ())]
        claims = sorted((k for k in kids if k["kind"] == "claim"),
                        key=lambda r: r["attempt"])
        if cell["status"] == "cached":
            if kids:
                problems.append(f"{label}: cached cell has child spans")
            continue
        if not claims:
            if cell["status"] in ("ok", "failed") and not any(
                    k["kind"] == "lost" for k in kids):
                problems.append(f"{label}: no claim span recorded")
            continue
        attempts = [c["attempt"] for c in claims]
        if attempts != list(range(1, len(attempts) + 1)):
            problems.append(
                f"{label}: claim attempts {attempts} are not 1..K")
        terminals = _cell_terminals(tree, sid)
        acks = [t for t in terminals if t["kind"] == "ack"]
        if len(acks) > 1:
            problems.append(f"{label}: {len(acks)} ack spans (max 1)")
        lost = {t["attempt"] for t in terminals if t["kind"] == "lost"}
        final = max([*attempts, *lost])
        for claim in claims:
            if claim["attempt"] in lost:
                continue
            ckids = [spans[c]
                     for c in tree["children"].get(claim["span"], ())]
            if not any(k["kind"] == "execute" for k in ckids):
                problems.append(
                    f"{label}: claim attempt {claim['attempt']} has no "
                    f"execute span")
            nacks = [k for k in ckids if k["kind"] == "nack"]
            if claim["attempt"] < final and not nacks:
                problems.append(
                    f"{label}: attempt {claim['attempt']} was retried "
                    f"but has no nack span")
        final_terms = [t for t in terminals if t["attempt"] == final]
        if not final_terms:
            problems.append(
                f"{label}: no terminal span (ack/nack/lost) for final "
                f"attempt {final}")
        elif len(final_terms) > 1:
            kinds = sorted(t["kind"] for t in final_terms)
            problems.append(
                f"{label}: {len(final_terms)} terminal spans for final "
                f"attempt {final} ({', '.join(kinds)})")
        elif cell["status"] == "ok" and final_terms[0]["kind"] != "ack":
            problems.append(
                f"{label}: cell is ok but its terminal is "
                f"{final_terms[0]['kind']}")
    return problems


def canonical(tree: Dict[str, Any]) -> str:
    """The deterministic projection: byte-identical across schedules.

    Drops every ``"wall"`` sub-object and every ``det=False`` event
    (worker deaths — schedule facts), orders rows by (key,
    causal kind order, attempt, span), and emits compact JSON lines.  What survives is a pure function of config + seed +
    fault plan, so two runs of the same sweep — any ``--jobs``, any
    worker count — compare equal with ``==``.
    """
    projected = []
    for row in tree["spans"].values():
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
    projected.sort(key=_child_sort_key)
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

    * ``execute`` — the final attempt's execute span;
    * ``retry`` — earlier attempts (their execute + nack spans) and
      nacks of the final attempt;
    * ``store`` — claim and ack spans (handing the cell over and its
      answer back);
    * ``queue_wait`` — the rest of the cell's window: waiting for a
      worker, or backing off between attempts.

    ``per_cell`` holds one entry per executed cell, longest window
    first, with its status, attempts, breakdown, ``retries`` (attempts
    whose ``nack`` scheduled a retry) and ``losses`` (attempts the
    coordinator closed with ``lost``).  The ``critical_cell`` is its
    head — the sweep cannot finish before that cell does, so its
    breakdown is where optimization effort pays first.
    """
    spans = tree["spans"]
    totals = {"queue_wait": 0.0, "execute": 0.0, "retry": 0.0, "store": 0.0}
    cells: List[Dict[str, Any]] = []
    for sid in sorted(spans):
        cell = spans[sid]
        if cell["kind"] != "cell" or cell["status"] == "cached":
            continue
        subtree: List[Dict[str, Any]] = []
        stack = list(tree["children"].get(sid, ()))
        while stack:
            child = stack.pop()
            subtree.append(spans[child])
            stack.extend(tree["children"].get(child, ()))
        executes = [r for r in subtree if r["kind"] == "execute"]
        final = max((r["attempt"] for r in executes), default=0)
        breakdown = {"queue_wait": 0.0, "execute": 0.0,
                     "retry": 0.0, "store": 0.0}
        for row in subtree:
            if row["kind"] == "execute":
                bucket = "execute" if row["attempt"] == final else "retry"
            elif row["kind"] == "nack":
                bucket = "retry"
            elif row["kind"] in ("claim", "ack"):
                bucket = "store"
            else:
                continue
            breakdown[bucket] += _duration(row)
        window = _duration(cell)
        accounted = sum(breakdown.values())
        breakdown["queue_wait"] = max(0.0, window - accounted)
        for bucket, seconds in breakdown.items():
            totals[bucket] += seconds
        cells.append({
            "cell": cell["name"], "key": cell["key"],
            "status": cell["status"], "attempts": cell["attempt"],
            "retries": sum(
                1 for r in subtree if r["kind"] == "nack" and any(
                    e["name"] == "retry_scheduled" for e in r["events"])),
            "losses": sum(1 for r in subtree if r["kind"] == "lost"),
            "window_s": window, "breakdown": breakdown,
        })
    cells.sort(key=lambda c: (-c["window_s"], c["key"]))
    root = spans.get(tree["root"]) if tree["root"] else None
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
    for bucket in ("execute", "retry", "store", "queue_wait"):
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
            f"store={_fmt_s(b['store'])} "
            f"queue_wait={_fmt_s(b['queue_wait'])}")
    return "\n".join(lines) + "\n"


def render_tree(tree: Dict[str, Any], *, max_cells: int = 0) -> str:
    """Indented text rendering of the stitched span tree."""
    spans = tree["spans"]
    lines: List[str] = [f"trace {tree['trace']}"]

    def walk(sid: str, depth: int) -> None:
        row = spans[sid]
        wall = row.get("wall") or {}
        worker = wall.get("worker", "")
        dur = _duration(row)
        marks = "".join(
            f" [{e['name']}]" for e in row.get("events", []))
        attempt = row.get("attempt") or 0
        head = f"{'  ' * depth}{row['kind']} {row['name']}"
        if attempt:
            head += f" #{attempt}"
        tail = f" ({row.get('status')}, {dur:.3f}s"
        if worker:
            tail += f", {worker}"
        lines.append(head + tail + ")" + marks)
        for child in tree["children"].get(sid, ()):
            walk(child, depth + 1)

    if tree["root"]:
        root_kids = tree["children"].get(tree["root"], [])
        shown = root_kids if not max_cells else root_kids[:max_cells]
        row = spans[tree["root"]]
        lines.append(f"sweep {row['name']} ({row['status']}, "
                     f"{_duration(row):.3f}s)")
        for child in shown:
            walk(child, 1)
        if max_cells and len(root_kids) > max_cells:
            lines.append(f"  (+{len(root_kids) - max_cells} more cells)")
    else:
        for sid in sorted(spans):
            if spans[sid].get("parent") is None:
                walk(sid, 0)
    return "\n".join(lines) + "\n"
