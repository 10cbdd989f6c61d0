"""Text dashboard over a telemetry run directory.

``python -m repro.obs report DIR`` renders, from the run manifest and
the stitched trace a :class:`~repro.obs.session.TelemetrySession`
wrote:

* a run header (experiment, package version, cell counts, wall time);
* the top-N slowest cells — by the execute time of the attempt that
  finished them — with attempt/retry/loss annotations, taken from
  :func:`repro.obs.stitch.critical_path`'s per-cell entries;
* a fault & retry summary: the manifest's counts, plus failed attempts
  grouped by error type (the ``error`` events of ``nack`` spans and the
  ``lost`` spans);
* per-partition sparklines of the recorded time series — occupancy
  against target, and the alpha_i convergence that Figs. 3/5 of the
  paper argue from — rendered via
  :func:`repro.analysis.text_plots.sparkline`.

Everything is plain text (the repo's figures are text too) so the
dashboard can ride along as a CI artifact.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from ..analysis.text_plots import sparkline
from .schema import load_jsonl
from .stitch import critical_path, load_trace_rows, stitch

__all__ = ["render_report", "report_data"]


def _fmt_seconds(value: Optional[float]) -> str:
    return "-" if value is None else f"{value:8.3f}s"


def _spark(values: List[float], width: int, *,
           low: Optional[float] = None,
           high: Optional[float] = None) -> str:
    """Sparkline resampled to at most ``width`` characters."""
    if not values:
        return "(no samples)"
    if len(values) > width:
        n = len(values)
        values = [values[round(i * (n - 1) / (width - 1))]
                  for i in range(width)]
    return sparkline(values, low=low, high=high)


def _header_section(data: Dict[str, Any]) -> List[str]:
    cells = data["cells"]
    wall = data["wall"]
    total_s = wall.get("total_s")
    lines = [
        "== run ==",
        f"experiment : {data['experiment'] or '(unnamed)'}",
        f"version    : repro {data['version'] or '?'}",
        f"interval   : every {data['interval'] or '?'} accesses",
        (f"cells      : {cells.get('total', 0)} total, "
         f"{cells.get('completed', 0)} run, {cells.get('cached', 0)} cached, "
         f"{cells.get('failed', 0)} failed"),
        (f"wall       : {_fmt_seconds(total_s).strip()} total"
         if total_s is not None else "wall       : -"),
    ]
    phases = wall.get("phases") or []
    if phases:
        rendered = ", ".join(f"{p.get('name')}={p.get('seconds', 0):.3f}s"
                             for p in phases)
        lines.append(f"phases     : {rendered}")
    return lines


def _slowest_section(slowest: List[Dict[str, Any]],
                     top_n: int) -> List[str]:
    lines = [f"== slowest cells (top {top_n}) =="]
    if not slowest:
        lines.append("(no executed cells)")
        return lines
    for cell in slowest:
        notes = []
        if cell["retries"]:
            notes.append(f"{cell['retries']} retries")
        if cell["losses"]:
            notes.append(f"{cell['losses']} pool losses")
        if cell["status"] == "failed":
            notes.append("FAILED")
        suffix = f"  ({', '.join(notes)})" if notes else ""
        lines.append(f"{_fmt_seconds(cell['duration_s'])}  "
                     f"{cell['cell']}{suffix}")
    return lines


def _faults_section(faults: Dict[str, Any]) -> List[str]:
    lines = ["== faults & retries =="]
    by_error = faults["by_error"]
    if not by_error and not faults["losses"]:
        lines.append("(clean run: no faults, no retries)")
        return lines
    lines.append(f"retries={faults['retries']}  "
                 f"pool-losses={faults['losses']}  "
                 f"failed-cells={faults['failed_cells']}")
    for error, count in by_error.items():
        lines.append(f"  {error}: {count} failed attempt(s)")
    for cell in faults["failed"]:
        lines.append(f"  FAILED {cell['cell']} after "
                     f"{cell['attempts']} attempt(s)")
    return lines


def _series_section(path: Path, width: int) -> List[str]:
    rows = load_jsonl(path)
    lines = [f"-- {path.name} --"]
    if not rows:
        lines.append("(no samples)")
        return lines
    parts = sorted({int(row["part"]) for row in rows})
    for part in parts:
        mine = [row for row in rows if row["part"] == part]
        occ = [float(row["occupancy"]) for row in mine]
        target = mine[-1]["target"]
        hi = max(max(occ), float(target)) or 1.0
        lines.append(f"part {part} occupancy (target {target}):")
        lines.append(f"  {_spark(occ, width, low=0.0, high=hi)}  "
                     f"last={mine[-1]['occupancy']}")
        alphas = [float(row["alpha"]) for row in mine
                  if row.get("alpha") is not None]
        if alphas:
            lines.append(f"  alpha_{part}: "
                         f"{_spark(alphas, width)}  "
                         f"first={alphas[0]:.4g} last={alphas[-1]:.4g}")
        rates = [row["miss_rate"] for row in mine
                 if row.get("miss_rate") is not None]
        if rates:
            mean = sum(rates) / len(rates)
            lines.append(f"  miss rate: "
                         f"{_spark([float(r) for r in rates], width, low=0.0, high=1.0)}"
                         f"  mean={mean:.4f}")
    return lines


def report_data(run_dir: Union[str, Path], *,
                top_n: int = 10) -> Dict[str, Any]:
    """The report's facts as one JSON-serializable dict (``--json``).

    Mirrors the text sections — manifest header, slowest cells, fault
    summary, series file inventory — without any rendering, so CI can
    assert on fields instead of scraping the dashboard text.  Cell
    counts come from the manifest, everything per cell from the
    stitched trace.
    """
    root = Path(run_dir)
    manifest_path = root / "manifest.json"
    manifest: Dict[str, Any] = (
        json.loads(manifest_path.read_text(encoding="utf-8"))
        if manifest_path.is_file() else {})
    counts = manifest.get("cells", {})
    trace_files = sorted(p.name for p in (root / "traces").glob("*.jsonl"))
    per_cell: List[Dict[str, Any]] = []
    by_error: Dict[str, int] = {}
    if trace_files:
        tree = stitch(load_trace_rows([root]))
        per_cell = critical_path(tree)["per_cell"]
        for span in tree["spans"].values():
            if span["kind"] == "nack":
                errors = [e["error"] for e in span["events"]
                          if e["name"] == "error"]
            elif span["kind"] == "lost":
                errors = [e["error_type"] for e in span["events"]]
            else:
                continue
            for error in errors:
                by_error[error] = by_error.get(error, 0) + 1
    per_cell.sort(key=lambda c: (-c["breakdown"]["execute"], c["key"]))
    return {
        "run_dir": str(root),
        "experiment": manifest.get("experiment", ""),
        "version": manifest.get("version", ""),
        "interval": manifest.get("interval"),
        "cells": counts,
        "wall": manifest.get("wall", {}),
        "slowest": [
            {"cell": c["cell"], "duration_s": c["breakdown"]["execute"],
             "retries": c["retries"], "losses": c["losses"],
             "status": c["status"]}
            for c in per_cell[:top_n]],
        "faults": {
            "retries": counts.get("retries", 0),
            "losses": counts.get("losses", 0),
            "failed_cells": counts.get("failed", 0),
            "by_error": {k: by_error[k] for k in sorted(by_error)},
            "failed": [{"cell": c["cell"], "attempts": c["attempts"]}
                       for c in per_cell if c["status"] == "failed"],
        },
        "series": sorted(
            p.name for p in (root / "series").glob("*.jsonl")),
        "traces": trace_files,
    }


def render_report(run_dir: Union[str, Path], *, top_n: int = 10,
                  width: int = 60, max_series: int = 4) -> str:
    """Render the text dashboard for one telemetry run directory.

    ``top_n`` caps the slowest-cells table, ``width`` the sparkline
    width, and ``max_series`` how many series files are plotted (the
    rest are listed by name).
    """
    root = Path(run_dir)
    data = report_data(root, top_n=top_n)
    sections = []
    if data["version"]:
        sections.append(_header_section(data))
    if data["traces"]:
        sections.append(_slowest_section(data["slowest"], top_n))
        sections.append(_faults_section(data["faults"]))
    if data["series"]:
        block = ["== per-partition series =="]
        for name in data["series"][:max_series]:
            block.extend(_series_section(root / "series" / name, width))
        skipped = data["series"][max_series:]
        if skipped:
            block.append(f"(+{len(skipped)} more series files: "
                         + ", ".join(skipped) + ")")
        sections.append(block)

    if not sections:
        return f"no telemetry artifacts found under {root}\n"
    return "\n".join("\n".join(section) for section in sections) + "\n"
