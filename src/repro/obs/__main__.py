"""CLI for telemetry artifacts: ``python -m repro.obs <command> DIR``.

``report``
    Render the text dashboard for a run directory (written by
    ``--telemetry`` runs of the experiments CLI) to stdout or ``--out``;
    ``--json`` emits the same facts as one machine-readable object.
``validate``
    Check every artifact in a run directory against the JSONL schemas;
    exits non-zero listing each problem (the CI smoke job's gate).
``trace``
    Read a run directory's ``traces/trace.jsonl`` as the sweep's span
    tree; print the tree and the critical-path report, or ``--check``
    its completeness, or emit the ``--canonical`` schedule-independent
    projection.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from ..errors import ConfigurationError
from .report import render_report, report_data
from .schema import validate_run_dir
from .stitch import (canonical, completeness, critical_path, load_trace_rows,
                     render_critical_path, render_tree, stitch)


def _cmd_report(args: argparse.Namespace) -> int:
    if args.json:
        text = json.dumps(report_data(args.dir, top_n=args.top),
                          indent=2, sort_keys=True) + "\n"
    else:
        text = render_report(args.dir, top_n=args.top, width=args.width,
                             max_series=args.max_series)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    problems = validate_run_dir(args.dir)
    if problems:
        for problem in problems:
            print(problem, file=sys.stderr)
        print(f"{len(problems)} schema problem(s) in {args.dir}",
              file=sys.stderr)
        return 1
    print(f"telemetry artifacts in {args.dir} are valid")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    tree = stitch(load_trace_rows(args.dir))
    problems = completeness(tree)
    if args.check:
        if problems:
            for problem in problems:
                print(problem, file=sys.stderr)
            print(f"{len(problems)} completeness problem(s) in trace "
                  f"{tree['trace']}", file=sys.stderr)
            return 1
        print(f"trace {tree['trace']} is complete "
              f"({len(tree['rows'])} spans)")
        return 0
    if args.canonical:
        sys.stdout.write(canonical(tree))
        return 0
    sys.stdout.write(render_tree(tree, max_cells=args.max_cells))
    sys.stdout.write("\n")
    sys.stdout.write(render_critical_path(critical_path(tree)))
    if problems:
        print(f"\nWARNING: {len(problems)} completeness problem(s); "
              "run with --check for the list", file=sys.stderr)
        return 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Inspect telemetry run directories.")
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser(
        "report", help="render the text dashboard for a run directory")
    report.add_argument("dir", help="telemetry run directory")
    report.add_argument("--top", type=int, default=10, metavar="N",
                        help="slowest cells to list (default 10)")
    report.add_argument("--width", type=int, default=60,
                        help="sparkline width in characters (default 60)")
    report.add_argument("--max-series", type=int, default=4, metavar="N",
                        help="series files to plot (default 4)")
    report.add_argument("--json", action="store_true",
                        help="emit the report facts as JSON instead of text")
    report.add_argument("--out", default=None, metavar="FILE",
                        help="write the dashboard to FILE instead of stdout")

    validate = sub.add_parser(
        "validate", help="validate a run directory against the schemas")
    validate.add_argument("dir", help="telemetry run directory")

    trace = sub.add_parser(
        "trace", help="show a run directory's trace as the sweep's span tree")
    trace.add_argument("dir", help="telemetry run directory")
    trace.add_argument("--check", action="store_true",
                       help="only check the trace's completeness (CI gate)")
    trace.add_argument("--canonical", action="store_true",
                       help="emit the schedule-independent projection")
    trace.add_argument("--max-cells", type=int, default=0, metavar="N",
                       help="cap rendered cell subtrees (0 = all)")

    args = parser.parse_args(argv)
    handlers = {"report": _cmd_report, "validate": _cmd_validate,
                "trace": _cmd_trace}
    try:
        return handlers[args.command](args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
