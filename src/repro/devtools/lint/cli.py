"""reprolint command line: ``python -m repro.devtools.lint [opts] paths``.

Exit codes (CI contract):

* ``0`` — no findings;
* ``1`` — at least one finding (the build must fail);
* ``2`` — usage / IO / syntax error (could not complete the analysis).

Findings stream to stdout in ``path:line:col: ID message`` form (or a
JSON array with ``--format json``); the summary line and all errors go
to stderr so tooling can parse stdout alone.  Output ordering is fully
deterministic — reprolint practices what it preaches.

Any selected :class:`~.core.ProjectRule` runs over a project index of
every linted file, built afresh on each run.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence, Type

from .core import Checker, LintConfigError, Rule, iter_rules, rule_ids

__all__ = ["main"]

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_ERROR = 2


def _parse_ids(raw: str, known: set) -> set:
    wanted = {part.strip() for part in raw.split(",") if part.strip()}
    unknown = wanted - known
    if unknown:
        raise LintConfigError(
            f"no such rule: {', '.join(sorted(unknown))} "
            f"(known: {', '.join(sorted(known))})")
    return wanted


def _select_rules(select: Optional[str],
                  ignore: Optional[str]) -> List[Type[Rule]]:
    known = set(rule_ids())
    chosen = set(known)
    if select:
        chosen = _parse_ids(select, known)
    if ignore:
        chosen -= _parse_ids(ignore, known)
    return [cls for cls in iter_rules() if cls.rule_id in chosen]


def _list_rules() -> str:
    lines = ["reprolint rules (see CONTRIBUTING.md for details):", ""]
    for cls in iter_rules():
        lines.append(f"  {cls.rule_id}  {cls.summary}")
        if cls.include:
            lines.append(f"          scope: {', '.join(cls.include)}")
        if cls.allow:
            lines.append(f"          sanctioned: {', '.join(cls.allow)}")
    lines.append("")
    lines.append("suppress one line with: # reprolint: disable=RULE[,RULE]")
    lines.append("explain one rule with:  --explain RULE")
    return "\n".join(lines)


def _explain_rule(rule_id: str) -> str:
    known = set(rule_ids())
    if rule_id not in known:
        raise LintConfigError(
            f"no such rule: {rule_id} (known: {', '.join(sorted(known))})")
    cls = next(cls for cls in iter_rules() if cls.rule_id == rule_id)
    lines = [f"{cls.rule_id}: {cls.summary}", ""]
    doc = (cls.__doc__ or "").strip()
    if doc:
        lines.extend(line.strip() and f"  {line.strip()}" or ""
                     for line in doc.splitlines())
        lines.append("")
    if cls.include:
        lines.append(f"  scope: {', '.join(cls.include)}")
    if cls.allow:
        lines.append(f"  sanctioned paths: {', '.join(cls.allow)}")
    if cls.example_bad:
        lines.append("")
        lines.append("  bad:")
        lines.extend(f"    {line}" for line in
                     cls.example_bad.rstrip().splitlines())
    if cls.example_good:
        lines.append("")
        lines.append("  good:")
        lines.extend(f"    {line}" for line in
                     cls.example_good.rstrip().splitlines())
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.devtools.lint",
        description="reprolint: whole-program determinism, concurrency "
                    "& drift analyzer for the futility-scaling "
                    "reproduction.")
    parser.add_argument("paths", nargs="*", metavar="PATH",
                        help="files or directories to analyze")
    parser.add_argument("--format", default="text",
                        choices=("text", "json"),
                        help="findings output format (default: text)")
    parser.add_argument("--select", default=None, metavar="IDS",
                        help="comma-separated rule IDs to run exclusively")
    parser.add_argument("--ignore", default=None, metavar="IDS",
                        help="comma-separated rule IDs to skip")
    parser.add_argument("--explain", default=None, metavar="RULE",
                        help="print one rule's documentation and "
                             "good/bad examples, then exit")
    parser.add_argument("--no-suppressions", action="store_true",
                        help="report findings even on lines carrying "
                             "'# reprolint: disable=...' comments")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the registered ruleset and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        print(_list_rules())
        return EXIT_CLEAN
    if args.explain:
        try:
            print(_explain_rule(args.explain))
        except LintConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_ERROR
        return EXIT_CLEAN
    if not args.paths:
        parser.print_usage(sys.stderr)
        print("error: no paths given (or use --list-rules)", file=sys.stderr)
        return EXIT_ERROR

    try:
        rules = _select_rules(args.select, args.ignore)
    except LintConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR

    checker = Checker(rules, respect_suppressions=not args.no_suppressions)
    try:
        findings = checker.check_paths(args.paths)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except SyntaxError as exc:
        print(f"error: {exc.filename}:{exc.lineno}: syntax error: "
              f"{exc.msg}", file=sys.stderr)
        return EXIT_ERROR

    if args.format == "json":
        print(json.dumps([f.to_dict() for f in findings],
                         indent=2, sort_keys=True))
    else:
        for finding in findings:
            print(finding.render())
    if findings:
        print(f"reprolint: {len(findings)} finding(s)", file=sys.stderr)
        return EXIT_FINDINGS
    return EXIT_CLEAN
