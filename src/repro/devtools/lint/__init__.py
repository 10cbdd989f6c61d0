"""reprolint: AST-based determinism & correctness analyzer.

The experiment pipeline's two load-bearing invariants — a cell's result
is a pure function of its config + seed (content-addressed cache
soundness) and figure stdout is byte-identical for any ``--jobs``
(ordered reduce) — are enforced mechanically here instead of living in
reviewers' heads.  Run over the tree with::

    python -m repro.devtools.lint src
    python -m repro.devtools.lint --format json src
    python -m repro.devtools.lint --list-rules

Per-file rules live in :mod:`repro.devtools.lint.rules` (DET001,
DET002, DET004 and COR001), whole-program rules in
:mod:`repro.devtools.lint.project_rules` (CON001, TNT001 and
API001).  Both register through :func:`register_rule` exactly like
experiments register through the experiment registry, and are silenced
per line with ``# reprolint: disable=RULE``.  See CONTRIBUTING.md for
the full ruleset documentation and ``tests/devtools/`` for the
tripping / non-tripping fixture suite.
"""

from . import rules  # noqa: F401  — importing registers the builtin ruleset
from . import project_rules  # noqa: F401  — registers the phase-2 ruleset
from .cli import EXIT_CLEAN, EXIT_ERROR, EXIT_FINDINGS, main
from .core import (
    Checker,
    FileContext,
    Finding,
    LintConfigError,
    ProjectRule,
    Rule,
    dotted_name,
    import_aliases,
    iter_rules,
    parse_suppressions,
    register_rule,
    rule_ids,
    unregister_rule,
)
from .index import FileIndex, ProjectIndex, build_file_index

__all__ = [
    "Checker",
    "EXIT_CLEAN",
    "EXIT_ERROR",
    "EXIT_FINDINGS",
    "FileContext",
    "FileIndex",
    "Finding",
    "LintConfigError",
    "ProjectIndex",
    "ProjectRule",
    "Rule",
    "build_file_index",
    "dotted_name",
    "import_aliases",
    "iter_rules",
    "main",
    "parse_suppressions",
    "register_rule",
    "rule_ids",
    "unregister_rule",
]
