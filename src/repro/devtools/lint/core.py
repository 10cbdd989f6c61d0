"""reprolint framework: findings, rule registry, suppressions, checker.

The analyzer mirrors the experiment-registry pattern
(:mod:`repro.experiments.registry`): every check is a :class:`Rule`
subclass registered under a stable ID via :func:`register_rule`, and the
:class:`Checker` runs any subset of the registry over parsed source
files.  Rules are pure AST passes — no imports of the code under
analysis, no execution — so the linter can safely run over broken or
heavyweight modules.

Suppression is per line: a ``# reprolint: disable=RULE`` (or
``disable=RULE1,RULE2``, or ``disable=all``) comment on the *physical
line a finding points at* silences that finding.  Suppressions are
deliberately narrow; there is no file- or block-level escape hatch, so
every accepted hazard is visible at the line that carries it.

Path scoping: a rule may declare ``include`` fragments (only library
files matching one of them are checked — e.g. COR001 only watches
``repro/core/`` and ``repro/analysis/``) and ``allow`` fragments
(sanctioned files skipped entirely — e.g. the worker-reseed site in
``repro/runner/worker.py`` for DET001).  ``include`` scoping only applies
to files that live inside a ``repro`` package directory; standalone
snippets (fixtures, examples) are always checked, which keeps the rule
testable outside the tree.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass
from pathlib import Path, PurePosixPath
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Type,
)

__all__ = [
    "Checker",
    "FileContext",
    "Finding",
    "LintConfigError",
    "ProjectRule",
    "Rule",
    "dotted_name",
    "import_aliases",
    "iter_rules",
    "parse_suppressions",
    "register_rule",
    "rule_ids",
    "unregister_rule",
]

#: Matches ``# reprolint: disable=DET001`` / ``disable=DET001,DET002`` /
#: ``disable=all`` anywhere in a comment.
_SUPPRESS_RE = re.compile(
    r"#\s*reprolint:\s*disable=([A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*)")

#: Stable rule IDs are an uppercase prefix plus a 3-digit number.
_RULE_ID_RE = re.compile(r"^[A-Z]{3}\d{3}$")

#: Sentinel suppression token silencing every rule on a line.
SUPPRESS_ALL = "all"


class LintConfigError(ValueError):
    """Invalid analyzer configuration (bad rule ID, unknown rule, ...)."""


@dataclass(frozen=True, order=True)
class Finding:
    """One diagnostic: a rule fired at a source location."""

    path: str
    line: int
    col: int
    rule_id: str
    message: str

    def render(self) -> str:
        """Classic compiler format: ``path:line:col: ID message``."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready mapping (stable key order via sort_keys later)."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule_id,
            "message": self.message,
        }


@dataclass(frozen=True)
class FileContext:
    """Everything a rule sees for one source file."""

    #: Path exactly as reported in findings.
    path: str
    #: Normalized posix path used for include/allow scoping.
    posix: str
    source: str
    tree: ast.Module
    #: line number -> rule IDs suppressed there (may contain ``all``).
    suppressions: Mapping[int, FrozenSet[str]]
    #: local name -> dotted module/attribute origin (import tracking).
    aliases: Mapping[str, str]

    @property
    def in_package(self) -> bool:
        """True when the file lives inside a ``repro`` package tree."""
        return "repro" in PurePosixPath(self.posix).parts


class Rule:
    """Base class for reprolint rules.

    Subclasses set the class attributes below and implement
    :meth:`check`; decorating with :func:`register_rule` adds them to
    the default ruleset.

    Attributes
    ----------
    rule_id:
        Stable ID, ``AAA000`` shape (``DET...`` determinism,
        ``COR...`` correctness).  Never renumber a published rule.
    summary:
        One-line description shown by ``--list-rules``.
    include:
        Posix path fragments; when non-empty, library files matching
        none of them are skipped (see module docstring).
    allow:
        Posix path fragments of sanctioned files this rule never fires
        in (the auditable alternative to sprinkling suppressions).
    """

    rule_id: str = ""
    summary: str = ""
    include: Tuple[str, ...] = ()
    allow: Tuple[str, ...] = ()
    #: Optional illustrative snippets shown by ``--explain``.
    example_bad: str = ""
    example_good: str = ""

    def path_applies(self, posix: str) -> bool:
        """Path-level gate combining ``allow`` and ``include``."""
        if any(frag in posix for frag in self.allow):
            return False
        in_package = "repro" in PurePosixPath(posix).parts
        if self.include and in_package:
            return any(frag in posix for frag in self.include)
        return True

    def applies_to(self, ctx: FileContext) -> bool:
        """Path-level gate for one file context."""
        return self.path_applies(ctx.posix)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Yield every finding for ``ctx``; must not mutate the tree."""
        raise NotImplementedError

    def finding(self, ctx: FileContext, node: ast.AST, message: str) -> Finding:
        """Build a :class:`Finding` at ``node``'s location."""
        return Finding(path=ctx.path, line=getattr(node, "lineno", 1),
                       col=getattr(node, "col_offset", 0) + 1,
                       rule_id=self.rule_id, message=message)


class ProjectRule(Rule):
    """Base class for whole-program (phase 2) rules.

    A :class:`ProjectRule` never sees a single AST; it runs once per
    lint invocation over the assembled
    :class:`~repro.devtools.lint.index.ProjectIndex` and may report
    findings in any indexed file.  ``include``/``allow`` scoping is
    applied to each *finding's* path rather than gating the rule as a
    whole, so a cross-module rule can follow evidence through files it
    would never report in.
    """

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Project rules do not participate in the per-file phase."""
        return iter(())

    def check_project(self, index: Any) -> Iterator[Finding]:
        """Yield findings for the whole project index."""
        raise NotImplementedError

    def finding_at(self, path: str, line: int, col: int,
                   message: str) -> Finding:
        """Build a :class:`Finding` at an explicit location."""
        return Finding(path=path, line=line, col=col,
                       rule_id=self.rule_id, message=message)


_RULES: Dict[str, Type[Rule]] = {}


def register_rule(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the default registry.

    Mirrors :func:`repro.experiments.registry.register_experiment`:
    IDs are unique and stable; re-registering an ID raises.
    """
    if not _RULE_ID_RE.match(cls.rule_id or ""):
        raise LintConfigError(
            f"rule {cls.__name__} has invalid id {cls.rule_id!r}; "
            f"expected e.g. 'DET001'")
    if cls.rule_id in _RULES:
        raise LintConfigError(f"rule id {cls.rule_id!r} is already registered")
    if not cls.summary:
        raise LintConfigError(f"rule {cls.rule_id} must define a summary")
    _RULES[cls.rule_id] = cls
    return cls


def unregister_rule(rule_id: str) -> None:
    """Remove a rule (primarily for tests and plugins)."""
    _RULES.pop(rule_id, None)


def rule_ids() -> List[str]:
    """Sorted IDs of all registered rules."""
    return sorted(_RULES)


def iter_rules() -> Iterator[Type[Rule]]:
    """Iterate rule classes in sorted-ID order."""
    for rid in rule_ids():
        yield _RULES[rid]


def parse_suppressions(source: str) -> Dict[int, FrozenSet[str]]:
    """Map line numbers to the rule IDs suppressed on them.

    Tolerates tokenize errors (the AST parse is the authoritative
    syntax gate); a file that parses but cannot be tokenized simply has
    no suppressions.
    """
    table: Dict[int, FrozenSet[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = _SUPPRESS_RE.search(tok.string)
            if not match:
                continue
            ids = frozenset(part.strip() for part in match.group(1).split(","))
            line = tok.start[0]
            table[line] = table.get(line, frozenset()) | ids
    except tokenize.TokenizeError:
        pass
    return table


def import_aliases(tree: ast.Module) -> Dict[str, str]:
    """Resolve local names to dotted import origins.

    ``import numpy as np`` maps ``np -> numpy``; ``from datetime import
    datetime`` maps ``datetime -> datetime.datetime``; relative imports
    are ignored (the determinism rules target stdlib/numpy only).
    """
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for name in node.names:
                if name.asname:
                    aliases[name.asname] = name.name
                else:
                    root = name.name.split(".")[0]
                    aliases[root] = root
        elif isinstance(node, ast.ImportFrom):
            if node.level or not node.module:
                continue
            for name in node.names:
                if name.name == "*":
                    continue
                aliases[name.asname or name.name] = (
                    f"{node.module}.{name.name}")
    return aliases


def dotted_name(node: ast.AST, aliases: Mapping[str, str]) -> Optional[str]:
    """Dotted origin of a Name/Attribute chain, or None.

    ``np.random.default_rng`` with ``np -> numpy`` resolves to
    ``"numpy.random.default_rng"``.  Chains whose root is not a tracked
    import resolve to None — a local variable that merely shadows a
    module name must not trip module-targeted rules.
    """
    parts: List[str] = []
    cur = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if not isinstance(cur, ast.Name):
        return None
    origin = aliases.get(cur.id)
    if origin is None:
        return None
    parts.append(origin)
    return ".".join(reversed(parts))


def _as_posix(path: str) -> str:
    return str(PurePosixPath(Path(path).as_posix()))


class Checker:
    """Run a set of rules over source files and collect findings.

    Per-file rules run one AST at a time.  When any
    :class:`ProjectRule` is selected, the checker then indexes every
    linted file into a
    :class:`~repro.devtools.lint.index.ProjectIndex` and runs the
    project rules over it.
    """

    def __init__(self, rules: Optional[Iterable[Type[Rule]]] = None, *,
                 respect_suppressions: bool = True) -> None:
        classes = list(rules) if rules is not None else list(iter_rules())
        self.rules: List[Rule] = [cls() for cls in classes]
        self.respect_suppressions = respect_suppressions

    @property
    def file_rules(self) -> List[Rule]:
        return [r for r in self.rules if not isinstance(r, ProjectRule)]

    @property
    def project_rules(self) -> List[ProjectRule]:
        return [r for r in self.rules if isinstance(r, ProjectRule)]

    def check_source(self, source: str, path: str = "<string>") -> List[Finding]:
        """Lint one in-memory source blob under a (possibly virtual) path.

        Raises :class:`SyntaxError` when the source does not parse; the
        CLI maps that to exit code 2.
        """
        return self.check_sources([(path, source)])

    def check_sources(self, pairs: Sequence[Tuple[str, str]]) -> List[Finding]:
        """Lint ``(path, source)`` blobs as one project.

        Each blob is parsed once: the per-file rules and the project
        index share its tree.
        """
        parsed = [(path, source, ast.parse(source, filename=path))
                  for path, source in pairs]
        findings: List[Finding] = []
        for path, source, tree in parsed:
            findings.extend(self._check_file_phase(source, path, tree))
        if self.project_rules:
            from .index import (  # circular-at-import guard
                ProjectIndex, build_file_index)

            index = ProjectIndex([build_file_index(source, path, tree=tree)
                                  for path, source, tree in parsed])
            findings.extend(self._check_project_phase(index))
        return sorted(findings)

    def _check_file_phase(self, source: str, path: str,
                          tree: ast.Module) -> List[Finding]:
        ctx = FileContext(
            path=path, posix=_as_posix(path), source=source, tree=tree,
            suppressions=parse_suppressions(source),
            aliases=import_aliases(tree))
        findings: List[Finding] = []
        for rule in self.file_rules:
            if not rule.applies_to(ctx):
                continue
            for finding in rule.check(ctx):
                if self.respect_suppressions and self._suppressed(ctx, finding):
                    continue
                findings.append(finding)
        return findings

    def _check_project_phase(self, index: Any) -> List[Finding]:
        findings: List[Finding] = []
        for rule in self.project_rules:
            for finding in rule.check_project(index):
                if not rule.path_applies(_as_posix(finding.path)):
                    continue
                if self.respect_suppressions:
                    ids = index.suppressions_for(finding.path).get(
                        finding.line)
                    if ids and (finding.rule_id in ids
                                or SUPPRESS_ALL in ids):
                        continue
                findings.append(finding)
        return findings

    def check_paths(self, paths: Sequence[str]) -> List[Finding]:
        """Lint files and directory trees (``*.py``, sorted walk)."""
        return self.check_sources(self._collect(paths))

    @staticmethod
    def _collect(paths: Sequence[str]) -> List[Tuple[str, str]]:
        pairs: List[Tuple[str, str]] = []
        for path in paths:
            target = Path(path)
            if target.is_dir():
                items = [str(item) for item in sorted(target.rglob("*.py"))
                         if "__pycache__" not in item.parts]
            else:
                items = [str(target)]
            for item in items:
                with tokenize.open(item) as fh:  # honors PEP 263 cookies
                    pairs.append((item, fh.read()))
        return pairs

    @staticmethod
    def _suppressed(ctx: FileContext, finding: Finding) -> bool:
        ids = ctx.suppressions.get(finding.line)
        if not ids:
            return False
        return finding.rule_id in ids or SUPPRESS_ALL in ids
