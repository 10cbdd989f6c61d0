"""The project index the whole-program rules run over.

Per-file rules (:class:`~repro.devtools.lint.core.Rule`) see one AST at
a time; cross-module rules (:class:`~repro.devtools.lint.core.ProjectRule`)
instead see a :class:`ProjectIndex` — a plain-data digest of every
linted file built here: import aliases, class attribute maps (locks,
guarded attributes, sqlite connections, dataclass fields), argparse
flags, and the per-function taint summaries computed by
:mod:`repro.devtools.lint.dataflow`.

Annotations are comments.  ``# reprolint: guarded-by=_lock`` on an
attribute assignment declares the lock that guards it;
``# reprolint: requires-lock=_lock`` on a ``def`` line declares that
callers must hold the lock (the body is analyzed as if locked);
``# reprolint: cli-exempt`` on a dataclass field excuses it from the
CLI-drift check (API001).  See CONTRIBUTING.md.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from .dataflow import summarize_functions

_FnDef = Union[ast.FunctionDef, ast.AsyncFunctionDef]

__all__ = [
    "FileIndex",
    "ProjectIndex",
    "build_file_index",
    "module_name_for",
    "parse_annotations",
]

#: ``# reprolint: key=value key2 ...`` annotation comments (``disable=``
#: belongs to the suppression parser in :mod:`.core`, not here).
_ANNOTATION_RE = re.compile(r"#\s*reprolint:\s*(.+)$")

#: Methods where unlocked access to guarded attributes is sanctioned by
#: design: the object is not yet (or no longer) shared across threads.
CONSTRUCTION_METHODS = frozenset({
    "__init__", "__new__", "__del__", "__getstate__", "__setstate__",
    "__reduce__", "__copy__", "__deepcopy__",
})


def parse_annotations(source: str) -> Dict[int, Dict[str, str]]:
    """Per-line ``# reprolint: key[=value]`` annotations.

    ``disable=`` entries are skipped (they are suppressions, parsed by
    :func:`repro.devtools.lint.core.parse_suppressions`); everything
    else maps ``key -> value`` (``""`` for bare flags like
    ``cli-exempt``).
    """
    table: Dict[int, Dict[str, str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = _ANNOTATION_RE.search(tok.string)
            if not match:
                continue
            entries: Dict[str, str] = {}
            for part in match.group(1).replace(",", " ").split():
                key, _, value = part.partition("=")
                if key == "disable":
                    continue
                entries[key] = value
            if entries:
                line = table.setdefault(tok.start[0], {})
                line.update(entries)
    except tokenize.TokenizeError:
        pass
    return table


def module_name_for(path: str) -> str:
    """Dotted module name a (possibly virtual) path denotes.

    ``.../src/repro/store/queue.py`` -> ``repro.store.queue``; a path
    containing no ``repro`` package directory is dotted from its own
    parts (``pkg/mod.py`` -> ``pkg.mod``) so fixture trees form their
    own mini-projects; ``__init__.py`` names the package itself.
    """
    parts = list(Path(path).parts)
    if "repro" in parts:
        parts = parts[parts.index("repro"):]
    elif parts and parts[0] in ("/", "\\"):
        parts = [parts[-1]]
    if parts and parts[-1].endswith(".py"):
        last = parts[-1][:-3]
        parts = parts[:-1] if last == "__init__" else parts[:-1] + [last]
    return ".".join(p for p in parts if p) or "__main__"


def _resolve_relative(module: str, is_package: bool, level: int,
                      target: Optional[str]) -> Optional[str]:
    """Absolute module a relative import refers to, or ``None``."""
    package = module if is_package else module.rpartition(".")[0]
    for _ in range(level - 1):
        if not package:
            return None
        package = package.rpartition(".")[0]
    if target:
        return f"{package}.{target}" if package else target
    return package or None


@dataclass
class FileIndex:
    """Everything the project rules know about one source file."""

    path: str
    posix: str
    module: str
    #: local name -> dotted origin, relative imports resolved.
    imports: Dict[str, str] = field(default_factory=dict)
    #: line -> suppressed rule IDs (mirrors the per-file table).
    suppressions: Dict[int, List[str]] = field(default_factory=dict)
    #: line -> {annotation key: value}.
    annotations: Dict[int, Dict[str, str]] = field(default_factory=dict)
    #: class name -> class digest (see ``_index_class``).
    classes: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: qualified function name -> taint summary (see ``dataflow``).
    functions: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: argparse ``add_argument`` flags: {"flag", "dest", "line"}.
    argparse_flags: List[Dict[str, Any]] = field(default_factory=list)


def _rich_aliases(tree: ast.Module, module: str,
                  is_package: bool) -> Dict[str, str]:
    """Import aliases with relative imports resolved."""
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
            if node.level:
                base = _resolve_relative(module, is_package, node.level,
                                         node.module)
                if base is None:
                    continue
            else:
                base = node.module
                if base is None:
                    continue
            for name in node.names:
                if name.name == "*":
                    continue
                aliases[name.asname or name.name] = f"{base}.{name.name}"
    return aliases


def _const_str(node: ast.expr) -> Optional[str]:
    return node.value if (isinstance(node, ast.Constant)
                          and isinstance(node.value, str)) else None


def _self_attr(node: ast.expr) -> Optional[str]:
    """``self.<attr>`` -> attr name, else None."""
    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "self"):
        return node.attr
    return None


_LOCK_CONSTRUCTORS = frozenset({
    "threading.Lock", "threading.RLock", "threading.Condition",
    "multiprocessing.Lock", "multiprocessing.RLock",
})

_DATACLASS_DECOS = frozenset({"dataclass", "dataclasses.dataclass"})


def _dotted(node: ast.AST, aliases: Mapping[str, str]) -> Optional[str]:
    """Dotted origin of a Name/Attribute chain under ``aliases``."""
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


def _deco_name(deco: ast.expr, aliases: Mapping[str, str]) -> str:
    """Best-effort dotted (or bare) name of a decorator expression."""
    target = deco.func if isinstance(deco, ast.Call) else deco
    dotted = _dotted(target, aliases)
    if dotted:
        return dotted
    if isinstance(target, ast.Name):
        return target.id
    if isinstance(target, ast.Attribute):
        return target.attr
    return ""


class _ClassIndexer(ast.NodeVisitor):
    """Digest one class body into plain data (locks, attrs, escapes)."""

    def __init__(self, node: ast.ClassDef, aliases: Mapping[str, str],
                 annotations: Mapping[int, Mapping[str, str]]) -> None:
        self.node = node
        self.aliases = aliases
        self.annotations = annotations
        self._param_types: Dict[str, str] = {}
        self.lock_attrs: Set[str] = set()
        self.guarded: Dict[str, str] = {}
        self.attr_types: Dict[str, str] = {}
        self.conn_attrs: Set[str] = set()
        self.sqlite_unsafe = False
        self.accesses: Dict[str, List[Dict[str, Any]]] = {}
        self.foreign_refs: List[Dict[str, Any]] = []
        self.escapes: List[Dict[str, Any]] = []
        self.methods: Dict[str, Dict[str, Any]] = {}
        self.fields: List[Dict[str, Any]] = []
        self.decorators = [_deco_name(d, aliases) for d in node.decorator_list]
        self.is_dataclass = any(
            d in _DATACLASS_DECOS for d in self.decorators)

    def run(self) -> Dict[str, Any]:
        self._scan_fields()
        self._scan_attr_declarations()
        for stmt in self.node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._scan_method(stmt)
        return {
            "lineno": self.node.lineno,
            "decorators": self.decorators,
            "is_dataclass": self.is_dataclass,
            "fields": self.fields,
            "lock_attrs": sorted(self.lock_attrs),
            "guarded": self.guarded,
            "attr_types": self.attr_types,
            "conn_attrs": sorted(self.conn_attrs),
            "sqlite_unsafe": self.sqlite_unsafe,
            "accesses": self.accesses,
            "foreign_refs": self.foreign_refs,
            "escapes": self.escapes,
            "methods": self.methods,
        }

    # -- declarations --------------------------------------------------

    def _scan_fields(self) -> None:
        """Dataclass fields: annotated assignments in the class body."""
        for stmt in self.node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(
                    stmt.target, ast.Name):
                anno = ast.unparse(stmt.annotation) if stmt.annotation else ""
                if anno.startswith("ClassVar"):
                    continue
                exempt = "cli-exempt" in self.annotations.get(
                    stmt.lineno, {})
                self.fields.append({"name": stmt.target.id,
                                    "line": stmt.lineno,
                                    "cli_exempt": exempt})

    def _scan_attr_declarations(self) -> None:
        """Find lock attrs, guarded-by annotations, connection attrs and
        annotation-typed attrs from every ``self.x = ...`` in the class."""
        # First pass: local names bound to sqlite3.connect(...) so the
        # common ``conn = sqlite3.connect(...); self._conn = conn``
        # indirection is still recognized.
        conn_locals: Set[str] = set()
        for stmt in ast.walk(self.node):
            if not isinstance(stmt, ast.Assign):
                continue
            if self._is_sqlite_connect(stmt.value):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        conn_locals.add(target.id)
        for stmt in ast.walk(self.node):
            if isinstance(stmt, ast.Assign):
                value, targets = stmt.value, stmt.targets
                anno = ""
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                value, targets = stmt.value, [stmt.target]
                anno = ast.unparse(stmt.annotation) if stmt.annotation else ""
            else:
                continue
            for target in targets:
                attr = _self_attr(target)
                if attr is None:
                    continue
                note = self.annotations.get(stmt.lineno, {})
                if "guarded-by" in note:
                    self.guarded[attr] = note["guarded-by"]
                dotted = (_dotted(value.func, self.aliases)
                          if isinstance(value, ast.Call) else None)
                if dotted in _LOCK_CONSTRUCTORS:
                    self.lock_attrs.add(attr)
                if (self._is_sqlite_connect(value)
                        or (isinstance(value, ast.Name)
                            and value.id in conn_locals)
                        or "Connection" in anno):
                    self.conn_attrs.add(attr)
                if isinstance(value, ast.Name):
                    # ``self.store = store`` picks up the parameter's
                    # annotation as the attribute's declared type.
                    param_type = self._param_types.get(value.id)
                    if param_type:
                        self.attr_types[attr] = param_type

    def _is_sqlite_connect(self, value: ast.expr) -> bool:
        """True for ``sqlite3.connect(...)``; sets the unsafe flag when
        the call passes ``check_same_thread=False``."""
        if not isinstance(value, ast.Call):
            return False
        if _dotted(value.func, self.aliases) != "sqlite3.connect":
            return False
        for kw in value.keywords:
            if (kw.arg == "check_same_thread"
                    and isinstance(kw.value, ast.Constant)
                    and kw.value.value is False):
                self.sqlite_unsafe = True
        return True

    # -- method bodies -------------------------------------------------

    def _scan_method(self, fn: "_FnDef",
                     ) -> None:
        note = self.annotations.get(fn.lineno, {})
        requires = note.get("requires-lock")
        decos = [_deco_name(d, self.aliases) for d in fn.decorator_list]
        self.methods[fn.name] = {
            "lineno": fn.lineno,
            "requires_lock": requires,
            "decorators": decos,
        }
        # Parameter annotations feed attribute typing in __init__.
        self._param_types = {}
        for arg in fn.args.args + fn.args.kwonlyargs:
            if arg.annotation is not None:
                anno = _dotted(arg.annotation, self.aliases)
                if anno is None and isinstance(arg.annotation, ast.Name):
                    anno = arg.annotation.id
                elif anno is None and isinstance(arg.annotation,
                                                ast.Constant):
                    anno = str(arg.annotation.value)
                if anno:
                    self._param_types[arg.arg] = anno
        if fn.name == "__init__":
            self._scan_attr_declarations()
        held: Tuple[str, ...] = (requires,) if requires else ()
        self._walk_body(fn.body, fn, held)

    def _walk_body(self, body: Sequence[ast.stmt],
                   fn: "_FnDef",
                   held: Tuple[str, ...]) -> None:
        for stmt in body:
            self._walk_stmt(stmt, fn, held)

    def _walk_stmt(self, stmt: ast.stmt,
                   fn: "_FnDef",
                   held: Tuple[str, ...]) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return  # nested defs are their own scope; keep it simple
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            now = held
            for item in stmt.items:
                lock = _self_attr(item.context_expr)
                if lock is not None and lock in self.lock_attrs:
                    now = now + (lock,)
                self._record_reads(item.context_expr, fn, held)
            self._walk_body(stmt.body, fn, now)
            return
        if isinstance(stmt, (ast.Return, ast.Expr)) and stmt.value is not None:
            self._record_escape(stmt.value, fn, held)
        for node in ast.iter_child_nodes(stmt):
            if isinstance(node, ast.stmt):
                self._walk_stmt(node, fn, held)
            elif isinstance(node, ast.expr):
                self._record_reads(node, fn, held)
            elif isinstance(node, (ast.excepthandler,)):
                self._walk_body(node.body, fn, held)
        # Bodies of compound statements are stmt lists, walked above via
        # iter_child_nodes only when they appear as direct children —
        # ast.iter_child_nodes flattens them, so this covers If/For/Try.

    def _record_reads(self, expr: ast.expr,
                      fn: "_FnDef",
                      held: Tuple[str, ...]) -> None:
        for node in ast.walk(expr):
            if not isinstance(node, ast.Attribute):
                continue
            attr = _self_attr(node)
            if attr is not None:
                if attr in self.lock_attrs:
                    continue  # taking/naming the lock is not an access
                write = isinstance(node.ctx, (ast.Store, ast.Del))
                self.accesses.setdefault(attr, []).append({
                    "line": node.lineno, "col": node.col_offset + 1,
                    "write": write, "locks": sorted(set(held)),
                    "method": fn.name,
                })
            elif (node.attr.startswith("_")
                  and not node.attr.startswith("__")
                  and isinstance(node.value, ast.Attribute)):
                # ``self.store._lock`` — reaching into another object's
                # private state; CON001 resolves the owner by the base
                # attribute's declared type.
                base = _self_attr(node.value)
                if base is not None:
                    self.foreign_refs.append({
                        "base": base, "attr": node.attr,
                        "line": node.lineno, "col": node.col_offset + 1,
                        "method": fn.name,
                    })

    def _record_escape(self, value: ast.expr,
                       fn: "_FnDef",
                       held: Tuple[str, ...]) -> None:
        """Return/yield of a raw connection attr (or its cursor)."""
        exprs = [value]
        if isinstance(value, (ast.Yield, ast.YieldFrom)) and value.value:
            exprs = [value.value]
        for expr in exprs:
            attr = _self_attr(expr)
            if attr is None and isinstance(expr, ast.Call):
                # ``return self._conn.cursor()`` escapes the same way.
                if (isinstance(expr.func, ast.Attribute)
                        and expr.func.attr in ("cursor", "execute")):
                    attr = _self_attr(expr.func.value)
            if attr is not None and attr in self.conn_attrs:
                method = self.methods.get(fn.name, {})
                self.escapes.append({
                    "line": expr.lineno, "col": expr.col_offset + 1,
                    "attr": attr, "method": fn.name,
                    "locked": bool(held),
                    "requires": bool(method.get("requires_lock")),
                })


def _argparse_flags(tree: ast.Module) -> List[Dict[str, Any]]:
    """Every ``add_argument("--flag", ...)`` call in the file."""
    flags: List[Dict[str, Any]] = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "add_argument"):
            flag = _const_str(node.args[0]) if node.args else None
            if flag and flag.startswith("--"):
                flags.append({
                    "flag": flag,
                    "dest": flag.lstrip("-").replace("-", "_"),
                    "line": node.lineno,
                })
    return flags


def build_file_index(source: str, path: str, *,
                     tree: Optional[ast.Module] = None) -> FileIndex:
    """Index one file; ``tree`` saves a re-parse of ``source``."""
    from .core import parse_suppressions  # local import: core imports us

    path = str(path)
    if tree is None:
        tree = ast.parse(source, filename=path)
    posix = str(Path(path).as_posix())
    is_package = Path(path).name == "__init__.py"
    module = module_name_for(posix)
    aliases = _rich_aliases(tree, module, is_package)
    annotations = parse_annotations(source)
    idx = FileIndex(
        path=path, posix=posix, module=module, imports=aliases,
        suppressions={line: sorted(ids) for line, ids
                      in parse_suppressions(source).items()},
        annotations=annotations,
        argparse_flags=_argparse_flags(tree),
    )
    class_methods: Dict[str, FrozenSet[str]] = {}
    for stmt in tree.body:
        if not isinstance(stmt, ast.ClassDef):
            continue
        digest = _ClassIndexer(stmt, aliases, annotations).run()
        idx.classes[stmt.name] = digest
        class_methods[stmt.name] = frozenset(digest["methods"])
    idx.functions = summarize_functions(tree, module, aliases, class_methods)
    return idx


class ProjectIndex:
    """The assembled whole-program index the project rules run over."""

    def __init__(self, files: Sequence[FileIndex]) -> None:
        self.files: List[FileIndex] = sorted(files, key=lambda f: f.posix)
        #: qualified function name -> (summary, owning FileIndex).
        self.functions: Dict[str, Tuple[Dict[str, Any], FileIndex]] = {}
        for f in self.files:
            for qual, summary in f.functions.items():
                self.functions.setdefault(qual, (summary, f))

    def suppressions_for(self, path: str) -> Mapping[int, List[str]]:
        for f in self.files:
            if f.path == path:
                return f.suppressions
        return {}

    def find_class(self, name: str) -> List[Tuple[FileIndex, Dict[str, Any]]]:
        """Every indexed class with the given bare name."""
        out = []
        for f in self.files:
            if name in f.classes:
                out.append((f, f.classes[name]))
        return out
