"""Summary-based taint dataflow for the whole-program analyzer.

Phase 1 (:func:`summarize_functions`, called while indexing) digests
every function body into a plain-data *taint summary*: which calls feed
which arguments, what flows into the return value, which ``self``
attributes are written with what, and which dict fields receive flowing
values.  Provenance is tracked as strings:

* ``call:<dotted>@<line>`` — the result of a call (a taint source if a
  rule says ``<dotted>`` is one, an edge to follow if ``<dotted>`` is a
  project function);
* ``param:<name>`` — the value of a parameter (resolved at call sites);
* ``attr:<module>.<Class>.<attr>`` — the value of a ``self`` attribute
  (resolved against every write to it anywhere in the class).

Phase 2 (:class:`TaintEngine`, run by the TNT/CON rules) stitches the
summaries together along the call graph: a fixpoint resolves which
functions *return* taint and which *forward parameters into sinks*, so a
``time.time()`` in one module is traced through assignments, returns and
attribute fields into a cache-key hash in another — precisely the flows
the per-file DET rules cannot see.

The analysis is deliberately optimistic where it must guess (unresolved
calls propagate the union of their argument taints; containers taint
wholesale) and terminates via memoization + cycle guards.  It is a
linter, not a verifier: its job is to make cross-module clock/RNG leaks
*visible*, with a provenance chain a human can check in seconds.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
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
    Set,
    Tuple,
)

__all__ = [
    "SinkSpec",
    "TaintEngine",
    "TaintFlow",
    "summarize_functions",
]

Prov = FrozenSet[str]
_EMPTY: Prov = frozenset()

#: Cap on distinct witness chains kept per resolution step — one good
#: provenance chain per finding is worth more than fifty.
_MAX_WITNESSES = 3


def _union(parts: Iterable[Prov]) -> Prov:
    out: Set[str] = set()
    for p in parts:
        out |= p
    return frozenset(out)


class _FunctionSummarizer:
    """One forward abstract-interpretation pass over a function body."""

    def __init__(self, fn: ast.AST, qualname: str, module: str,
                 cls: Optional[str], aliases: Mapping[str, str],
                 module_defs: FrozenSet[str],
                 class_methods: Mapping[str, FrozenSet[str]]) -> None:
        self.fn = fn
        self.qualname = qualname
        self.module = module
        self.cls = cls
        self.aliases = aliases
        self.module_defs = module_defs
        self.class_methods = class_methods
        args = fn.args  # type: ignore[attr-defined]
        self.params: List[str] = [a.arg for a in (
            list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs))]
        self.env: Dict[str, Prov] = {
            p: frozenset({f"param:{p}"}) for p in self.params
            if p not in ("self", "cls")}
        self.returns: Set[str] = set()
        self.attr_writes: Dict[str, Set[str]] = {}
        self.calls: List[Dict[str, Any]] = []
        self.dict_fields: List[Dict[str, Any]] = []

    def run(self) -> Dict[str, Any]:
        self._block(self.fn.body)  # type: ignore[attr-defined]
        return {
            "line": self.fn.lineno,  # type: ignore[attr-defined]
            "params": [p for p in self.params if p not in ("self", "cls")],
            "returns": sorted(self.returns),
            "attr_writes": {k: sorted(v)
                            for k, v in self.attr_writes.items()},
            "calls": self.calls,
            "dict_fields": self.dict_fields,
        }

    # -- name resolution -----------------------------------------------

    def _resolve_callee(self, func: ast.expr) -> Optional[str]:
        """Dotted callee, ``.name`` for a bare method, None = opaque."""
        if isinstance(func, ast.Name):
            if func.id in self.module_defs:
                return f"{self.module}.{func.id}"
            return self.aliases.get(func.id)
        if isinstance(func, ast.Attribute):
            if (isinstance(func.value, ast.Name) and func.value.id == "self"
                    and self.cls is not None
                    and func.attr in self.class_methods.get(
                        self.cls, frozenset())):
                return f"{self.module}.{self.cls}.{func.attr}"
            parts: List[str] = []
            cur: ast.expr = func
            while isinstance(cur, ast.Attribute):
                parts.append(cur.attr)
                cur = cur.value
            if isinstance(cur, ast.Name):
                origin = self.aliases.get(cur.id)
                if origin is None and cur.id in self.module_defs:
                    origin = f"{self.module}.{cur.id}"
                if origin is not None:
                    parts.append(origin)
                    return ".".join(reversed(parts))
            return f".{func.attr}"
        return None

    # -- expression evaluation ------------------------------------------

    def _eval(self, node: Optional[ast.expr]) -> Prov:
        if node is None or isinstance(node, (ast.Constant, ast.Lambda)):
            return _EMPTY
        if isinstance(node, ast.Name):
            return self.env.get(node.id, _EMPTY)
        if isinstance(node, ast.Attribute):
            attr_prov = self._self_attr_prov(node)
            if attr_prov is not None:
                return attr_prov
            return self._eval(node.value)
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, ast.Dict):
            return self._eval_dict(node, under_wall=False)
        if isinstance(node, (ast.Yield, ast.YieldFrom, ast.Await)):
            return self._eval(node.value)  # type: ignore[arg-type]
        # Default: taint of any sub-expression taints the whole
        # (BinOp, BoolOp, JoinedStr, IfExp, Subscript, comprehensions...).
        return _union(self._eval(child)
                      for child in ast.iter_child_nodes(node)
                      if isinstance(child, ast.expr))

    def _self_attr_prov(self, node: ast.Attribute) -> Optional[Prov]:
        if (isinstance(node.value, ast.Name) and node.value.id == "self"
                and self.cls is not None):
            return frozenset(
                {f"attr:{self.module}.{self.cls}.{node.attr}"})
        return None

    def _eval_call(self, node: ast.Call) -> Prov:
        callee = self._resolve_callee(node.func)
        arg_provs = [self._eval(a) for a in node.args]
        kw_provs = {kw.arg: self._eval(kw.value)
                    for kw in node.keywords if kw.arg is not None}
        if callee is not None and (any(arg_provs) or any(kw_provs.values())):
            self.calls.append({
                "callee": callee, "line": node.lineno,
                "col": node.col_offset + 1,
                "args": [sorted(p) for p in arg_provs],
                "kwargs": {k: sorted(v) for k, v in kw_provs.items()},
            })
        if callee is not None and not callee.startswith("."):
            return frozenset({f"call:{callee}@{node.lineno}"})
        # Opaque callee (builtin, local variable, foreign method):
        # optimistically pass taint from receiver and arguments through.
        recv = (self._eval(node.func.value)
                if isinstance(node.func, ast.Attribute) else _EMPTY)
        return _union([recv] + arg_provs + list(kw_provs.values()))

    def _eval_dict(self, node: ast.Dict, under_wall: bool) -> Prov:
        provs: List[Prov] = []
        for key, value in zip(node.keys, node.values):
            key_s = (key.value if isinstance(key, ast.Constant)
                     and isinstance(key.value, str) else None)
            if isinstance(value, ast.Dict):
                prov = self._eval_dict(
                    value, under_wall or key_s == "wall")
            else:
                prov = self._eval(value)
            if prov and key_s is not None:
                self.dict_fields.append({
                    "key": key_s, "line": value.lineno,
                    "col": value.col_offset + 1, "prov": sorted(prov),
                    "wall": under_wall or key_s == "wall",
                })
            provs.append(prov)
            if key is not None:
                provs.append(self._eval(key))
        return _union(provs)

    # -- statement walk -------------------------------------------------

    def _block(self, body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            self._stmt(stmt)

    def _assign_target(self, target: ast.expr, prov: Prov) -> None:
        if isinstance(target, ast.Name):
            if prov:
                self.env[target.id] = self.env.get(target.id, _EMPTY) | prov
            else:
                self.env[target.id] = _EMPTY
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._assign_target(elt, prov)
        elif isinstance(target, ast.Attribute):
            attr = None
            if (isinstance(target.value, ast.Name)
                    and target.value.id == "self" and self.cls is not None):
                attr = f"{self.module}.{self.cls}.{target.attr}"
            if attr is not None and prov:
                self.attr_writes.setdefault(attr, set()).update(prov)
            elif isinstance(target.value, ast.Name) and prov:
                # ``obj.field = tainted`` taints the container.
                name = target.value.id
                self.env[name] = self.env.get(name, _EMPTY) | prov
        elif isinstance(target, ast.Subscript):
            self._subscript_store(target, prov)

    def _subscript_store(self, target: ast.Subscript, prov: Prov) -> None:
        key = target.slice
        key_s = (key.value if isinstance(key, ast.Constant)
                 and isinstance(key.value, str) else None)
        if prov and key_s is not None:
            self.dict_fields.append({
                "key": key_s, "line": target.lineno,
                "col": target.col_offset + 1, "prov": sorted(prov),
                "wall": key_s == "wall",
            })
        if isinstance(target.value, ast.Name) and prov:
            name = target.value.id
            self.env[name] = self.env.get(name, _EMPTY) | prov

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return  # nested scopes are out of (this) scope
        if isinstance(stmt, ast.Assign):
            prov = self._eval(stmt.value)
            for target in stmt.targets:
                self._assign_target(target, prov)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self._assign_target(stmt.target, self._eval(stmt.value))
        elif isinstance(stmt, ast.AugAssign):
            prov = self._eval(stmt.value) | self._eval(stmt.target)
            self._assign_target(stmt.target, prov)
        elif isinstance(stmt, ast.Return):
            self.returns |= self._eval(stmt.value)
        elif isinstance(stmt, ast.Expr):
            value = stmt.value
            if isinstance(value, (ast.Yield, ast.YieldFrom)):
                # A generator's yields are its observable returns.
                self.returns |= self._eval(value.value
                                           if value.value else None)
            else:
                self._eval(value)
        elif isinstance(stmt, (ast.If,)):
            self._eval(stmt.test)
            self._block(stmt.body)
            self._block(stmt.orelse)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            prov = self._eval(stmt.iter)
            self._assign_target(stmt.target, prov)
            # Two passes approximate loop-carried flows cheaply.
            self._block(stmt.body)
            self._block(stmt.body)
            self._block(stmt.orelse)
        elif isinstance(stmt, ast.While):
            self._eval(stmt.test)
            self._block(stmt.body)
            self._block(stmt.body)
            self._block(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                prov = self._eval(item.context_expr)
                if item.optional_vars is not None:
                    self._assign_target(item.optional_vars, prov)
            self._block(stmt.body)
        elif isinstance(stmt, ast.Try):
            self._block(stmt.body)
            for handler in stmt.handlers:
                self._block(handler.body)
            self._block(stmt.orelse)
            self._block(stmt.finalbody)
        else:
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._eval(child)


def summarize_functions(
        tree: ast.Module, module: str, aliases: Mapping[str, str],
        class_methods: Mapping[str, FrozenSet[str]]) -> Dict[str, Any]:
    """Taint summaries for every module-level function and method."""
    module_defs = frozenset(
        stmt.name for stmt in tree.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)))
    out: Dict[str, Any] = {}
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qual = f"{module}.{stmt.name}"
            out[qual] = _FunctionSummarizer(
                stmt, qual, module, None, aliases, module_defs,
                class_methods).run()
        elif isinstance(stmt, ast.ClassDef):
            for sub in stmt.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qual = f"{module}.{stmt.name}.{sub.name}"
                    out[qual] = _FunctionSummarizer(
                        sub, qual, module, stmt.name, aliases,
                        module_defs, class_methods).run()
    return out


@dataclass(frozen=True)
class SinkSpec:
    """What counts as a sink for one rule.

    ``calls`` are dotted callee names (``hashlib.sha256``); ``methods``
    are receiver-agnostic method names in ``.name`` form (``.put``);
    ``dict_field_paths`` activates the "dict field outside the 'wall'
    namespace" sink in files whose posix path contains a fragment.
    """

    label: str
    calls: FrozenSet[str] = frozenset()
    methods: FrozenSet[str] = frozenset()
    dict_field_paths: Tuple[str, ...] = ()

    def matches_call(self, callee: str) -> bool:
        if callee.startswith("."):
            return callee in self.methods
        return callee in self.calls


@dataclass(frozen=True)
class TaintFlow:
    """One source-to-sink flow: where to report, and the evidence."""

    path: str
    line: int
    col: int
    sink: str
    chain: Tuple[str, ...]

    def describe(self) -> str:
        return " <- ".join(self.chain)


class TaintEngine:
    """Phase-2 interprocedural resolution over a project index.

    ``sources`` are dotted call names (a trailing ``.*`` matches a
    module prefix: ``random.*``).  The engine answers two questions:
    which summarized provenances trace back to a source (with the chain
    of calls/attributes in between), and which call sites feed a sink —
    directly, or through functions that forward a parameter into one.
    """

    def __init__(self, project: Any, sources: Iterable[str],
                 sinks: Sequence[SinkSpec]) -> None:
        self.project = project
        self.exact_sources = frozenset(
            s for s in sources if not s.endswith(".*"))
        self.prefix_sources = tuple(
            s[:-1] for s in sources if s.endswith(".*"))
        self.sinks = tuple(sinks)
        self._return_memo: Dict[str, Tuple[Tuple[str, ...], ...]] = {}
        self._attr_memo: Dict[str, Tuple[Tuple[str, ...], ...]] = {}

    # -- sources ---------------------------------------------------------

    def is_source(self, dotted: str) -> bool:
        if dotted in self.exact_sources:
            return True
        return any(dotted.startswith(p) for p in self.prefix_sources)

    # -- provenance resolution -------------------------------------------

    def witnesses(self, provs: Iterable[str], posix: str,
                  stack: FrozenSet[str] = frozenset(),
                  ) -> List[Tuple[str, ...]]:
        """Chains proving ``provs`` trace back to a source (maybe [])."""
        out: List[Tuple[str, ...]] = []
        for prov in sorted(provs):
            kind, _, rest = prov.partition(":")
            if kind == "call":
                dotted, _, line = rest.rpartition("@")
                if self.is_source(dotted):
                    out.append((f"{dotted}() at {posix}:{line}",))
                elif dotted in self.project.functions:
                    for chain in self._fn_returns(dotted, stack):
                        out.append(
                            chain + (f"via {dotted}() called at "
                                     f"{posix}:{line}",))
            elif kind == "attr":
                for chain in self._attr_witnesses(rest, stack):
                    out.append(chain + (f"via attribute {rest}",))
            if len(out) >= _MAX_WITNESSES:
                break
        return out[:_MAX_WITNESSES]

    def _fn_returns(self, qual: str,
                    stack: FrozenSet[str]) -> Tuple[Tuple[str, ...], ...]:
        if qual in self._return_memo:
            return self._return_memo[qual]
        if qual in stack:
            return ()
        summary, file = self.project.functions[qual]
        chains = tuple(self.witnesses(
            summary.get("returns", ()), file.posix, stack | {qual}))
        if not (stack & set(self._return_memo)):
            self._return_memo[qual] = chains
        return chains

    def _attr_witnesses(self, attr_qual: str,
                        stack: FrozenSet[str]) -> Tuple[Tuple[str, ...], ...]:
        """Resolve ``module.Class.attr`` against every write to it."""
        if attr_qual in self._attr_memo:
            return self._attr_memo[attr_qual]
        if attr_qual in stack:
            return ()
        cls_prefix = attr_qual.rpartition(".")[0] + "."
        chains: List[Tuple[str, ...]] = []
        for qual, (summary, file) in sorted(self.project.functions.items()):
            if not qual.startswith(cls_prefix):
                continue
            provs = summary.get("attr_writes", {}).get(attr_qual)
            if provs:
                chains.extend(self.witnesses(
                    provs, file.posix, stack | {attr_qual}))
            if len(chains) >= _MAX_WITNESSES:
                break
        result = tuple(chains[:_MAX_WITNESSES])
        self._attr_memo[attr_qual] = result
        return result

    # -- sink-side analysis ----------------------------------------------

    def _param_forwarders(self) -> Dict[Tuple[str, str], Tuple[str, ...]]:
        """``(function, param) -> sink chain`` fixpoint.

        Seeded by functions whose parameter reaches a sink call in their
        own body; extended transitively through call sites that pass a
        parameter of *their* function onward.
        """
        forward: Dict[Tuple[str, str], Tuple[str, ...]] = {}
        for qual, (summary, file) in sorted(self.project.functions.items()):
            for call in summary.get("calls", ()):
                sink = self._match_sink(call["callee"])
                if sink is None:
                    continue
                for provs in self._call_arg_provs(call):
                    for prov in provs:
                        if prov.startswith("param:"):
                            key = (qual, prov[len("param:"):])
                            forward.setdefault(key, (
                                f"into {sink.label} at "
                                f"{file.posix}:{call['line']}",))
        changed = True
        while changed:
            changed = False
            for qual, (summary, file) in sorted(
                    self.project.functions.items()):
                for call in summary.get("calls", ()):
                    targets = self._forward_targets(call, forward)
                    if not targets:
                        continue
                    for chain, provs in targets:
                        for prov in provs:
                            if not prov.startswith("param:"):
                                continue
                            key = (qual, prov[len("param:"):])
                            if key not in forward:
                                forward[key] = chain + (
                                    f"through {call['callee']}() at "
                                    f"{file.posix}:{call['line']}",)
                                changed = True
        return forward

    def _call_arg_provs(self, call: Mapping[str, Any]) -> List[List[str]]:
        return list(call.get("args", [])) + list(
            call.get("kwargs", {}).values())

    def _forward_targets(
            self, call: Mapping[str, Any],
            forward: Mapping[Tuple[str, str], Tuple[str, ...]],
    ) -> List[Tuple[Tuple[str, ...], List[str]]]:
        """(sink chain, arg provs) pairs where this call feeds a
        forwarding parameter of its callee."""
        callee = call["callee"]
        if callee.startswith(".") or callee not in self.project.functions:
            return []
        params = self.project.functions[callee][0].get("params", [])
        out: List[Tuple[Tuple[str, ...], List[str]]] = []
        for i, provs in enumerate(call.get("args", [])):
            if i < len(params) and (callee, params[i]) in forward:
                out.append((forward[(callee, params[i])], provs))
        for name, provs in call.get("kwargs", {}).items():
            if (callee, name) in forward:
                out.append((forward[(callee, name)], provs))
        return out

    def _match_sink(self, callee: str) -> Optional[SinkSpec]:
        for sink in self.sinks:
            if sink.matches_call(callee):
                return sink
        return None

    def find_flows(self) -> Iterator[TaintFlow]:
        """Witnessed source-to-sink flows in the indexed files.

        De-duplicated per sink location: many provenances can reach one
        sink call, but one finding with one checkable chain is what a
        human needs.
        """
        seen: Set[Tuple[str, int, int]] = set()
        forward = self._param_forwarders()
        for qual, (summary, file) in sorted(self.project.functions.items()):
            for call in summary.get("calls", ()):
                site = (file.path, call["line"], call["col"])
                if site in seen:
                    continue
                sink = self._match_sink(call["callee"])
                if sink is not None:
                    for provs in self._call_arg_provs(call):
                        for chain in self.witnesses(provs, file.posix):
                            seen.add(site)
                            yield TaintFlow(
                                path=file.path, line=call["line"],
                                col=call["col"], sink=sink.label,
                                chain=chain)
                            break
                        if site in seen:
                            break
                if site in seen:
                    continue
                for sink_chain, provs in self._forward_targets(call, forward):
                    for chain in self.witnesses(provs, file.posix):
                        seen.add(site)
                        yield TaintFlow(
                            path=file.path, line=call["line"],
                            col=call["col"], sink=sink_chain[0],
                            chain=chain + sink_chain)
                        break
                    if site in seen:
                        break
            for entry in summary.get("dict_fields", ()):
                if entry.get("wall"):
                    continue
                site = (file.path, entry["line"], entry["col"])
                if site in seen:
                    continue
                for sink in self.sinks:
                    if not any(frag in file.posix
                               for frag in sink.dict_field_paths):
                        continue
                    for chain in self.witnesses(entry["prov"], file.posix):
                        seen.add(site)
                        yield TaintFlow(
                            path=file.path, line=entry["line"],
                            col=entry["col"],
                            sink=(f"{sink.label} dict field "
                                  f"{entry['key']!r}"),
                            chain=chain)
                        break
                    if site in seen:
                        break
