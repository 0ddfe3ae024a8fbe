"""Module summaries for the whole-program layer, plus two per-file seed helpers.

* **Seed helpers** — :func:`axis_of` and :func:`unit_of` read a value's
  coordinate axis (``lat``/``lon``) and unit (``_m``/``_deg``/``_s``...)
  off the identifier conventions the codebase already follows.  CW101 and
  CW102 use them per file; they live here so there is exactly one copy of
  the naming tables.

* **Module summaries** — a per-module, JSON-serializable digest of exactly
  the facts the whole-program analyses need: functions (with their class
  and locally-constructed instances), classes with their bases, symbolic
  call records, imports and aliases, ``__all__``, and referenced
  identifiers — plus the thread, exception, and resource facts the CW7xx
  and CW8xx packs consume.  Summaries depend only on the module's own
  source, so they cache by content hash (see ``cache.LintCache``) and ship
  to ``--jobs`` workers as plain data.

Like the rest of ``repro.devtools`` this is stdlib-only and never imports
the code it analyzes.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set

from .exceptions import extract_exception_facts
from .layers import resolve_import
from .resources import extract_resource_facts
from .threads import extract_thread_facts

__all__ = ["axis_of", "extract_summary", "unit_of"]

#: Bumped when the summary JSON schema changes; part of the summary cache key.
SUMMARY_FORMAT = "4"


# ---------------------------------------------------------------------------
# Seeding: identifier conventions -> axis / unit
# ---------------------------------------------------------------------------

_LAT_WORDS = {"lat", "lats", "latitude", "latitudes", "phi"}
_LON_WORDS = {"lon", "lons", "lng", "longitude", "longitudes", "lam", "lambda"}

#: Variable-name suffix → canonical unit.  Deliberately small: only suffixes
#: the codebase actually uses as unit markers, to keep false positives near
#: zero (``_s`` is seconds throughout, ``_m`` meters, ``_deg`` degrees).
_UNIT_SUFFIXES = {
    "m": "meters",
    "meters": "meters",
    "km": "kilometers",
    "deg": "degrees",
    "degrees": "degrees",
    "rad": "radians",
    "s": "seconds",
    "sec": "seconds",
    "seconds": "seconds",
    "ms": "milliseconds",
}


def axis_of(name: Optional[str]) -> Optional[str]:
    """Classify an identifier as a ``"lat"`` or ``"lon"`` coordinate, if clear.

    Splits on underscores and strips trailing digits so ``lat1``, ``min_lon``
    and ``start_latitude`` all classify.  Returns ``None`` when the identifier
    mentions neither axis or (defensively) both.
    """
    if not name:
        return None
    hits = set()
    for part in name.lower().split("_"):
        part = part.rstrip("0123456789")
        if part in _LAT_WORDS:
            hits.add("lat")
        elif part in _LON_WORDS:
            hits.add("lon")
    if len(hits) == 1:
        return hits.pop()  # crowdlint: disable=CW204 -- single-element set, pop is deterministic
    return None


def unit_of(name: Optional[str]) -> Optional[str]:
    """The unit encoded in an identifier's suffix, or ``None``.

    ``dist_m`` → meters, ``EARTH_RADIUS_M`` → meters, ``bearing_deg`` →
    degrees, ``dt_s`` → seconds.  A bare suffix-less name has no unit.
    """
    if not name or "_" not in name:
        return None
    last = name.lower().rsplit("_", 1)[1].rstrip("0123456789")
    return _UNIT_SUFFIXES.get(last)


# ---------------------------------------------------------------------------
# Module summaries
# ---------------------------------------------------------------------------
#
# Symbolic callee forms (JSON lists so summaries round-trip):
#   ["name", f]           a bare name call:  f(...)
#   ["attr", root, m]     one-level attribute call:  root.m(...)  (root may be
#                         an imported module, a local object, or a class)
#   ["dotted", "a.b.c"]   a longer attribute chain over plain names
#   ["self", m]           self.m(...) inside a method
#   ["new", sym, m]       method on a fresh instance:  Cls(...).m(...)
#
# A call through a locally-built ``functools.partial(f, ...)`` is recorded
# as a call to ``f``.

_PARTIAL_NAMES = {"partial"}


def _is_partial_call(node: ast.Call) -> bool:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id in _PARTIAL_NAMES
    if isinstance(func, ast.Attribute):
        return func.attr in _PARTIAL_NAMES
    return False


def _attr_chain(node: ast.AST) -> Optional[List[str]]:
    """``a.b.c`` → ``["a", "b", "c"]`` when the chain is plain names."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return list(reversed(parts))
    return None


class _Scope:
    """Per-function extraction state: params, single-assignment values."""

    def __init__(self, qualname: str, node: Optional[ast.AST]):
        self.qualname = qualname
        self.param_names: Set[str] = set()
        if node is not None:
            args = node.args
            self.param_names = {
                arg.arg
                for arg in list(getattr(args, "posonlyargs", []))
                + list(args.args)
                + list(args.kwonlyargs)
            }
        #: var -> RHS expression of its single simple assignment, or None
        #: when the var is rebound (ambiguous — never chased).
        self.assigns: Dict[str, Optional[ast.expr]] = {}


def _scope_nodes(body: Sequence[ast.stmt]) -> Iterator[ast.AST]:
    """Every node in ``body`` excluding nested function/class subtrees."""
    stack: List[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
        ):
            continue  # nested scopes are summarized separately
        stack.extend(ast.iter_child_nodes(node))


def extract_summary(
    tree: ast.Module, module: Optional[str], path: str, is_init: bool
) -> Dict[str, object]:
    """The whole-program-relevant digest of one module, as plain JSON data."""
    summary: Dict[str, object] = {
        "format": SUMMARY_FORMAT,
        "module": module,
        "path": path,
        "is_init": is_init,
        "functions": {},
        "classes": {},
        "calls": [],
        "imports": {},
        "aliases": {},
        "exports": None,
        "refs": [],
    }
    extractor = _SummaryExtractor(summary, module, is_init)
    extractor.run(tree)
    # Thread, exception, and resource facts ride inside the summary so they
    # share its content-addressed cache entry and ship to --jobs workers
    # for free.
    summary["threads"] = extract_thread_facts(tree)
    summary["exceptions"] = extract_exception_facts(tree)
    summary["resources"] = extract_resource_facts(tree)
    return summary


class _SummaryExtractor:
    def __init__(self, summary: Dict[str, object], module: Optional[str], is_init: bool):
        self.summary = summary
        self.module = module
        self.is_init = is_init
        self.functions: Dict[str, Dict[str, object]] = summary["functions"]  # type: ignore[assignment]
        self.classes: Dict[str, Dict[str, object]] = summary["classes"]  # type: ignore[assignment]
        self.calls: List[Dict[str, object]] = summary["calls"]  # type: ignore[assignment]
        self.imports: Dict[str, List[object]] = summary["imports"]  # type: ignore[assignment]
        self.aliases: Dict[str, str] = summary["aliases"]  # type: ignore[assignment]
        self.refs: Set[str] = set()

    # ------------------------------------------------------------- driver

    def run(self, tree: ast.Module) -> None:
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                self._record_import(node)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                self.refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                self.refs.add(node.attr)
        module_scope = _Scope("<module>", None)
        self._collect_assigns(tree.body, module_scope)
        self._record_function_like(tree.body, module_scope, line=1)
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._extract_function(stmt, stmt.name)
            elif isinstance(stmt, ast.ClassDef):
                self._extract_class(stmt)
            elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target = stmt.targets[0]
                if isinstance(target, ast.Name):
                    if target.id == "__all__":
                        self.summary["exports"] = _literal_strings(stmt.value)
                    elif isinstance(stmt.value, ast.Name):
                        self.aliases[target.id] = stmt.value.id
        self.summary["refs"] = sorted(self.refs)

    # ------------------------------------------------------- imports

    def _record_import(self, node: ast.stmt) -> None:
        if isinstance(node, ast.ImportFrom):
            target = resolve_import(self.module, node.module, node.level, self.is_init)
            if target is None:
                return
            for alias in node.names:
                if alias.name == "*":
                    continue
                self.imports[alias.asname or alias.name] = ["symbol", target, alias.name]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    self.imports[alias.asname] = ["module", alias.name]
                else:
                    root = alias.name.split(".")[0]
                    self.imports.setdefault(root, ["module", root])

    # ------------------------------------------------------- functions

    def _extract_function(
        self, node: ast.AST, qualname: str, class_name: Optional[str] = None
    ) -> None:
        scope = _Scope(qualname, node)
        self._collect_assigns(node.body, scope)
        self._record_function_like(node.body, scope, line=node.lineno, class_name=class_name)
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._extract_function(stmt, f"{qualname}.{stmt.name}")

    def _record_function_like(
        self,
        body: Sequence[ast.stmt],
        scope: _Scope,
        line: int,
        class_name: Optional[str] = None,
    ) -> None:
        info: Dict[str, object] = {"line": line, "ctors": {}, "class": class_name}
        for var, value in scope.assigns.items():
            if isinstance(value, ast.Call):
                sym = self._expr_sym(value.func, scope)
                if sym is not None and sym[0] != "partial":
                    info["ctors"][var] = sym  # type: ignore[index]
        for node in _scope_nodes(body):
            if isinstance(node, ast.Call):
                self._record_call(node, scope)
        self.functions[scope.qualname] = info

    def _extract_class(self, node: ast.ClassDef) -> None:
        bases = []
        for base in node.bases:
            chain = _attr_chain(base)
            if chain is not None:
                bases.append(
                    ["name", chain[0]] if len(chain) == 1 else ["dotted", ".".join(chain)]
                )
        methods = []
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                methods.append(stmt.name)
                self._extract_function(stmt, f"{node.name}.{stmt.name}", class_name=node.name)
        self.classes[node.name] = {
            "line": node.lineno,
            "methods": methods,
            "bases": bases,
        }

    # ------------------------------------------------------- assignments

    def _collect_assigns(self, body: Sequence[ast.stmt], scope: _Scope) -> None:
        for node in _scope_nodes(body):
            target: Optional[str] = None
            value: Optional[ast.expr] = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                if isinstance(node.targets[0], ast.Name):
                    target, value = node.targets[0].id, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                if isinstance(node.target, ast.Name):
                    target, value = node.target.id, node.value
            elif isinstance(node, ast.NamedExpr) and isinstance(node.target, ast.Name):
                target, value = node.target.id, node.value
            elif isinstance(node, (ast.AugAssign, ast.For, ast.AsyncFor)):
                inner = node.target
                for sub in ast.walk(inner):
                    if isinstance(sub, ast.Name):
                        scope.assigns[sub.id] = None  # rebound opaquely
                continue
            if target is None:
                continue
            if target in scope.assigns:
                scope.assigns[target] = None  # rebound: ambiguous, never chased
            else:
                scope.assigns[target] = value

    # ------------------------------------------------------- calls

    def _record_call(self, node: ast.Call, scope: _Scope) -> None:
        if _is_partial_call(node):
            return  # partial(...) itself constructs, it does not invoke
        sym = self._expr_sym(node.func, scope)
        if sym is None:
            return
        if sym[0] == "partial":
            sym = sym[1]  # a call through a local partial invokes the wrapped callee
        self.calls.append({"caller": scope.qualname, "callee": sym})

    def _expr_sym(
        self, expr: ast.AST, scope: _Scope, depth: int = 3
    ) -> Optional[List[object]]:
        if isinstance(expr, ast.Name):
            name = expr.id
            if depth > 0 and name not in scope.param_names:
                value = scope.assigns.get(name)
                if isinstance(value, ast.Call) and _is_partial_call(value):
                    inner = (
                        self._expr_sym(value.args[0], scope, depth - 1)
                        if value.args
                        else None
                    )
                    if inner is not None and inner[0] != "partial":
                        return ["partial", inner]
                elif isinstance(value, ast.Name):
                    return self._expr_sym(value, scope, depth - 1)
            return ["name", name]
        if isinstance(expr, ast.Attribute):
            chain = _attr_chain(expr)
            if chain is None:
                if isinstance(expr.value, ast.Call):
                    inner = self._expr_sym(expr.value.func, scope, depth - 1)
                    if inner is not None and inner[0] in {"name", "attr", "dotted"}:
                        return ["new", inner, expr.attr]
                return None
            if len(chain) == 2:
                if chain[0] == "self":
                    return ["self", chain[1]]
                return ["attr", chain[0], chain[1]]
            return ["dotted", ".".join(chain)]
        return None


def _literal_strings(node: ast.AST) -> Optional[List[str]]:
    if isinstance(node, (ast.List, ast.Tuple)):
        out = []
        for element in node.elts:
            if isinstance(element, ast.Constant) and isinstance(element.value, str):
                out.append(element.value)
            else:
                return None
        return out
    return None
