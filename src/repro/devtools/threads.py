"""Static race detection for the concurrent serving path (crowdlint v4).

Three stages over the whole-program call graph:

1. **Thread-entry discovery.**  Per-module *thread facts* (extracted next to
   the module summaries, so they ride the same content-addressed cache)
   record every spawn site — ``threading.Thread(target=...)``,
   ``concurrent.futures`` submissions, ``exec.ordered_map`` worker fns,
   executor ``initializer=`` hooks — and every ``BaseHTTPRequestHandler``
   subclass (the classes a ``ThreadingHTTPServer`` drives with one thread
   per request).  Targets resolve through the existing
   :meth:`~repro.devtools.callgraph.ProjectAnalysis.resolve`.

2. **Escape analysis.**  BFS reachability from the roots assigns each
   function a set of *concurrency domains* (``main``, ``handler``,
   ``thread``, ``pool``).  Module globals and ``self`` attributes that are
   **mutated** outside construction and **touched from a thread domain**
   are *shared*: two handler threads already race each other, so a single
   ``handler`` domain counts as concurrent.  ``pool`` (process workers) has
   its own address space and never races ``main`` — divergence there is
   CW303's job, not ours.

3. **Lockset inference.**  ``with <lock>:`` regions and
   ``acquire()``/``release()`` pairs produce per-site held-lock sets;
   held sets propagate interprocedurally through an optimistic entry-lock
   fixpoint (the intersection of every resolved call site's held set).
   A shared symbol whose writes are majority-guarded by one lock gets that
   lock as its *guarded-by*; the CW7xx pack then reports bare writes
   (CW701) and inconsistently-guarded writes (CW702).

Only **writes** anchor findings.  Bare *reads* of a published reference are
idiomatic under the GIL (``get_observer`` returning the module global) and
flagging them would drown the report in noise; reads still contribute
domain evidence and appear in the ``--threads`` listing.

The module is deliberately import-light (``ast`` + stdlib only, nothing
from the rest of ``devtools``) so :mod:`repro.devtools.domains` can call
:func:`extract_thread_facts` without an import cycle.
"""

from __future__ import annotations

import ast
import hashlib
import json
from collections import Counter
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

__all__ = ["extract_thread_facts", "ThreadAnalysis"]

#: Bumped when the thread-fact schema changes (facts ride inside the module
#: summaries, so the summary cache and the ruleset fingerprint already
#: invalidate stale entries; this is belt-and-braces for hand-rolled dicts).
THREAD_FORMAT = "2"

DOMAIN_MAIN = "main"          #: code not reachable from any spawn site
DOMAIN_HANDLER = "handler"    #: per-request threads of a ThreadingHTTPServer
DOMAIN_THREAD = "thread"      #: threading.Thread / ThreadPoolExecutor work
DOMAIN_POOL = "pool"          #: process-pool workers (own address space)

#: Domains whose instances share this process's memory *and* run many at
#: once — any access from one of these is concurrent with its twin.
RACY_DOMAINS: FrozenSet[str] = frozenset({DOMAIN_HANDLER, DOMAIN_THREAD})

_LOCK_CTORS = frozenset({"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore"})
_MUTABLE_CTORS = frozenset(
    {"dict", "list", "set", "defaultdict", "OrderedDict", "Counter", "deque"}
)
_MUTATING_METHODS = frozenset(
    {
        "append",
        "appendleft",
        "add",
        "clear",
        "discard",
        "extend",
        "extendleft",
        "insert",
        "pop",
        "popitem",
        "popleft",
        "remove",
        "setdefault",
        "update",
    }
)
_HANDLER_BASES = frozenset(
    {
        "BaseHTTPRequestHandler",
        "SimpleHTTPRequestHandler",
        "CGIHTTPRequestHandler",
        "BaseRequestHandler",
        "StreamRequestHandler",
        "DatagramRequestHandler",
    }
)
_THREAD_CTORS = frozenset({"Thread", "Timer"})
_EXECUTOR_CTORS = {
    "ThreadPoolExecutor": DOMAIN_THREAD,
    "ProcessPoolExecutor": DOMAIN_POOL,
}
#: ``repro.exec.ordered_map`` fans work out to a process pool.
_POOL_MAP_FNS = frozenset({"ordered_map"})

#: Methods exempt from the shared-write rules: the instance is not yet
#: published while its constructor runs (happens-before the escape).
_CTOR_METHODS = frozenset({"__init__", "__new__", "__post_init__"})


# --------------------------------------------------------------------------
# extraction: one module's thread facts as plain JSON data
# --------------------------------------------------------------------------


def _attr_chain(expr: ast.AST) -> Optional[List[str]]:
    """``a.b.c`` as ``["a", "b", "c"]`` for pure-name chains, else ``None``."""
    parts: List[str] = []
    node = expr
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return list(reversed(parts))


def _call_sym(expr: ast.AST) -> Optional[List[object]]:
    """A symbolic callee in the callgraph's resolvable vocabulary."""
    if isinstance(expr, ast.Name):
        return ["name", expr.id]
    if isinstance(expr, ast.Attribute):
        chain = _attr_chain(expr)
        if chain is None:
            return None
        if len(chain) == 2:
            if chain[0] == "self":
                return ["self", chain[1]]
            return ["attr", chain[0], chain[1]]
        return ["dotted", ".".join(chain)]
    return None


def _last_name(expr: ast.AST) -> Optional[str]:
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return expr.attr
    return None


def _is_lock_ctor(expr: ast.AST) -> bool:
    return (
        isinstance(expr, ast.Call)
        and _last_name(expr.func) in _LOCK_CTORS
        and not expr.args
        and not expr.keywords
    )


def _is_mutable_value(expr: ast.AST) -> bool:
    if isinstance(expr, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)):
        return True
    return isinstance(expr, ast.Call) and _last_name(expr.func) in _MUTABLE_CTORS


def _self_attr(expr: ast.AST) -> Optional[str]:
    """``self.x`` → ``"x"`` (one level only — deeper chains stay opaque)."""
    if (
        isinstance(expr, ast.Attribute)
        and isinstance(expr.value, ast.Name)
        and expr.value.id == "self"
    ):
        return expr.attr
    return None


def _scoped_statements(node: ast.AST) -> Iterable[ast.AST]:
    """Every node of one function/module scope, nested scopes excluded."""
    stack = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        yield child
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            continue
        stack.extend(ast.iter_child_nodes(child))


class _ModuleInventory:
    """Pass 1: the module-level tables the recording walk consults."""

    def __init__(self) -> None:
        self.module_names: Set[str] = set()
        self.mutable_globals: Dict[str, int] = {}
        self.global_locks: Set[str] = set()
        self.rebound_globals: Set[str] = set()
        self.class_bases: Dict[str, List[str]] = {}
        self.class_attrs: Dict[str, Set[str]] = {}
        self.attr_locks: Dict[str, Set[str]] = {}
        self.handler_classes: Set[str] = set()

    # -- construction ------------------------------------------------------

    def collect(self, tree: ast.Module) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.Global):
                self.rebound_globals.update(node.names)
        for stmt in tree.body:
            targets: List[ast.expr] = []
            value: Optional[ast.expr] = None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                self.module_names.add(target.id)
                if value is None:
                    continue
                if _is_lock_ctor(value):
                    self.global_locks.add(target.id)
                elif _is_mutable_value(value):
                    self.mutable_globals[target.id] = stmt.lineno
        self._scan_classes(tree.body, prefix="")
        self._close_handler_classes()

    def _scan_classes(self, body: Sequence[ast.stmt], prefix: str) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._scan_classes(stmt.body, prefix + stmt.name + ".")
            elif isinstance(stmt, ast.ClassDef):
                path = prefix + stmt.name
                self.class_bases[path] = [
                    name for name in (_last_name(base) for base in stmt.bases) if name
                ]
                self.class_attrs.setdefault(path, set())
                self.attr_locks.setdefault(path, set())
                for child in stmt.body:
                    if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        self._scan_method_attrs(child, path)
                self._scan_classes(stmt.body, path + ".")

    def _scan_method_attrs(self, method: ast.AST, class_path: str) -> None:
        for node in _scoped_statements(method):
            targets: List[ast.expr] = []
            value: Optional[ast.expr] = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets, value = [node.target], node.value
            for target in targets:
                attr = _self_attr(target)
                if attr is None:
                    continue
                self.class_attrs[class_path].add(attr)
                if value is not None and _is_lock_ctor(value):
                    self.attr_locks[class_path].add(attr)

    def _close_handler_classes(self) -> None:
        by_simple_name = {path.rsplit(".", 1)[-1]: path for path in self.class_bases}
        changed = True
        while changed:
            changed = False
            for path, bases in self.class_bases.items():
                if path in self.handler_classes:
                    continue
                for base in bases:
                    if base in _HANDLER_BASES or by_simple_name.get(base) in self.handler_classes:
                        self.handler_classes.add(path)
                        changed = True
                        break

    # -- lookups -----------------------------------------------------------

    def _chase(self, class_path: Optional[str], attr: str, table: Dict[str, Set[str]]) -> Optional[str]:
        """The class (``class_path`` or a base) declaring ``attr``, if any."""
        by_simple_name = {path.rsplit(".", 1)[-1]: path for path in self.class_bases}
        seen: Set[str] = set()
        pending = [class_path] if class_path else []
        while pending:
            path = pending.pop(0)
            if path is None or path in seen:
                continue
            seen.add(path)
            if attr in table.get(path, ()):
                return path
            pending.extend(by_simple_name.get(base) for base in self.class_bases.get(path, []))
        return None

    def lock_class(self, class_path: Optional[str], attr: str) -> Optional[str]:
        return self._chase(class_path, attr, self.attr_locks)

    def attr_class(self, class_path: Optional[str], attr: str) -> Optional[str]:
        return self._chase(class_path, attr, self.class_attrs)


class _FunctionScope:
    """Per-function name tables (locals, global decls, simple aliases)."""

    def __init__(self, fn: ast.AST):
        self.globals_decl: Set[str] = set()
        self.locals: Set[str] = set()
        self.assigns: Dict[str, ast.expr] = {}
        self.executors: Dict[str, str] = {}
        args = getattr(fn, "args", None)
        if args is not None:
            for arg in (
                list(getattr(args, "posonlyargs", []))
                + args.args
                + args.kwonlyargs
                + ([args.vararg] if args.vararg else [])
                + ([args.kwarg] if args.kwarg else [])
            ):
                self.locals.add(arg.arg)
        for node in _scoped_statements(fn):
            if isinstance(node, ast.Global):
                self.globals_decl.update(node.names)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                self.locals.add(node.id)
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    self.assigns[target.id] = node.value
            if isinstance(node, ast.withitem) and isinstance(node.optional_vars, ast.Name):
                ctor = node.context_expr
                if isinstance(ctor, ast.Call):
                    domain = _EXECUTOR_CTORS.get(_last_name(ctor.func) or "")
                    if domain:
                        self.executors[node.optional_vars.id] = domain
        for name, value in self.assigns.items():
            if isinstance(value, ast.Call):
                domain = _EXECUTOR_CTORS.get(_last_name(value.func) or "")
                if domain:
                    self.executors[name] = domain
        self.locals -= self.globals_decl


def extract_thread_facts(tree: ast.Module) -> Dict[str, object]:
    """One module's concurrency-relevant facts as plain JSON data."""
    inventory = _ModuleInventory()
    inventory.collect(tree)
    facts: Dict[str, object] = {
        "format": THREAD_FORMAT,
        "mutable_globals": dict(sorted(inventory.mutable_globals.items())),
        "locks": sorted(inventory.global_locks),
        "handler_classes": sorted(inventory.handler_classes),
        "functions": {},
    }
    _FactRecorder(inventory, facts["functions"]).walk_definitions(  # type: ignore[arg-type]
        tree.body, prefix="", self_class=None
    )
    return facts


class _FactRecorder:
    """Pass 2: one record per function — accesses, calls, spawns."""

    def __init__(self, inventory: _ModuleInventory, functions: Dict[str, Dict[str, object]]):
        self.inv = inventory
        self.functions = functions

    def walk_definitions(
        self, body: Sequence[ast.stmt], prefix: str, self_class: Optional[str]
    ) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._record_function(stmt, prefix + stmt.name, self_class)
            elif isinstance(stmt, ast.ClassDef):
                path = prefix + stmt.name
                self.walk_definitions(stmt.body, path + ".", path)

    def _record_function(
        self, fn: ast.AST, qualname: str, self_class: Optional[str]
    ) -> None:
        record: Dict[str, object] = {
            "line": fn.lineno,  # type: ignore[attr-defined]
            "class": self_class,
            "writes": [],
            "reads": [],
            "calls": [],
            "spawns": [],
        }
        self.functions[qualname] = record
        walker = _FunctionWalker(self, record, qualname, self_class, _FunctionScope(fn))
        walker.walk_block(fn.body, [])  # type: ignore[attr-defined]


class _FunctionWalker:
    """Statement walk of one function body tracking lexically-held locks."""

    def __init__(
        self,
        recorder: _FactRecorder,
        record: Dict[str, object],
        qualname: str,
        self_class: Optional[str],
        scope: _FunctionScope,
    ):
        self.recorder = recorder
        self.inv = recorder.inv
        self.rec = record
        self.qualname = qualname
        self.self_class = self_class
        self.scope = scope

    # -- symbols -----------------------------------------------------------

    def _global_symbol(self, name: str, for_write: bool = False) -> Optional[str]:
        if name in self.scope.locals:
            return None
        if for_write and name in self.scope.globals_decl:
            return f"g:{name}"
        if name in self.inv.mutable_globals or name in self.inv.rebound_globals:
            return f"g:{name}"
        return None

    def _attr_symbol(self, attr: str) -> Optional[str]:
        owner = self.inv.attr_class(self.self_class, attr)
        if owner is None:
            return None
        return f"a:{owner}:{attr}"

    def _container_symbol(self, expr: ast.AST) -> Optional[str]:
        """The shared symbol behind a mutated container, if it is one."""
        if isinstance(expr, ast.Name):
            return self._global_symbol(expr.id)
        attr = _self_attr(expr)
        if attr is not None:
            return self._attr_symbol(attr)
        return None

    def _lock_of(self, expr: ast.AST, depth: int = 2) -> Optional[str]:
        if isinstance(expr, ast.Name):
            name = expr.id
            if name in self.inv.global_locks and name not in self.scope.locals:
                return f"g:{name}"
            value = self.scope.assigns.get(name)
            if depth > 0 and value is not None:
                return self._lock_of(value, depth - 1)
            return None
        attr = _self_attr(expr)
        if attr is not None:
            owner = self.inv.lock_class(self.self_class, attr)
            if owner is not None:
                return f"a:{owner}:{attr}"
        return None

    # -- recording ---------------------------------------------------------

    def _emit(self, kind: str, symbol: str, node: ast.AST, held: Sequence[str]) -> None:
        entry = {
            "sym": symbol,
            "line": node.lineno,  # type: ignore[attr-defined]
            "col": node.col_offset,  # type: ignore[attr-defined]
        }
        if kind == "writes":
            entry["held"] = sorted(set(held))
        self.rec[kind].append(entry)  # type: ignore[union-attr]

    # -- the walk ----------------------------------------------------------

    def walk_block(self, stmts: Sequence[ast.stmt], held: Sequence[str]) -> None:
        held = list(held)
        for stmt in stmts:
            self._statement(stmt, held)

    def _statement(self, stmt: ast.stmt, held: List[str]) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self.recorder._record_function(
                stmt, f"{self.qualname}.{stmt.name}", self.self_class
            )
            return
        if isinstance(stmt, ast.ClassDef):
            path = f"{self.qualname}.{stmt.name}"
            self.recorder.walk_definitions(stmt.body, path + ".", path)
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            entered: List[str] = []
            entered_set: Set[str] = set(held)
            for item in stmt.items:
                self._scan_expr(item.context_expr, held + entered)
                lock = self._lock_of(item.context_expr)
                if lock is not None and lock not in entered_set:
                    entered.append(lock)
                    entered_set.add(lock)
            self.walk_block(stmt.body, held + entered)
            return
        if isinstance(stmt, ast.If):
            self._scan_expr(stmt.test, held)
            self.walk_block(stmt.body, held)
            self.walk_block(stmt.orelse, held)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._write_target(stmt.target, held)
            self._scan_expr(stmt.iter, held)
            self.walk_block(stmt.body, held)
            self.walk_block(stmt.orelse, held)
            return
        if isinstance(stmt, ast.While):
            self._scan_expr(stmt.test, held)
            self.walk_block(stmt.body, held)
            self.walk_block(stmt.orelse, held)
            return
        if isinstance(stmt, ast.Try):
            self.walk_block(stmt.body, held)
            for handler in stmt.handlers:
                self.walk_block(handler.body, held)
            self.walk_block(stmt.orelse, held)
            self.walk_block(stmt.finalbody, held)
            return
        if isinstance(stmt, ast.Assign):
            self._scan_expr(stmt.value, held)
            for target in stmt.targets:
                self._write_target(target, held)
            return
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._scan_expr(stmt.value, held)
            self._write_target(stmt.target, held)
            return
        if isinstance(stmt, ast.AugAssign):
            self._scan_expr(stmt.value, held)
            self._write_target(stmt.target, held)
            return
        if isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Subscript):
                    symbol = self._container_symbol(target.value)
                    if symbol is not None:
                        self._emit("writes", symbol, target, held)
                    self._scan_expr(target.slice, held)
            return
        if isinstance(stmt, ast.Expr):
            if self._acquire_release(stmt.value, held):
                return
            self._scan_expr(stmt.value, held)
            return
        if isinstance(stmt, (ast.Global, ast.Nonlocal, ast.Pass, ast.Break, ast.Continue)):
            return
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            return
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                self._scan_expr(child, held)

    def _acquire_release(self, expr: ast.AST, held: List[str]) -> bool:
        if not (isinstance(expr, ast.Call) and isinstance(expr.func, ast.Attribute)):
            return False
        if expr.func.attr not in ("acquire", "release"):
            return False
        lock = self._lock_of(expr.func.value)
        if lock is None:
            return False
        if expr.func.attr == "acquire":
            if lock not in held:
                held.append(lock)
        elif lock in held:
            held.remove(lock)
        return True

    def _write_target(self, target: ast.AST, held: Sequence[str]) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._write_target(element, held)
            return
        if isinstance(target, ast.Starred):
            self._write_target(target.value, held)
            return
        if isinstance(target, ast.Name):
            symbol = self._global_symbol(target.id, for_write=True)
            # A local rebind is not shared state; only a declared-global or
            # container mutation escapes the frame.
            if symbol is not None and target.id in self.scope.globals_decl:
                self._emit("writes", symbol, target, held)
            return
        attr = _self_attr(target)
        if attr is not None:
            symbol = self._attr_symbol(attr)
            if symbol is not None:
                self._emit("writes", symbol, target, held)
            return
        if isinstance(target, ast.Subscript):
            symbol = self._container_symbol(target.value)
            if symbol is not None:
                self._emit("writes", symbol, target, held)
            else:
                self._scan_expr(target.value, held)
            self._scan_expr(target.slice, held)
            return
        if isinstance(target, ast.Attribute):
            # Attribute chains on non-self roots stay opaque (don't know).
            self._scan_expr(target.value, held)

    def _scan_expr(self, expr: ast.AST, held: Sequence[str]) -> None:
        for node in ast.walk(expr):
            if isinstance(node, ast.Call):
                self._record_call(node, held)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                symbol = self._global_symbol(node.id)
                if symbol is not None:
                    self._emit("reads", symbol, node, held)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attr = _self_attr(node)
                if attr is not None:
                    symbol = self._attr_symbol(attr)
                    if symbol is not None:
                        self._emit("reads", symbol, node, held)

    def _record_call(self, call: ast.Call, held: Sequence[str]) -> None:
        sym = _call_sym(call.func)
        if sym is not None:
            self.rec["calls"].append(  # type: ignore[union-attr]
                {
                    "sym": sym,
                    "line": call.lineno,
                    "col": call.col_offset,
                    "held": sorted(set(held)),
                }
            )
        self._record_spawn(call)
        if (
            isinstance(call.func, ast.Attribute)
            and call.func.attr in _MUTATING_METHODS
        ):
            symbol = self._container_symbol(call.func.value)
            if symbol is not None:
                self._emit("writes", symbol, call, held)

    def _record_spawn(self, call: ast.Call) -> None:
        name = _last_name(call.func)
        spawns = self.rec["spawns"]
        if name in _THREAD_CTORS:
            for keyword in call.keywords:
                if keyword.arg == "target":
                    spawns.append(  # type: ignore[union-attr]
                        {
                            "domain": DOMAIN_THREAD,
                            "target": _call_sym(keyword.value),
                            "line": call.lineno,
                        }
                    )
            return
        if name in _EXECUTOR_CTORS:
            for keyword in call.keywords:
                if keyword.arg == "initializer":
                    spawns.append(  # type: ignore[union-attr]
                        {
                            "domain": _EXECUTOR_CTORS[name],
                            "target": _call_sym(keyword.value),
                            "line": call.lineno,
                        }
                    )
            return
        if name in _POOL_MAP_FNS and call.args:
            spawns.append(  # type: ignore[union-attr]
                {
                    "domain": DOMAIN_POOL,
                    "target": _call_sym(call.args[0]),
                    "line": call.lineno,
                }
            )
            return
        if (
            isinstance(call.func, ast.Attribute)
            and call.func.attr in ("submit", "map")
            and isinstance(call.func.value, ast.Name)
            and call.args
        ):
            domain = self.scope.executors.get(call.func.value.id)
            if domain is not None:
                spawns.append(  # type: ignore[union-attr]
                    {
                        "domain": domain,
                        "target": _call_sym(call.args[0]),
                        "line": call.lineno,
                    }
                )

# --------------------------------------------------------------------------
# whole-program analysis
# --------------------------------------------------------------------------

Node = Tuple[str, str]  # (module key, function qualname)


class ThreadAnalysis:
    """Roots, concurrency domains, locksets, and guarded-by inference.

    Built from the per-module thread facts riding inside the module
    summaries plus the project's symbolic-call resolver; everything here is
    derived data, so rehydrated worker projects rebuild it on demand.
    """

    _MAX_PASSES = 20  # entry-lock fixpoint bound

    def __init__(
        self,
        summaries: Dict[str, Dict[str, object]],
        resolver: Callable[[str, str, Sequence[object]], Optional[Tuple[Tuple[str, str], bool]]],
    ):
        self.summaries = summaries
        self._resolve = resolver
        self.nodes: Dict[Node, Dict[str, object]] = {}
        self.edges: Dict[Node, Set[Node]] = {}
        self.call_sites: Dict[Node, List[Tuple[Node, FrozenSet[str]]]] = {}
        self.roots: List[Tuple[Node, str, str]] = []
        self.domains: Dict[Node, Set[str]] = {}
        self.entry_locks: Dict[Node, Optional[FrozenSet[str]]] = {}
        self.shared: Dict[str, Dict[str, object]] = {}
        self._records: Dict[str, List[Dict[str, object]]] = {}
        self._build()

    # -- construction ------------------------------------------------------

    def _facts(self, module_key: str) -> Dict[str, object]:
        summary = self.summaries.get(module_key) or {}
        facts = summary.get("threads")
        if not isinstance(facts, dict):
            return {"functions": {}, "handler_classes": []}
        return facts

    def _build(self) -> None:
        for module_key in sorted(self.summaries):
            functions = self._facts(module_key).get("functions", {})
            for qualname, record in functions.items():  # type: ignore[union-attr]
                self.nodes[(module_key, qualname)] = record
        self._link_calls()
        self._discover_roots()
        self._propagate_domains()
        self._solve_entry_locks()
        self._collect_shared()
        self._emit_records()

    def _resolve_target(
        self, module_key: str, caller: str, sym: Optional[Sequence[object]]
    ) -> Optional[Node]:
        if not sym:
            return None
        resolved = self._resolve(module_key, caller, sym)
        if resolved is not None:
            node = (resolved[0][0], resolved[0][1])
            if node in self.nodes:
                return node
        if sym[0] == "self" and "." in caller:
            sibling = (module_key, caller.rsplit(".", 1)[0] + "." + str(sym[1]))
            if sibling in self.nodes:
                return sibling
        if sym[0] == "name":
            direct = (module_key, str(sym[1]))
            if direct in self.nodes:
                return direct
        return None

    def _link_calls(self) -> None:
        for node, record in self.nodes.items():
            module_key, qualname = node
            for call in record.get("calls", []):  # type: ignore[union-attr]
                target = self._resolve_target(module_key, qualname, call["sym"])
                if target is None:
                    continue
                self.edges.setdefault(node, set()).add(target)
                self.call_sites.setdefault(target, []).append(
                    (node, frozenset(call.get("held", [])))
                )

    def _discover_roots(self) -> None:
        for node, record in sorted(self.nodes.items()):
            module_key, qualname = node
            for spawn in record.get("spawns", []):  # type: ignore[union-attr]
                target = self._resolve_target(module_key, qualname, spawn.get("target"))
                if target is None:
                    continue
                via = f"{module_key}:{spawn['line']} ({qualname})"
                self.roots.append((target, str(spawn["domain"]), via))
        for module_key in sorted(self.summaries):
            handler_classes = set(self._facts(module_key).get("handler_classes", []))
            if not handler_classes:
                continue
            for node, record in sorted(self.nodes.items()):
                if node[0] == module_key and record.get("class") in handler_classes:
                    self.roots.append((node, DOMAIN_HANDLER, f"handler class {record['class']}"))

    def _propagate_domains(self) -> None:
        pending: List[Node] = []
        for node, domain, _via in self.roots:
            marks = self.domains.setdefault(node, set())
            if domain not in marks:
                marks.add(domain)
                pending.append(node)
        while pending:
            node = pending.pop()
            for successor in self.edges.get(node, ()):
                marks = self.domains.setdefault(successor, set())
                before = len(marks)
                marks.update(self.domains[node])
                if len(marks) != before:
                    pending.append(successor)

    def _solve_entry_locks(self) -> None:
        root_nodes = {node for node, _domain, _via in self.roots}
        entry: Dict[Node, Optional[FrozenSet[str]]] = {}
        for node in self.nodes:
            if node in root_nodes or node not in self.call_sites:
                entry[node] = frozenset()
            else:
                entry[node] = None  # ⊤: no information yet
        for _pass in range(self._MAX_PASSES):
            changed = False
            for node, sites in self.call_sites.items():
                if node in root_nodes:
                    continue  # spawn entries hold nothing, whatever callers do
                met: Optional[FrozenSet[str]] = None
                for caller, held in sites:
                    caller_entry = entry.get(caller)
                    if caller_entry is None:
                        continue  # optimistic: skip still-unknown callers
                    site_locks = held | caller_entry
                    met = site_locks if met is None else met & site_locks
                if met is not None and met != entry[node]:
                    entry[node] = met
                    changed = True
            if not changed:
                break
        self.entry_locks = entry

    def _effective_held(self, node: Node, held: Iterable[str]) -> FrozenSet[str]:
        entry = self.entry_locks.get(node) or frozenset()
        return frozenset(held) | entry

    def _node_domains(self, node: Node) -> FrozenSet[str]:
        marks = self.domains.get(node)
        return frozenset(marks) if marks else frozenset({DOMAIN_MAIN})

    def _collect_shared(self) -> None:
        accesses: Dict[str, Dict[str, object]] = {}
        for node, record in sorted(self.nodes.items()):
            module_key, qualname = node
            for write in record.get("writes", []):  # type: ignore[union-attr]
                key = f"{module_key}::{write['sym']}"
                info = accesses.setdefault(
                    key, {"writes": [], "reads": [], "domains": set()}
                )
                info["domains"].update(self._node_domains(node))  # type: ignore[union-attr]
                exempt = self._is_ctor_write(node, str(write["sym"]))
                info["writes"].append(  # type: ignore[union-attr]
                    {
                        "node": node,
                        "line": write["line"],
                        "col": write["col"],
                        "held": self._effective_held(node, write.get("held", [])),
                        "exempt": exempt,
                    }
                )
            for read in record.get("reads", []):  # type: ignore[union-attr]
                key = f"{module_key}::{read['sym']}"
                info = accesses.setdefault(
                    key, {"writes": [], "reads": [], "domains": set()}
                )
                info["domains"].update(self._node_domains(node))  # type: ignore[union-attr]
                info["reads"].append(  # type: ignore[union-attr]
                    {"node": node, "line": read["line"], "col": read["col"]}
                )
        for key, info in accesses.items():
            live_writes = [w for w in info["writes"] if not w["exempt"]]  # type: ignore[union-attr]
            if not live_writes:
                continue
            if not info["domains"] & RACY_DOMAINS:  # type: ignore[operator]
                continue
            guard = self._infer_guard(live_writes)
            self.shared[key] = {
                "writes": live_writes,
                "reads": info["reads"],
                "domains": frozenset(info["domains"]),  # type: ignore[arg-type]
                "guard": guard,
            }

    def _is_ctor_write(self, node: Node, symbol: str) -> bool:
        if not symbol.startswith("a:"):
            return False
        record = self.nodes[node]
        class_path = record.get("class")
        if not class_path:
            return False
        method = node[1].rsplit(".", 1)[-1]
        return method in _CTOR_METHODS

    @staticmethod
    def _infer_guard(writes: List[Dict[str, object]]) -> Optional[str]:
        counts: Counter = Counter()
        for write in writes:
            for lock in write["held"]:  # type: ignore[union-attr]
                counts[lock] += 1
        for lock, count in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])):
            if count * 2 > len(writes):
                return lock
        return None

    # -- findings ----------------------------------------------------------

    def _emit_records(self) -> None:
        records: Dict[str, List[Dict[str, object]]] = {}
        for key in sorted(self.shared):
            info = self.shared[key]
            guard = info["guard"]
            for write in info["writes"]:  # type: ignore[union-attr]
                node = write["node"]
                held = write["held"]
                record: Dict[str, object] = {
                    "line": write["line"],
                    "col": write["col"],
                    "symbol": self.pretty_symbol(key),
                    "function": node[1],
                }
                if guard is None and not held:
                    record["rule"] = "CW701"
                    record["domains"] = sorted(info["domains"])  # type: ignore[arg-type]
                elif guard is not None and guard not in held:
                    record["rule"] = "CW702"
                    record["guard"] = self.pretty_lock(node[0], str(guard))
                else:
                    continue
                records.setdefault(node[0], []).append(record)
        for module_records in records.values():
            module_records.sort(key=lambda r: (r["line"], r["col"], r["rule"]))
        self._records = records

    # -- public api --------------------------------------------------------

    def records_for(self, module_key: str) -> List[Dict[str, object]]:
        """The CW7xx finding records anchored in one module."""
        return self._records.get(module_key, [])

    def dep_digest(self, module_key: str) -> str:
        """Digest of the module's thread findings for the cache dep-key.

        The records are a pure function of whole-program facts, so folding
        them into the per-file dependency key re-lints a file exactly when a
        change anywhere in the project changes what CW7xx would say here.
        """
        payload = json.dumps(
            self.records_for(module_key), sort_keys=True, separators=(",", ":"), default=str
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    @property
    def n_roots(self) -> int:
        return len(self.roots)

    @property
    def n_shared(self) -> int:
        return len(self.shared)

    @staticmethod
    def pretty_symbol(key: str) -> str:
        """``mod::g:X`` → ``mod.X``; ``mod::a:Cls:attr`` → ``mod.Cls.attr``."""
        module_key, _, symbol = key.partition("::")
        if symbol.startswith("g:"):
            return f"{module_key}.{symbol[2:]}"
        if symbol.startswith("a:"):
            _kind, class_path, attr = symbol.split(":", 2)
            return f"{module_key}.{class_path}.{attr}"
        return key

    def pretty_lock(self, module_key: str, lock: str) -> str:
        return self.pretty_symbol(lock if "::" in lock else f"{module_key}::{lock}")

    def render(self) -> str:
        """The ``--threads`` debug listing: roots, shared state, accesses."""
        lines: List[str] = []
        lines.append(f"thread roots ({len(self.roots)}):")
        for node, domain, via in sorted(self.roots, key=lambda r: (r[0], r[1])):
            lines.append(f"  [{domain}] {node[0]}:{node[1]}  via {via}")
        lines.append("")
        lines.append(f"shared state ({len(self.shared)}):")
        for key in sorted(self.shared):
            info = self.shared[key]
            guard = info["guard"]
            guard_text = (
                self.pretty_lock(key.partition("::")[0], str(guard))
                if guard
                else "<none>"
            )
            domains = ",".join(sorted(info["domains"]))  # type: ignore[arg-type]
            lines.append(
                f"  {self.pretty_symbol(key)}  domains={domains}  guarded_by={guard_text}"
            )
            for write in info["writes"]:  # type: ignore[union-attr]
                node = write["node"]
                held = ",".join(sorted(write["held"])) or "-"  # type: ignore[arg-type]
                lines.append(
                    f"    write {node[0]}:{write['line']}  {node[1]}  locks={held}"
                )
            for read in info["reads"]:  # type: ignore[union-attr]
                node = read["node"]
                lines.append(f"    read  {node[0]}:{read['line']}  {node[1]}")
        return "\n".join(lines)
