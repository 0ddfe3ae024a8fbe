"""Interprocedural exception-propagation analysis (crowdlint v5, stage 1).

Per-function *may-raise* summaries computed to fixpoint over the existing
whole-program call graph:

1. **Fact extraction.**  Per-module *exception facts* ride inside the
   module summaries (same content-addressed cache, same ``--jobs``
   shipping): every explicit ``raise`` site, every call expression in the
   callgraph's symbolic-callee vocabulary, and every ``except`` handler —
   each annotated with the ordered stack of handlers lexically guarding
   it, so propagation respects Python's first-matching-handler rule and
   the fact that ``else:``/``finally:`` blocks are *not* protected by
   their own ``try``.

2. **Hierarchy model.**  Handler subsumption uses a builtin exception
   hierarchy (``FileNotFoundError ⊂ OSError ⊂ Exception`` …) extended
   with every project-defined exception class discovered in the facts
   (``UnknownCategoryError ⊂ KeyError``).  ``except Exception`` catches
   any type that does not chain into the ``BaseException``-only family
   (``SystemExit``/``KeyboardInterrupt``/``GeneratorExit``); a bare
   ``except`` or ``except BaseException`` catches everything.

3. **Propagation fixpoint.**  ``raises_out(f)`` seeds from f's unguarded
   explicit raises, grows with every resolved callee's escape set minus
   the handlers guarding the call site, and routes bare ``raise``
   statements inside a handler back out with the types that handler
   actually received.  Sets only grow, so the iteration converges; a
   pass bound guards against pathological graphs.

Unresolved callees (stdlib, third-party) contribute **nothing** — the
analysis answers "which *project-raised* exceptions reach this frame",
which is exactly what the CW803 swallow rule and the CW801/CW802 leak
reachability checks need, and it keeps the pack at zero false positives
on code the resolver cannot see.

CW803 (broad handler swallows a propagated domain exception) fires when a
handler catches ``Exception``/``BaseException``/bare, does **not**
re-raise, does **not** use its bound exception variable, has a non-silent
body (silent ones are CW107's per-file finding), and the fixpoint proves
at least one project-raised exception is delivered to it.

The module is deliberately import-light (``ast`` + stdlib + the symbolic
helpers shared with :mod:`repro.devtools.threads`) so
:mod:`repro.devtools.domains` can call :func:`extract_exception_facts`
without an import cycle.
"""

from __future__ import annotations

import ast
import hashlib
import json
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from .threads import _call_sym, _last_name

__all__ = ["extract_exception_facts", "ExceptionAnalysis"]

#: Bumped when the exception-fact schema changes (the summary cache and the
#: ruleset fingerprint already invalidate stale entries; belt-and-braces).
EXCEPTION_FORMAT = "1"

#: child → parent for the builtin hierarchy the subsumption check walks.
_BUILTIN_PARENTS: Dict[str, str] = {
    "Exception": "BaseException",
    "ArithmeticError": "Exception",
    "ZeroDivisionError": "ArithmeticError",
    "OverflowError": "ArithmeticError",
    "FloatingPointError": "ArithmeticError",
    "AssertionError": "Exception",
    "AttributeError": "Exception",
    "BufferError": "Exception",
    "EOFError": "Exception",
    "ImportError": "Exception",
    "ModuleNotFoundError": "ImportError",
    "LookupError": "Exception",
    "IndexError": "LookupError",
    "KeyError": "LookupError",
    "MemoryError": "Exception",
    "NameError": "Exception",
    "UnboundLocalError": "NameError",
    "OSError": "Exception",
    "IOError": "OSError",
    "FileNotFoundError": "OSError",
    "FileExistsError": "OSError",
    "PermissionError": "OSError",
    "IsADirectoryError": "OSError",
    "NotADirectoryError": "OSError",
    "InterruptedError": "OSError",
    "BlockingIOError": "OSError",
    "ChildProcessError": "OSError",
    "TimeoutError": "OSError",
    "ConnectionError": "OSError",
    "BrokenPipeError": "ConnectionError",
    "ConnectionAbortedError": "ConnectionError",
    "ConnectionRefusedError": "ConnectionError",
    "ConnectionResetError": "ConnectionError",
    "ReferenceError": "Exception",
    "RuntimeError": "Exception",
    "NotImplementedError": "RuntimeError",
    "RecursionError": "RuntimeError",
    "StopIteration": "Exception",
    "StopAsyncIteration": "Exception",
    "SyntaxError": "Exception",
    "IndentationError": "SyntaxError",
    "TabError": "IndentationError",
    "SystemError": "Exception",
    "TypeError": "Exception",
    "ValueError": "Exception",
    "UnicodeError": "ValueError",
    "UnicodeDecodeError": "UnicodeError",
    "UnicodeEncodeError": "UnicodeError",
    "GeneratorExit": "BaseException",
    "KeyboardInterrupt": "BaseException",
    "SystemExit": "BaseException",
}

#: Types that do *not* descend from ``Exception`` — ``except Exception``
#: never catches these (nor anything chaining into them).
_NON_EXCEPTION = frozenset(
    {"BaseException", "KeyboardInterrupt", "SystemExit", "GeneratorExit"}
)

#: Broad catch types: CW803 only ever fires on these (or a bare handler).
_BROAD = frozenset({"Exception", "BaseException"})

Node = Tuple[str, str]  # (module_key, qualname)
GuardGroups = List[List[int]]  # inner-to-outer: handler ids of each enclosing try


# --------------------------------------------------------------------------
# extraction: one module's exception facts as plain JSON data
# --------------------------------------------------------------------------

def _exc_type_name(expr: Optional[ast.AST]) -> Optional[str]:
    """``raise X(...)`` / ``raise X`` → ``"X"``; bare / opaque → ``None``."""
    if expr is None:
        return None
    if isinstance(expr, ast.Call):
        return _last_name(expr.func)
    return _last_name(expr)


def _caught_type_names(handler: ast.ExceptHandler) -> List[str]:
    """The handler's caught types by last name; ``[]`` for a bare except."""
    node = handler.type
    if node is None:
        return []
    exprs = node.elts if isinstance(node, ast.Tuple) else [node]
    names = []
    for expr in exprs:
        name = _last_name(expr)
        if name is not None:
            names.append(name)
    return names


def _body_is_silent(body: Sequence[ast.stmt]) -> bool:
    """True when the handler body does nothing (CW107's shape)."""
    for stmt in body:
        if isinstance(stmt, ast.Pass):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue
        return False
    return True


def _uses_name(body: Sequence[ast.stmt], name: Optional[str]) -> bool:
    """Whether the bound exception variable is ever read in the body."""
    if not name:
        return False
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load):
                return True
    return False


def extract_exception_facts(tree: ast.Module) -> Dict[str, object]:
    """One module's exception-flow facts as plain JSON data."""
    facts: Dict[str, object] = {
        "format": EXCEPTION_FORMAT,
        "classes": {},
        "functions": {},
    }
    recorder = _ExcRecorder(facts["classes"], facts["functions"])  # type: ignore[arg-type]
    recorder.walk_definitions(tree.body, prefix="")
    return facts


class _ExcRecorder:
    """One record per function: raises, calls, and handlers with guards."""

    def __init__(self, classes: Dict[str, List[str]], functions: Dict[str, Dict[str, object]]):
        self.classes = classes
        self.functions = functions

    def walk_definitions(self, body: Sequence[ast.stmt], prefix: str) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.record_function(stmt, prefix + stmt.name)
            elif isinstance(stmt, ast.ClassDef):
                path = prefix + stmt.name
                bases = [name for name in map(_last_name, stmt.bases) if name]
                self.classes[path.rsplit(".", 1)[-1]] = bases
                self.walk_definitions(stmt.body, path + ".")

    def record_function(self, fn: ast.AST, qualname: str) -> None:
        record: Dict[str, object] = {
            "line": fn.lineno,  # type: ignore[attr-defined]
            "raises": [],
            "calls": [],
            "handlers": [],
        }
        self.functions[qualname] = record
        walker = _ExcWalker(self, record, qualname)
        walker.walk(fn.body, guards=[], handler_id=None)  # type: ignore[attr-defined]


class _ExcWalker:
    """Statement walk of one function tracking the enclosing handler stack."""

    def __init__(self, recorder: _ExcRecorder, record: Dict[str, object], qualname: str):
        self.recorder = recorder
        self.rec = record
        self.qualname = qualname

    # -- expression scan ---------------------------------------------------

    def _scan_calls(self, expr: Optional[ast.AST], guards: GuardGroups) -> None:
        """Record every call in an expression tree (lambda bodies excluded)."""
        if expr is None:
            return
        stack: List[ast.AST] = [expr]
        while stack:
            node = stack.pop()
            if isinstance(node, ast.Lambda):
                continue
            if isinstance(node, ast.Call):
                sym = _call_sym(node.func)
                if sym is not None:
                    self.rec["calls"].append(  # type: ignore[union-attr]
                        {
                            "sym": sym,
                            "line": node.lineno,
                            "col": node.col_offset,
                            "guards": [list(group) for group in guards],
                        }
                    )
            stack.extend(ast.iter_child_nodes(node))

    def _scan_statement_exprs(self, stmt: ast.stmt, guards: GuardGroups) -> None:
        """Scan a statement's directly-evaluated expressions for calls."""
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                self._scan_calls(child, guards)

    # -- the walk ----------------------------------------------------------

    def walk(
        self,
        stmts: Sequence[ast.stmt],
        guards: GuardGroups,
        handler_id: Optional[int],
    ) -> None:
        for stmt in stmts:
            self._statement(stmt, guards, handler_id)

    def _statement(
        self, stmt: ast.stmt, guards: GuardGroups, handler_id: Optional[int]
    ) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self.recorder.record_function(stmt, f"{self.qualname}.{stmt.name}")
            return
        if isinstance(stmt, ast.ClassDef):
            return  # classes nested in functions stay opaque, like threads.py
        if isinstance(stmt, ast.Raise):
            exc_type = _exc_type_name(stmt.exc)
            entry: Dict[str, object] = {
                "type": exc_type,
                "line": stmt.lineno,
                "guards": [list(group) for group in guards],
            }
            if exc_type is None:
                if handler_id is None:
                    return  # bare raise with no active handler: dead code
                entry["handler"] = handler_id
                self.rec["handlers"][handler_id]["reraises"] = True  # type: ignore[index]
            self.rec["raises"].append(entry)  # type: ignore[union-attr]
            self._scan_statement_exprs(stmt, guards)
            return
        if isinstance(stmt, ast.Try):
            handler_ids: List[int] = []
            for handler in stmt.handlers:
                hid = len(self.rec["handlers"])  # type: ignore[arg-type]
                handler_ids.append(hid)
                self.rec["handlers"].append(  # type: ignore[union-attr]
                    {
                        "id": hid,
                        "types": _caught_type_names(handler),
                        "line": handler.lineno,
                        "col": handler.col_offset,
                        "reraises": False,
                        "uses": _uses_name(handler.body, handler.name),
                        "silent": _body_is_silent(handler.body),
                    }
                )
            inner = ([handler_ids] if handler_ids else []) + guards
            self.walk(stmt.body, inner, handler_id)
            for hid, handler in zip(handler_ids, stmt.handlers):
                self.walk(handler.body, guards, hid)
            # else: runs only when the body did not raise — and its own
            # exceptions are NOT caught by this try's handlers.
            self.walk(stmt.orelse, guards, handler_id)
            self.walk(stmt.finalbody, guards, handler_id)
            return
        if isinstance(stmt, (ast.If, ast.While)):
            self._scan_calls(stmt.test, guards)
            self.walk(stmt.body, guards, handler_id)
            self.walk(stmt.orelse, guards, handler_id)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._scan_calls(stmt.iter, guards)
            self.walk(stmt.body, guards, handler_id)
            self.walk(stmt.orelse, guards, handler_id)
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._scan_calls(item.context_expr, guards)
            self.walk(stmt.body, guards, handler_id)
            return
        self._scan_statement_exprs(stmt, guards)


# --------------------------------------------------------------------------
# whole-program analysis: the may-raise fixpoint
# --------------------------------------------------------------------------

class ExceptionAnalysis:
    """Interprocedural may-raise sets and the CW803 swallow records.

    Built from the per-module exception facts riding inside the module
    summaries plus the project's symbolic-call resolver; everything here
    is derived data, so rehydrated worker projects rebuild it on demand.
    """

    _MAX_PASSES = 30  # fixpoint bound, like the entry-lock fixpoint

    def __init__(
        self,
        summaries: Dict[str, Dict[str, object]],
        resolver: Callable[[str, str, Sequence[object]], Optional[Tuple[Tuple[str, str], bool]]],
    ):
        self.summaries = summaries
        self._resolve = resolver
        self.nodes: Dict[Node, Dict[str, object]] = {}
        self._parents: Dict[str, Set[str]] = {}
        self.raises_out: Dict[Node, Set[str]] = {}
        self.incoming: Dict[Tuple[Node, int], Set[str]] = {}
        self.origins: Dict[Tuple[Node, str], Tuple[str, int, Optional[Node]]] = {}
        self._call_targets: Dict[Node, List[Tuple[Dict[str, object], Node]]] = {}
        self._records: Dict[str, List[Dict[str, object]]] = {}
        self._build()

    # -- construction ------------------------------------------------------

    def _facts(self, module_key: str) -> Dict[str, object]:
        summary = self.summaries.get(module_key) or {}
        facts = summary.get("exceptions")
        if not isinstance(facts, dict):
            return {"classes": {}, "functions": {}}
        return facts

    def _build(self) -> None:
        for name, parent in _BUILTIN_PARENTS.items():
            self._parents.setdefault(name, set()).add(parent)
        for module_key in sorted(self.summaries):
            facts = self._facts(module_key)
            for name, bases in facts.get("classes", {}).items():  # type: ignore[union-attr]
                for base in bases:
                    self._parents.setdefault(name, set()).add(base)
            for qualname, record in facts.get("functions", {}).items():  # type: ignore[union-attr]
                self.nodes[(module_key, qualname)] = record
        self._link_calls()
        self._solve()
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
            targets: List[Tuple[Dict[str, object], Node]] = []
            for call in record.get("calls", []):  # type: ignore[union-attr]
                target = self._resolve_target(module_key, qualname, call["sym"])
                if target is not None and target != node:
                    targets.append((call, target))
            if targets:
                self._call_targets[node] = targets

    # -- the hierarchy -----------------------------------------------------

    def _is_subtype(self, child: str, ancestor: str) -> bool:
        if child == ancestor:
            return True
        seen: Set[str] = set()
        stack = [child]
        while stack:
            current = stack.pop()
            for parent in self._parents.get(current, ()):
                if parent == ancestor:
                    return True
                if parent not in seen:
                    seen.add(parent)
                    stack.append(parent)
        return False

    def _catches(self, caught: Sequence[str], exc: str) -> bool:
        """Would a handler with these caught types stop ``exc``?"""
        if not caught:
            return True  # bare except
        for caught_type in caught:
            if caught_type == "BaseException":
                return True
            if self._is_subtype(exc, caught_type):
                return True
            if caught_type == "Exception":
                # Unknown types are assumed Exception-derived unless they
                # chain into the BaseException-only family.
                if exc not in _NON_EXCEPTION and not any(
                    self._is_subtype(exc, base) for base in _NON_EXCEPTION
                ):
                    return True
        return False

    # -- the fixpoint ------------------------------------------------------

    def _dispatch(
        self,
        node: Node,
        types: Sequence[str],
        guards: Sequence[Sequence[int]],
        origin: Tuple[str, int, Optional[Node]],
    ) -> bool:
        handlers = self.nodes[node].get("handlers", [])
        changed = False
        for exc in types:
            delivered: Optional[int] = None
            for group in guards:
                for hid in group:
                    try:
                        caught = handlers[hid]["types"]  # type: ignore[index]
                    except (IndexError, TypeError, KeyError):
                        continue
                    if self._catches(caught, exc):
                        delivered = hid
                        break
                if delivered is not None:
                    break
            if delivered is not None:
                bucket = self.incoming.setdefault((node, delivered), set())
                if exc not in bucket:
                    bucket.add(exc)
                    changed = True
            else:
                escaped = self.raises_out.setdefault(node, set())
                if exc not in escaped:
                    escaped.add(exc)
                    self.origins.setdefault((node, exc), origin)
                    changed = True
        return changed

    def _solve(self) -> None:
        for _ in range(self._MAX_PASSES):
            changed = False
            for node in sorted(self.nodes):
                record = self.nodes[node]
                for entry in record.get("raises", []):  # type: ignore[union-attr]
                    exc_type = entry.get("type")
                    guards = entry.get("guards", [])
                    line = int(entry.get("line", 0))
                    if exc_type is not None:
                        changed |= self._dispatch(
                            node, [str(exc_type)], guards, ("raise", line, None)
                        )
                    elif "handler" in entry:
                        received = self.incoming.get((node, int(entry["handler"])), set())
                        changed |= self._dispatch(
                            node, sorted(received), guards, ("reraise", line, None)
                        )
                for call, target in self._call_targets.get(node, []):
                    propagated = self.raises_out.get(target)
                    if not propagated:
                        continue
                    line = int(call.get("line", 0))
                    changed |= self._dispatch(
                        node, sorted(propagated), call.get("guards", []),
                        ("call", line, target),
                    )
            if not changed:
                break

    # -- results -----------------------------------------------------------

    def may_raise(self, module_key: str, qualname: str) -> frozenset:
        """The project-raised exception types escaping one function."""
        return frozenset(self.raises_out.get((module_key, qualname), set()))

    def _emit_records(self) -> None:
        for node in sorted(self.nodes):
            module_key, qualname = node
            for handler in self.nodes[node].get("handlers", []):  # type: ignore[union-attr]
                caught = handler.get("types", [])
                broad = not caught or bool(set(caught) & _BROAD)
                if not broad or handler.get("reraises") or handler.get("uses"):
                    continue
                if handler.get("silent"):
                    continue  # CW107's per-file finding owns the silent shape
                received = self.incoming.get((node, int(handler["id"])), set())
                if not received:
                    continue
                self._records.setdefault(module_key, []).append(
                    {
                        "rule": "CW803",
                        "line": int(handler["line"]),
                        "col": int(handler["col"]),
                        "func": qualname,
                        "caught": list(caught) or ["<bare>"],
                        "types": sorted(received),
                    }
                )
        for records in self._records.values():
            records.sort(key=lambda r: (r["line"], r["col"]))

    def records_for(self, module_key: str) -> List[Dict[str, object]]:
        """The CW803 finding records anchored in one module."""
        return self._records.get(module_key, [])

    def dep_digest(self, module_key: str) -> str:
        """Digest folded into the per-file cache dep-key.

        Covers both the module's CW803 records *and* its functions'
        may-raise sets: the latter feed the resource-lifetime analysis of
        every caller, so a change here must re-lint dependents.
        """
        payload = json.dumps(
            {
                "records": self.records_for(module_key),
                "raises": {
                    qualname: sorted(self.raises_out.get((module_key, qualname), set()))
                    for (mod, qualname) in self.nodes
                    if mod == module_key
                },
            },
            sort_keys=True,
            separators=(",", ":"),
            default=str,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    # -- the --raises explain mode ----------------------------------------

    def find_symbol(self, symbol: str) -> Optional[Node]:
        """``module:qualname`` (or ``module.qualname``) → a known node."""
        if ":" in symbol:
            module_key, _, qualname = symbol.partition(":")
            node = (module_key, qualname)
            return node if node in self.nodes else None
        parts = symbol.split(".")
        for split in range(len(parts) - 1, 0, -1):
            node = (".".join(parts[:split]), ".".join(parts[split:]))
            if node in self.nodes:
                return node
        return None

    def render_chain(self, symbol: str) -> str:
        """The inferred propagation chain behind one function's raises."""
        node = self.find_symbol(symbol)
        if node is None:
            known = ", ".join(sorted({mod for mod, _ in self.nodes})[:8])
            return (
                f"--raises: unknown symbol {symbol!r} "
                f"(use module:qualname; modules include {known}, ...)"
            )
        lines = [f"{node[0]}:{node[1]}"]
        escaped = sorted(self.raises_out.get(node, set()))
        if not escaped:
            lines.append("  no propagated project exceptions inferred")
            return "\n".join(lines)
        for exc in escaped:
            lines.append(f"  may raise {exc}")
            current = node
            for _ in range(32):  # provenance chains are acyclic but bounded anyway
                origin = self.origins.get((current, exc))
                if origin is None:
                    break
                kind, line, target = origin
                if kind == "call" and target is not None:
                    lines.append(
                        f"    via call at {current[0]}:{current[1]} line {line}"
                        f" -> {target[0]}:{target[1]}"
                    )
                    current = target
                    continue
                verb = "re-raised" if kind == "reraise" else "raised"
                lines.append(f"    {verb} at {current[0]}:{current[1]} line {line}")
                break
        return "\n".join(lines)
