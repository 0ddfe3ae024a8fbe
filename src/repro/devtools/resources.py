"""Resource-lifetime analysis (crowdlint v5, stage 2).

Per-function facts record every acquisition site (``open``/``socket``/
``HTTPConnection``/executor constructors assigned to a plain name,
``X.acquire()`` lock statements, ``tracemalloc.start()``,
``TemporaryDirectory``), then track each one lexically to its release
(``close``/``release``/``shutdown``/``cleanup``/``os.close``/
``tracemalloc.stop``).  A ``with`` acquisition is managed and never
recorded; a token that *escapes* (returned, yielded, stored into a
container/attribute, aliased, or passed to another function) transfers
ownership and is skipped — the analysis only judges provably-local
lifetimes, which is what keeps it at zero false positives.  For the rest:

* no release at all → leak on **every** path (CW801; CW802 for locks);
* release present but not inside a ``finally`` → leak on the exception
  path if an intervening unguarded call **may raise** per the
  interprocedural fixpoint of :mod:`repro.devtools.exceptions`, or on an
  early ``return``/``raise`` between acquire and release.

The atomic-persistence protocol (CW804) is checked per function: code
that stages through ``tempfile.mkstemp`` and publishes with
``os.replace``/``rename`` must ``fsync`` before the rename and unlink the
temp file in an ``except``/``finally`` cleanup, the way
``repro.persistence.save_profiles`` does.

Fact extraction is deliberately import-light (``ast`` + stdlib + the
symbolic helpers shared with :mod:`repro.devtools.threads`) so
:mod:`repro.devtools.domains` can call :func:`extract_resource_facts`
without an import cycle; :class:`LifecycleAnalysis` is whole-program
derived data rebuilt on demand, like the thread and exception analyses.
"""

from __future__ import annotations

import ast
import hashlib
import json
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .threads import _attr_chain, _call_sym, _last_name, _scoped_statements

__all__ = ["extract_resource_facts", "LifecycleAnalysis"]

#: Bumped when the resource-fact schema changes (the summary cache and the
#: ruleset fingerprint already invalidate stale entries; belt-and-braces).
RESOURCE_FORMAT = "2"

#: Constructor last-name → resource kind for plain-name assignments.
_CTOR_KINDS: Dict[str, str] = {
    "open": "file",
    "socket": "socket",
    "create_connection": "socket",
    "socketpair": "socket",
    "HTTPConnection": "connection",
    "HTTPSConnection": "connection",
    "ProcessPoolExecutor": "executor",
    "ThreadPoolExecutor": "executor",
    "TemporaryDirectory": "tempdir",
    "NamedTemporaryFile": "file",
}


# --------------------------------------------------------------------------
# extraction: one module's resource facts as plain JSON data
# --------------------------------------------------------------------------

def extract_resource_facts(tree: ast.Module) -> Dict[str, object]:
    """One module's resource-lifetime facts."""
    functions: Dict[str, Dict[str, object]] = {}
    _ResRecorder(functions).walk_definitions(tree.body, prefix="")
    return {"format": RESOURCE_FORMAT, "functions": functions}


class _ResRecorder:
    """One record per function: acquisitions tracked to their releases."""

    def __init__(self, functions: Dict[str, Dict[str, object]]):
        self.functions = functions

    def walk_definitions(self, body: Sequence[ast.stmt], prefix: str) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.record_function(stmt, prefix + stmt.name)
            elif isinstance(stmt, ast.ClassDef):
                self.walk_definitions(stmt.body, prefix + stmt.name + ".")

    def record_function(self, fn: ast.AST, qualname: str) -> None:
        walker = _ResWalker(self, qualname)
        walker.prescan(fn)
        walker.walk(fn.body, walker.new_block(), guarded=False,  # type: ignore[attr-defined]
                    in_finally=False, in_cleanup=False)
        self.functions[qualname] = walker.finish(fn)


class _ResWalker:
    """Lexical statement walk of one function body collecting lifetime events."""

    def __init__(self, recorder: _ResRecorder, qualname: str):
        self.recorder = recorder
        self.qualname = qualname
        self.acquires: List[Dict[str, object]] = []
        self.releases: List[Dict[str, object]] = []
        self.escapes: Dict[str, List[int]] = {}
        self.raise_lines: List[int] = []
        self.return_lines: List[int] = []
        self.calls: List[Dict[str, object]] = []
        self.cleanup_release: bool = False
        self.atomic: Dict[str, object] = {}
        self.is_generator = False
        self._tokens: Set[str] = set()
        self._blocks = 0

    def new_block(self) -> int:
        self._blocks += 1
        return self._blocks

    # -- pre-pass ----------------------------------------------------------

    def prescan(self, fn: ast.AST) -> None:
        """Candidate tokens, generator-ness, and the atomic-staging shape."""
        for node in _scoped_statements(fn):
            if isinstance(node, (ast.Yield, ast.YieldFrom)):
                self.is_generator = True
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                name = _last_name(node.value.func)
                if (
                    name in _CTOR_KINDS
                    and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                ):
                    self._tokens.add(node.targets[0].id)
            if isinstance(node, ast.Call):
                # _scoped_statements gives no ordering guarantee, so the
                # atomic-staging shape is collected order-independently.
                name = _last_name(node.func)
                if name == "mkstemp":
                    if node.lineno < int(self.atomic.get("line", 10 ** 9)):
                        self.atomic["line"] = node.lineno
                        self.atomic["col"] = node.col_offset
                elif name in ("replace", "rename"):
                    if node.lineno < int(self.atomic.get("replace", 10 ** 9)):
                        self.atomic["replace"] = node.lineno
                elif name == "fsync":
                    self.atomic["fsync"] = True

    # -- expression scan ---------------------------------------------------

    def _scan_expr(self, expr: Optional[ast.AST], guarded: bool) -> None:
        if expr is None:
            return
        stack: List[Tuple[ast.AST, bool]] = [(expr, False)]
        while stack:
            node, shielded = stack.pop()
            if isinstance(node, ast.Lambda):
                continue
            if isinstance(node, ast.Name):
                if (
                    not shielded
                    and isinstance(node.ctx, ast.Load)
                    and node.id in self._tokens
                ):
                    self.escapes.setdefault(node.id, []).append(node.lineno)
                continue
            if isinstance(node, ast.Attribute):
                # receiver position: ``f.read()`` / ``f.name`` is not an escape
                stack.append((node.value, isinstance(node.value, ast.Name)))
                continue
            if isinstance(node, ast.Call):
                sym = _call_sym(node.func)
                if sym is not None:
                    self.calls.append(
                        {"sym": sym, "line": node.lineno, "guarded": guarded}
                    )
                # handing the raw handle to the os layer is not an escape
                shield_args = _last_name(node.func) in ("close", "fsync", "fdopen")
                stack.append((node.func, False))
                for arg in node.args:
                    stack.append((arg, shield_args))
                for keyword in node.keywords:
                    stack.append((keyword.value, False))
                continue
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    stack.append((child, False))

    def _scan_statement_exprs(self, stmt: ast.stmt, guarded: bool) -> None:
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                self._scan_expr(child, guarded)

    # -- acquisition / release matching -----------------------------------

    def _lock_token(self, expr: ast.AST) -> Optional[str]:
        chain = _attr_chain(expr)
        if chain is not None and len(chain) <= 3:
            return ".".join(chain)
        return None

    def _record_acquire(
        self, token: str, kind: str, stmt: ast.stmt, block: int
    ) -> None:
        self.acquires.append(
            {
                "token": token,
                "kind": kind,
                "line": stmt.lineno,
                "col": stmt.col_offset,
                "end": getattr(stmt, "end_lineno", stmt.lineno),
                "block": block,
            }
        )

    def _record_release(
        self, token: str, stmt: ast.stmt, block: int, in_finally: bool, in_cleanup: bool
    ) -> None:
        self.releases.append(
            {
                "token": token,
                "line": stmt.lineno,
                "end_line": getattr(stmt, "end_lineno", stmt.lineno),
                "end_col": getattr(stmt, "end_col_offset", 0),
                "block": block,
                "finally": in_finally,
            }
        )
        if in_finally or in_cleanup:
            self.cleanup_release = True

    def _expr_statement(
        self, stmt: ast.Expr, block: int, guarded: bool, in_finally: bool, in_cleanup: bool
    ) -> bool:
        """Handle acquire/release statement shapes; True when consumed."""
        call = stmt.value
        if not isinstance(call, ast.Call):
            return False
        chain = _attr_chain(call.func)
        name = _last_name(call.func)
        if chain == ["tracemalloc", "start"]:
            self._record_acquire("tracemalloc", "trace", stmt, block)
            return True
        if chain == ["tracemalloc", "stop"]:
            self._record_release("tracemalloc", stmt, block, in_finally, in_cleanup)
            return True
        if name == "acquire" and isinstance(call.func, ast.Attribute):
            token = self._lock_token(call.func.value)
            # acquire(blocking=False)/acquire(timeout=...) may not hold the
            # lock at all — only the plain unconditional form is tracked.
            if token is not None and not call.args and not call.keywords:
                self._record_acquire(token, "lock", stmt, block)
                return True
        if name == "release" and isinstance(call.func, ast.Attribute):
            token = self._lock_token(call.func.value)
            if token is not None:
                self._record_release(token, stmt, block, in_finally, in_cleanup)
                return True
        if (
            name in ("close", "shutdown", "cleanup")
            and isinstance(call.func, ast.Attribute)
            and isinstance(call.func.value, ast.Name)
            and call.func.value.id in self._tokens
        ):
            self._record_release(call.func.value.id, stmt, block, in_finally, in_cleanup)
            for arg in call.args:  # shutdown(wait=...) args still scan for calls
                self._scan_expr(arg, guarded)
            return True
        if (
            chain == ["os", "close"]
            and len(call.args) == 1
            and isinstance(call.args[0], ast.Name)
            and call.args[0].id in self._tokens
        ):
            self._record_release(call.args[0].id, stmt, block, in_finally, in_cleanup)
            return True
        if name in ("unlink", "remove") and (in_finally or in_cleanup):
            if "line" in self.atomic:
                self.atomic["cleanup"] = True
        return False

    # -- the walk ----------------------------------------------------------

    def walk(
        self,
        stmts: Sequence[ast.stmt],
        block: int,
        guarded: bool,
        in_finally: bool,
        in_cleanup: bool,
    ) -> None:
        for stmt in stmts:
            self._statement(stmt, block, guarded, in_finally, in_cleanup)

    def _statement(
        self,
        stmt: ast.stmt,
        block: int,
        guarded: bool,
        in_finally: bool,
        in_cleanup: bool,
    ) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self.recorder.record_function(stmt, f"{self.qualname}.{stmt.name}")
            return
        if isinstance(stmt, ast.ClassDef):
            return
        if isinstance(stmt, ast.Return):
            self.return_lines.append(stmt.lineno)
            self._scan_expr(stmt.value, guarded)
            return
        if isinstance(stmt, ast.Raise):
            self.raise_lines.append(stmt.lineno)
            self._scan_statement_exprs(stmt, guarded)
            return
        if isinstance(stmt, ast.Try):
            body_guarded = guarded or bool(stmt.handlers) or bool(stmt.finalbody)
            self.walk(stmt.body, self.new_block(), body_guarded, in_finally, in_cleanup)
            for handler in stmt.handlers:
                self.walk(handler.body, self.new_block(), guarded, in_finally, True)
            self.walk(stmt.orelse, self.new_block(), guarded, in_finally, in_cleanup)
            self.walk(stmt.finalbody, self.new_block(), guarded, True, in_cleanup)
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._scan_expr(item.context_expr, guarded)
            self.walk(stmt.body, self.new_block(), guarded, in_finally, in_cleanup)
            return
        if isinstance(stmt, (ast.If, ast.While)):
            self._scan_expr(stmt.test, guarded)
            self.walk(stmt.body, self.new_block(), guarded, in_finally, in_cleanup)
            self.walk(stmt.orelse, self.new_block(), guarded, in_finally, in_cleanup)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._scan_expr(stmt.iter, guarded)
            self.walk(stmt.body, self.new_block(), guarded, in_finally, in_cleanup)
            self.walk(stmt.orelse, self.new_block(), guarded, in_finally, in_cleanup)
            return
        if isinstance(stmt, ast.Expr):
            if self._expr_statement(stmt, block, guarded, in_finally, in_cleanup):
                return
            self._scan_expr(stmt.value, guarded)
            return
        if isinstance(stmt, ast.Assign):
            if (
                isinstance(stmt.value, ast.Call)
                and _last_name(stmt.value.func) in _CTOR_KINDS
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
            ):
                kind = _CTOR_KINDS[_last_name(stmt.value.func)]  # type: ignore[index]
                self._record_acquire(stmt.targets[0].id, kind, stmt, block)
                for arg in stmt.value.args:
                    self._scan_expr(arg, guarded)
                for keyword in stmt.value.keywords:
                    self._scan_expr(keyword.value, guarded)
                return
            self._scan_statement_exprs(stmt, guarded)
            return
        self._scan_statement_exprs(stmt, guarded)

    # -- post-processing ---------------------------------------------------

    def finish(self, fn: ast.AST) -> Dict[str, object]:
        record: Dict[str, object] = {
            "line": fn.lineno,  # type: ignore[attr-defined]
            "acquires": [],
        }
        if not self.is_generator:
            for acq in self.acquires:
                record["acquires"].append(self._close_out(acq))  # type: ignore[union-attr]
        if "line" in self.atomic and "replace" in self.atomic:
            record["atomic"] = {
                "line": int(self.atomic["line"]),
                "col": int(self.atomic.get("col", 0)),
                "replace": int(self.atomic["replace"]),
                "fsync": bool(self.atomic.get("fsync")),
                "cleanup": bool(self.atomic.get("cleanup")),
            }
        return record

    def _close_out(self, acq: Dict[str, object]) -> Dict[str, object]:
        token = str(acq["token"])
        line = int(acq["line"])
        release = None
        for rel in self.releases:
            if rel["token"] == token and int(rel["line"]) >= line:
                if release is None or int(rel["line"]) < int(release["line"]):
                    release = rel
        window_end = int(release["line"]) if release else 10 ** 9
        escapes = any(
            line <= esc <= window_end for esc in self.escapes.get(token, [])
        )
        out: Dict[str, object] = {
            "token": token,
            "kind": acq["kind"],
            "line": line,
            "col": int(acq["col"]),
            "released": release is not None,
            "release_line": int(release["line"]) if release else None,
            "protected": bool(release and release["finally"]),
            "escapes": escapes,
            "raise_between": [
                l for l in self.raise_lines if line < l < window_end
            ][:4],
            "return_between": [
                l for l in self.return_lines if line < l < window_end
            ][:4],
            "calls_between": [
                {"sym": c["sym"], "line": c["line"]}
                for c in self.calls
                if not c["guarded"] and line < int(c["line"]) < window_end
            ][:16],
        }
        if (
            acq["kind"] == "lock"
            and release is not None
            and not release["finally"]
            and release["block"] == acq["block"]
            and int(release["line"]) > int(acq["end"])
            and sum(1 for a in self.acquires if a["token"] == token) == 1
            and sum(1 for r in self.releases if r["token"] == token) == 1
        ):
            out["fix"] = {
                "a_line": line,
                "a_col": int(acq["col"]),
                "a_end": int(acq["end"]),
                "r_line": int(release["line"]),
                "r_end_line": int(release["end_line"]),
                "r_end_col": int(release["end_col"]),
                "lock": token,
            }
        return out


# --------------------------------------------------------------------------
# whole-program analysis: lifetimes judged with exception edges
# --------------------------------------------------------------------------

class LifecycleAnalysis:
    """CW801/802/804 records from the per-module resource facts.

    Exception edges come from :class:`~repro.devtools.exceptions.\
ExceptionAnalysis`: a release is skippable only on a path the may-raise
    fixpoint proves reachable.
    """

    def __init__(
        self, summaries: Dict[str, Dict[str, object]], exceptions: "ExceptionAnalysis"
    ):
        self.summaries = summaries
        self.exceptions = exceptions
        self._records: Dict[str, List[Dict[str, object]]] = {}
        self._build()

    def _build(self) -> None:
        for module_key in sorted(self.summaries):
            facts = (self.summaries[module_key].get("resources") or {}).get("functions", {})
            for qualname, record in sorted(facts.items()):  # type: ignore[union-attr]
                self._judge_function(module_key, qualname, record)
        for records in self._records.values():
            records.sort(key=lambda r: (r["line"], r["col"], r["rule"]))

    def _emit(self, module_key: str, record: Dict[str, object]) -> None:
        self._records.setdefault(module_key, []).append(record)

    # -- lifetimes ---------------------------------------------------------

    def _raising_call(
        self, module_key: str, qualname: str, calls: Sequence[Dict[str, object]]
    ) -> Optional[Tuple[int, List[str]]]:
        """The first intervening resolved call that may raise, if any."""
        for call in calls:
            target = self.exceptions._resolve_target(module_key, qualname, call["sym"])
            if target is None:
                continue
            raised = self.exceptions.raises_out.get(target)
            if raised:
                return int(call["line"]), sorted(raised)
        return None

    def _judge_function(
        self, module_key: str, qualname: str, record: Dict[str, object]
    ) -> None:
        for acq in record.get("acquires", []):  # type: ignore[union-attr]
            if acq.get("escapes"):
                continue
            rule = "CW802" if acq["kind"] == "lock" else "CW801"
            noun = "lock" if rule == "CW802" else str(acq["kind"])
            token = acq["token"]
            base: Dict[str, object] = {
                "rule": rule,
                "line": int(acq["line"]),
                "col": int(acq["col"]),
                "kind": acq["kind"],
                "token": token,
                "func": qualname,
            }
            if not acq.get("released"):
                base["reason"] = (
                    f"{noun} {token!r} is acquired here and never "
                    f"released on any path"
                )
                self._emit(module_key, base)
                continue
            if acq.get("protected"):
                continue
            release_line = acq.get("release_line")
            returns = acq.get("return_between") or []
            raises = acq.get("raise_between") or []
            raising = self._raising_call(
                module_key, qualname, acq.get("calls_between") or []
            )
            if returns:
                base["reason"] = (
                    f"return at line {returns[0]} skips the release of "
                    f"{token!r} at line {release_line}"
                )
            elif raises:
                base["reason"] = (
                    f"raise at line {raises[0]} skips the release of "
                    f"{token!r} at line {release_line}"
                )
            elif raising is not None:
                call_line, types = raising
                base["reason"] = (
                    f"call at line {call_line} may raise "
                    f"{', '.join(types)}; the release of {token!r} at line "
                    f"{release_line} is skipped on that path"
                )
            else:
                continue
            if rule == "CW802" and "fix" in acq:
                base["fix"] = acq["fix"]
            self._emit(module_key, base)
        atomic = record.get("atomic")
        if isinstance(atomic, dict):
            if not atomic.get("fsync"):
                self._emit(
                    module_key,
                    {
                        "rule": "CW804",
                        "line": int(atomic["line"]),
                        "col": int(atomic.get("col", 0)),
                        "func": qualname,
                        "reason": (
                            "temp file is renamed into place at line "
                            f"{atomic['replace']} without an fsync — a crash "
                            "can publish truncated contents"
                        ),
                    },
                )
            if not atomic.get("cleanup"):
                self._emit(
                    module_key,
                    {
                        "rule": "CW804",
                        "line": int(atomic["line"]),
                        "col": int(atomic.get("col", 0)),
                        "func": qualname,
                        "reason": (
                            "staged temp file is not unlinked when the write "
                            "fails (no except/finally cleanup before the "
                            f"rename at line {atomic['replace']})"
                        ),
                    },
                )

    # -- results -----------------------------------------------------------

    def records_for(self, module_key: str) -> List[Dict[str, object]]:
        """The CW801/802/804 finding records anchored in one module."""
        return self._records.get(module_key, [])

    def dep_digest(self, module_key: str) -> str:
        """Digest of the module's lifecycle findings for the cache dep-key."""
        payload = json.dumps(
            self.records_for(module_key), sort_keys=True, separators=(",", ":"),
            default=str,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()
