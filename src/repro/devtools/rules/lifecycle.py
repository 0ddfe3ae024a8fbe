"""CW8xx — the exception-flow / resource-lifetime pack.

These rules consume two whole-program views built over the project call
graph: :class:`~repro.devtools.exceptions.ExceptionAnalysis` (per-function
may-raise sets computed to fixpoint with handler subsumption) and
:class:`~repro.devtools.resources.LifecycleAnalysis` (acquisition sites
tracked to their releases, with the exception edges deciding whether a
leak path is actually reachable).  They report:

* **CW801** — a locally-owned resource (file, socket, connection,
  executor, tempdir, tracemalloc) that is never released, or whose
  release is skipped on a reachable exception/early-return path and is
  not protected by ``with``/``finally``.
* **CW802** — the same for locks: ``acquire()`` without a guaranteed
  ``release()``.  The sibling ``acquire(); …; release()`` shape carries a
  mechanical ``with lock:`` autofix.
* **CW803** — a broad ``except Exception``/bare handler that swallows an
  exception the fixpoint proves is propagated from project code: no
  re-raise, and the bound exception variable (if any) is never used.
  Silent bodies stay CW107's per-file finding.
* **CW804** — the atomic-persistence protocol (``mkstemp`` → write →
  ``fsync`` → ``os.replace``) attempted without the fsync or without
  unlinking the staged temp file on failure.

Anything the analyses cannot prove — an escaped handle, an unresolved
callee, an unknown receiver — produces no finding: zero false positives
is the design budget, enforced by the clean-twin fixtures in the tests.

Severity is ``error`` in the layers where a leak corrupts the serving
path (``web``, ``exec``, ``persistence``) and ``warning`` elsewhere.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..engine import Edit, FileContext, Fix, Rule, register
from ..layers import layer_of
from .common import anchor

#: Layers where a leaked handle corrupts served output.
_ERROR_LAYERS = frozenset({"web", "exec", "persistence"})


def _severity(ctx: FileContext) -> str:
    layer = layer_of(ctx.module) if ctx.module else None
    return "error" if layer in _ERROR_LAYERS else "warning"


def _lifecycle_records(ctx: FileContext, rule_id: str) -> List[Dict[str, object]]:
    if ctx.project is None:
        return []
    return [
        record
        for record in ctx.project.lifecycle_records(ctx.module_key)
        if record["rule"] == rule_id
    ]


@register
class LeakedResourceRule(Rule):
    id = "CW801"
    name = "may-leak-resource"
    description = (
        "A locally-owned resource (file, socket, executor, tempdir, "
        "tracemalloc) is acquired without `with` and its release is "
        "missing, or skipped on a reachable exception / early-return path "
        "with no `finally` protection."
    )
    requires_project = True

    def check_module(self, ctx: FileContext) -> None:
        for record in _lifecycle_records(ctx, self.id):
            ctx.report(
                self,
                anchor(record["line"], record["col"]),
                f"in {record['func']}(): {record['reason']} — manage it "
                "with a `with` block or release it in a `finally`",
                severity=_severity(ctx),
            )


@register
class UnguardedLockReleaseRule(Rule):
    id = "CW802"
    name = "lock-without-guaranteed-release"
    description = (
        "A lock is acquire()d without a guaranteed release(): the release "
        "is missing, or an intervening raise/return/may-raise call skips "
        "it, deadlocking every later waiter.  The sibling acquire/release "
        "shape autofixes to a `with lock:` block."
    )
    requires_project = True
    fixable = True

    def check_module(self, ctx: FileContext) -> None:
        for record in _lifecycle_records(ctx, self.id):
            fix = self._build_fix(ctx, record.get("fix"))
            hint = (
                "apply the `with` rewrite"
                if fix is not None
                else "move the release into a `finally` (or use `with`)"
            )
            ctx.report(
                self,
                anchor(record["line"], record["col"]),
                f"in {record['func']}(): {record['reason']} — {hint}",
                fix=fix,
                severity=_severity(ctx),
            )

    @staticmethod
    def _build_fix(ctx: FileContext, raw: Optional[Dict[str, object]]) -> Optional[Fix]:
        """``lock.acquire(); body; lock.release()`` → ``with lock: body``."""
        if not raw:
            return None
        try:
            a_line = int(raw["a_line"])
            a_end = int(raw["a_end"])
            r_line = int(raw["r_line"])
            start = ctx.offset(a_line, int(raw["a_col"]))
            end = ctx.offset(int(raw["r_end_line"]), int(raw["r_end_col"]))
            lock = str(raw["lock"])
        except (KeyError, IndexError, TypeError, ValueError):
            return None
        if r_line <= a_end:
            return None
        source_lines = ctx.source.splitlines()
        try:
            body = source_lines[a_end : r_line - 1]
        except IndexError:
            return None
        if not body:
            body = [" " * (int(raw["a_col"]) + 4) + "pass"]
        indented = [("    " + line) if line.strip() else line for line in body]
        replacement = f"with {lock}:\n" + "\n".join(indented)
        if ctx.source[start:end] == replacement:
            return None
        return Fix(
            edits=(Edit(start, end, replacement),),
            note=f"wrap the critical section in `with {lock}:`",
        )


@register
class SwallowedPropagationRule(Rule):
    id = "CW803"
    name = "broad-handler-swallows-propagation"
    description = (
        "A broad except (Exception/BaseException/bare) swallows an "
        "exception the interprocedural fixpoint proves is propagated from "
        "project code: no re-raise, and the bound variable is never used."
    )
    requires_project = True

    def check_module(self, ctx: FileContext) -> None:
        if ctx.project is None:
            return
        for record in ctx.project.exception_records(ctx.module_key):
            if record["rule"] != self.id:
                continue
            caught = ", ".join(record["caught"])  # type: ignore[arg-type]
            types = ", ".join(record["types"])  # type: ignore[arg-type]
            ctx.report(
                self,
                anchor(record["line"], record["col"]),
                f"`except {caught}` in {record['func']}() silently swallows "
                f"{types} propagated from project code — narrow the catch, "
                "re-raise, or record the exception",
                severity=_severity(ctx),
            )


@register
class AtomicPersistenceRule(Rule):
    id = "CW804"
    name = "atomic-persistence-violation"
    description = (
        "Code staging through tempfile.mkstemp and publishing with "
        "os.replace/rename skips the fsync before the rename, or never "
        "unlinks the staged temp file when the write fails."
    )
    requires_project = True

    def check_module(self, ctx: FileContext) -> None:
        for record in _lifecycle_records(ctx, self.id):
            ctx.report(
                self,
                anchor(record["line"], record["col"]),
                f"in {record['func']}(): {record['reason']} — follow the "
                "mkstemp -> write -> flush+fsync -> os.replace protocol "
                "with an except/finally unlink",
                severity=_severity(ctx),
            )
