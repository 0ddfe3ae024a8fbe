"""CW7xx — the thread-safety pack (whole-program race detection).

The serving layer runs a ``ThreadingHTTPServer``: one thread per request,
all of them sharing this process's module globals and long-lived objects.
These rules consume :class:`~repro.devtools.threads.ThreadAnalysis` — thread
roots, concurrency domains, and inferred locksets over the project call
graph — and report:

* **CW701** — a write to shared state (mutated, and reachable from a thread
  domain) with no lock held and no guarded-by lock inferable at all.
* **CW702** — a write to shared state that *is* majority-guarded by one
  lock, at a site where that lock is not held: guarded on some paths, bare
  on others.

Findings anchor on **writes**; bare reads of a published reference are
idiomatic under the GIL and stay silent.  Anything the analysis cannot
resolve — an unknown call target, an opaque lock expression, an attribute
on a non-``self`` root — produces no finding: zero false positives is the
design budget, enforced by the clean-twin fixtures in the tests.

Severity is ``error`` in the layers that actually run concurrent code
(``web``, ``obs``, ``exec``) and ``warning`` elsewhere.
"""

from __future__ import annotations

from typing import Dict, List

from ..engine import FileContext, Rule, register
from ..layers import layer_of
from .common import anchor

#: Layers whose code runs on the serving path — findings there are errors.
_CONCURRENT_LAYERS = frozenset({"web", "obs", "exec"})


def _severity(ctx: FileContext) -> str:
    layer = layer_of(ctx.module) if ctx.module else None
    return "error" if layer in _CONCURRENT_LAYERS else "warning"


def _records_for(ctx: FileContext, rule_id: str) -> List[Dict[str, object]]:
    if ctx.project is None:
        return []
    return [
        record
        for record in ctx.project.thread_records(ctx.module_key)
        if record["rule"] == rule_id
    ]


@register
class UnguardedSharedWriteRule(Rule):
    id = "CW701"
    name = "unguarded-shared-write"
    description = (
        "A write to state shared with a thread domain (handler threads, "
        "worker threads) happens with no lock held, and no guarded-by lock "
        "could be inferred for the symbol at all."
    )
    requires_project = True

    def check_module(self, ctx: FileContext) -> None:
        for record in _records_for(ctx, self.id):
            domains = ", ".join(record["domains"])  # type: ignore[arg-type]
            ctx.report(
                self,
                anchor(record["line"], record["col"]),
                f"unguarded write to {record['symbol']} in "
                f"{record['function']}() — the symbol is reached from "
                f"concurrency domains [{domains}] and no write ever holds a "
                "lock; guard every access with one lock",
                severity=_severity(ctx),
            )


@register
class InconsistentlyGuardedWriteRule(Rule):
    id = "CW702"
    name = "inconsistently-guarded-write"
    description = (
        "A write to shared state whose other writes are majority-guarded by "
        "one inferred lock happens at a site where that lock is not held — "
        "guarded on some paths, bare on this one."
    )
    requires_project = True

    def check_module(self, ctx: FileContext) -> None:
        for record in _records_for(ctx, self.id):
            ctx.report(
                self,
                anchor(record["line"], record["col"]),
                f"write to {record['symbol']} in {record['function']}() "
                f"without {record['guard']}, the lock inferred to guard it "
                "from its other writes — take the same lock here",
                severity=_severity(ctx),
            )
