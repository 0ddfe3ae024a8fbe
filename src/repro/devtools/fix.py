"""The crowdlint autofix engine.

A :class:`~.engine.Fix` is a tuple of exact character-span
:class:`~.engine.Edit`\\ s produced by a rule against the *original* source.
This module turns those into rewritten files, with three properties the
tests pin down:

* **Safety** — overlapping fixes are never combined in one pass.  Fixes are
  applied in source order, dropping any fix whose spans intersect an
  already-accepted one; the dropped fix's finding survives to the next pass.
  A pass whose output fails to re-parse is discarded wholesale.
* **Idempotency** — :func:`fix_source` re-lints after every pass and stops
  at a fixpoint (no fixable findings, or the source stopped changing), so
  ``fix(fix(x)) == fix(x)`` and a clean file round-trips byte-identically.
* **Reviewability** — :func:`unified_diff` renders the change as a standard
  unified diff for ``--diff`` preview without touching the file.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence, Tuple

from .engine import Finding, Fix

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import LintEngine

__all__ = ["FixResult", "apply_fixes", "fix_source", "fix_file", "unified_diff"]

#: Safety valve: a rule whose "fix" keeps producing new findings would
#: otherwise loop forever.  Real chains converge in 2-3 passes.
MAX_PASSES = 10


@dataclass(frozen=True)
class FixResult:
    """Outcome of fixing one source blob."""

    source: str          #: the rewritten source (== original when nothing applied)
    applied: int         #: number of fixes applied across all passes
    passes: int          #: lint→patch rounds executed
    remaining: Tuple[Finding, ...]  #: findings still present after the last pass

    @property
    def changed(self) -> bool:
        return self.applied > 0


def _non_overlapping(fixes: Sequence[Fix]) -> List[Fix]:
    """Greedy left-to-right selection of fixes with disjoint edit spans."""
    chosen: List[Fix] = []
    occupied: List[Tuple[int, int]] = []
    for fix in sorted(fixes, key=lambda f: (f.start, f.end)):
        spans = [(edit.start, edit.end) for edit in fix.edits]
        if any(
            start < busy_end and busy_start < end
            for start, end in spans
            for busy_start, busy_end in occupied
        ):
            continue
        # Zero-width inserts at the same offset would reorder unpredictably.
        if any(
            start == busy_start
            for start, _ in spans
            for busy_start, _ in occupied
        ):
            continue
        chosen.append(fix)
        occupied.extend(spans)
    return chosen


def apply_fixes(source: str, findings: Iterable[Finding]) -> Tuple[str, int]:
    """Apply one pass of non-overlapping fixes; returns (new source, applied).

    Edits are validated against the source length and applied from the end
    of the file backwards so earlier offsets stay stable.
    """
    fixes = [f.fix for f in findings if f.fix is not None]
    fixes = [
        fix
        for fix in fixes
        if all(0 <= e.start <= e.end <= len(source) for e in fix.edits)
    ]
    chosen = _non_overlapping(fixes)
    if not chosen:
        return source, 0
    edits = sorted(
        (edit for fix in chosen for edit in fix.edits),
        key=lambda e: (e.start, e.end),
        reverse=True,
    )
    for edit in edits:
        source = source[: edit.start] + edit.replacement + source[edit.end :]
    return source, len(chosen)


def fix_source(
    engine: "LintEngine",
    source: str,
    path: str = "<string>",
    module: str = "",
    max_passes: int = MAX_PASSES,
    seed_findings: Sequence[Finding] = (),
) -> FixResult:
    """Lint → patch → re-lint to a fixpoint.  Never returns broken syntax.

    ``seed_findings`` extends the first pass with findings the single-file
    lint cannot reproduce — project-scoped rules like CW802, whose fixes
    were computed by a whole-program run.  Their spans are only valid
    against the original source, so they never carry into later passes;
    duplicates of single-file findings are dropped by the overlap filter.
    """
    applied_total = 0
    passes = 0
    findings: Tuple[Finding, ...] = tuple(seed_findings) + tuple(
        engine.lint_source(source, path, module)
    )
    while passes < max_passes and any(f.fix for f in findings):
        candidate, applied = apply_fixes(source, findings)
        passes += 1
        if applied == 0 or candidate == source:
            break
        try:
            compile(candidate, path, "exec", dont_inherit=True)
        except SyntaxError:
            break  # a bad rewrite must not escape; keep the last good source
        source = candidate
        applied_total += applied
        findings = tuple(engine.lint_source(source, path, module))
    return FixResult(
        source=source, applied=applied_total, passes=passes, remaining=findings
    )


def fix_file(
    engine: "LintEngine",
    path: Path,
    module: str = "",
    write: bool = True,
    seed_findings: Sequence[Finding] = (),
) -> Optional[FixResult]:
    """Fix one file in place; returns ``None`` when it cannot be read."""
    try:
        original = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError):
        return None
    result = fix_source(engine, original, str(path), module, seed_findings=seed_findings)
    if write and result.changed:
        path.write_text(result.source, encoding="utf-8")
    return result


def unified_diff(original: str, fixed: str, path: str) -> str:
    """A standard unified diff of the fix, empty when nothing changed."""
    if original == fixed:
        return ""
    return "".join(
        difflib.unified_diff(
            original.splitlines(keepends=True),
            fixed.splitlines(keepends=True),
            fromfile=f"a/{path}",
            tofile=f"b/{path}",
        )
    )
