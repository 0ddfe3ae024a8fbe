"""Shared AST helpers for the crowdlint rules (identifier/unit parsing).

The identifier-classification tables (axis words, unit suffixes) live in
:mod:`repro.devtools.domains` next to the module summaries, so there is
exactly one copy.  This module re-exports the classifiers alongside the
small AST conveniences the rule packs share.
"""

from __future__ import annotations

import ast
from typing import Optional

from ..domains import axis_of, unit_of  # noqa: F401  (re-exported)

__all__ = ["anchor", "identifier_of", "callee_name", "axis_of", "unit_of"]


def identifier_of(node: ast.AST) -> Optional[str]:
    """The trailing identifier of a name-like expression.

    ``lat`` → ``"lat"``; ``point.lon`` → ``"lon"``; anything else → ``None``.
    """
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def callee_name(node: ast.Call) -> Optional[str]:
    """The simple name a call dispatches to (``f(...)`` or ``mod.f(...)``)."""
    return identifier_of(node.func)


def anchor(line: int, col: int) -> ast.AST:
    """A location-only node, so project rules can report a record's site.

    Pragma suppression keys on the reported line, so it works on these
    findings exactly as on node-anchored ones.
    """
    node = ast.Pass()
    node.lineno = line
    node.col_offset = col
    return node
