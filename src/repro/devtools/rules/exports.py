"""CW105 ``__all__`` export drift and CW604 dead exports.

CW105 checks one file.  Two directions of drift, both real failure modes
for a package this size:

* a name listed in ``__all__`` that is not bound at module top level breaks
  ``from package import *`` and lies to readers about the public surface;
* a public function/class defined in the module (or, for ``__init__.py``,
  imported into it) but missing from ``__all__`` silently drops it from the
  star-import surface and from the documented API.

Modules without ``__all__`` are skipped — the rule enforces consistency where
the author opted into an explicit export list, it does not mandate one.

CW604 is the whole-program half: an ``__all__`` entry that no other module
references, imports, or calls is dead public surface.  It reads
:meth:`~repro.devtools.callgraph.ProjectAnalysis.dead_exports`;
``__init__.py`` re-export hubs and ``_``-prefixed names are exempt.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Set, Tuple

from ..engine import FileContext, Rule, register
from .common import anchor


def _all_names(tree: ast.Module) -> Optional[Tuple[ast.AST, List[str]]]:
    """The ``__all__`` assignment node and its string entries, if present."""
    for stmt in tree.body:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        elif isinstance(stmt, ast.AugAssign):
            targets, value = [stmt.target], stmt.value
        if not any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            continue
        if not isinstance(value, (ast.List, ast.Tuple)):
            return None
        names = []
        for element in value.elts:
            if isinstance(element, ast.Constant) and isinstance(element.value, str):
                names.append(element.value)
            else:
                return None  # dynamic __all__: out of scope
        return stmt, names
    return None


def _top_level_bindings(tree: ast.Module) -> Tuple[Set[str], Set[str], Set[str]]:
    """(defs_and_classes, imported, other_assigned) names bound at top level."""
    defs: Set[str] = set()
    imported: Set[str] = set()
    assigned: Set[str] = set()
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defs.add(stmt.name)
        elif isinstance(stmt, ast.ImportFrom):
            for alias in stmt.names:
                if alias.name != "*":
                    imported.add(alias.asname or alias.name)
        elif isinstance(stmt, ast.Import):
            for alias in stmt.names:
                imported.add(alias.asname or alias.name.split(".", 1)[0])
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                for name_node in ast.walk(target):
                    if isinstance(name_node, ast.Name):
                        assigned.add(name_node.id)
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            assigned.add(stmt.target.id)
        elif isinstance(stmt, (ast.If, ast.Try)):
            # names bound conditionally (TYPE_CHECKING guards, optional deps)
            # still count as bound for the "unknown name" direction
            for sub in ast.walk(stmt):
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    defs.add(sub.name)
                elif isinstance(sub, ast.ImportFrom):
                    for alias in sub.names:
                        if alias.name != "*":
                            imported.add(alias.asname or alias.name)
                elif isinstance(sub, ast.Import):
                    for alias in sub.names:
                        imported.add(alias.asname or alias.name.split(".", 1)[0])
    return defs, imported, assigned


@register
class ExportDriftRule(Rule):
    id = "CW105"
    name = "export-drift"
    description = (
        "__all__ disagrees with the names actually defined (unknown entries, "
        "or public definitions missing from the export list)."
    )

    def check_module(self, ctx: FileContext) -> None:
        found = _all_names(ctx.tree)
        if found is None:
            return
        all_node, exported = found
        defs, imported, assigned = _top_level_bindings(ctx.tree)
        bound = defs | imported | assigned

        for name in exported:
            if name not in bound:
                ctx.report(
                    self,
                    all_node,
                    f"__all__ lists {name!r} but the module never binds it",
                )

        # Missing-from-__all__: definitions in a regular module; imported
        # names too when the module is a package __init__ (its whole point
        # is re-export).  Underscore names are private by convention.
        candidates = set(defs)
        if ctx.is_init:
            candidates |= imported
        for name in sorted(candidates):
            if name.startswith("_") or name in exported:
                continue
            ctx.report(
                self,
                all_node,
                f"public name {name!r} is defined but missing from __all__",
            )


@register
class DeadExportRule(Rule):
    id = "CW604"
    name = "dead-export"
    description = (
        "An __all__ entry no other module references, imports, or calls: "
        "dead public surface the call graph proves unreachable from outside."
    )
    requires_project = True

    def check_module(self, ctx: FileContext) -> None:
        if ctx.project is None:
            return
        for record in ctx.project.dead_exports(ctx.module_key):
            ctx.report(
                self,
                anchor(record["line"], 0),
                f"{record['name']!r} is exported in __all__ but nothing else "
                "in the project references it; drop the export or the symbol",
            )
