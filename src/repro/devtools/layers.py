"""The declared import-layer map for the ``repro`` package.

The codebase is a DAG of packages; each entry below lists the *only*
``repro``-internal layers that package is allowed to import from.  The
import-layering rule (CW108) enforces this mechanically so that, e.g., a
convenience import of ``repro.web`` from ``repro.mining`` cannot silently
invert the architecture.

Reading the map bottom-up:

* ``geo``, ``taxonomy`` and ``obs`` (the observability substrate) are
  foundations — they import nothing internal; ``exec`` (the process-pool
  execution layer) sits just above, importing only ``obs``.
* ``data`` → ``sequences`` → ``mining`` is the record/sequence/pattern spine.
* ``crowd`` (the paper's §5 synchronization layer) sits on patterns and
  sequences but must never reach up into ``viz``/``web``.
* ``web`` and ``cli`` are leaves: nothing imports them except ``cli`` → ``web``
  (the CLI embeds the ``serve`` entry point) and ``bench`` → ``web`` (the
  serving load-test harness drives the server over real sockets).
  ``repro.web.cache`` and ``repro.web.tiles`` (the serving layer's response
  cache and tile/LOD index) live inside ``web`` and follow its rules.
* ``devtools`` (this subsystem) is intentionally isolated: it imports nothing
  from the rest of ``repro`` and nothing imports it.

Top-level modules (``repro.pipeline``, ``repro.persistence``) are treated as
single-module layers.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional

__all__ = ["DEVTOOLS_MODULES", "LAYER_MAP", "layer_of", "resolve_import"]

ROOT_PACKAGE = "repro"

#: Every module of the devtools subsystem itself.  The registry exists so
#: that docscheck (and the tests) can verify no module is added to the
#: package without being declared here — the cache fingerprint, the docs
#: catalog, and the layer isolation check all walk this list.
DEVTOOLS_MODULES: FrozenSet[str] = frozenset(
    {
        "cache",
        "callgraph",
        "cli",
        "docscheck",
        "domains",
        "engine",
        "exceptions",
        "fix",
        "flow",
        "layers",
        "lint",
        "rules",
        "rules.common",
        "rules.concurrency",
        "rules.coordinates",
        "rules.datetimes",
        "rules.determinism",
        "rules.exceptions",
        "rules.exports",
        "rules.imports",
        "rules.lifecycle",
        "rules.mutable_defaults",
        "rules.observability",
        "rules.perf",
        "rules.threadsafety",
        "rules.units",
        "resources",
        "threads",
    }
)

LAYER_MAP: Dict[str, FrozenSet[str]] = {
    # foundations
    "geo": frozenset(),
    "obs": frozenset(),
    "taxonomy": frozenset(),
    "exec": frozenset({"obs"}),
    # data spine
    "data": frozenset({"geo", "obs", "taxonomy"}),
    "sequences": frozenset({"data", "geo", "taxonomy"}),
    "mining": frozenset({"obs", "sequences", "taxonomy"}),
    # analytics over the spine
    "analysis": frozenset({"data", "geo"}),
    "patterns": frozenset({"data", "exec", "mining", "obs", "sequences", "taxonomy"}),
    "prediction": frozenset({"geo", "mining", "sequences"}),
    "crowd": frozenset(
        {"data", "exec", "geo", "obs", "patterns", "sequences", "taxonomy"}
    ),
    # presentation
    "viz": frozenset({"crowd", "data", "geo", "sequences"}),
    # top-level orchestration modules
    "pipeline": frozenset(
        {
            "crowd",
            "data",
            "exec",
            "geo",
            "mining",
            "obs",
            "patterns",
            "sequences",
            "taxonomy",
        }
    ),
    # perf-regression harness: times the spine end to end, and (for the
    # serving load test) the web layer it drives over real sockets
    "bench": frozenset(
        {
            "data",
            "exec",
            "experiments",
            "mining",
            "obs",
            "patterns",
            "pipeline",
            "sequences",
            "taxonomy",
            "web",
        }
    ),
    "persistence": frozenset({"mining", "patterns", "sequences", "taxonomy"}),
    # harnesses
    "experiments": frozenset(
        {
            "crowd",
            "data",
            "geo",
            "mining",
            "patterns",
            "pipeline",
            "prediction",
            "sequences",
            "taxonomy",
            "viz",
        }
    ),
    # leaves
    "web": frozenset(
        {
            "analysis",
            "crowd",
            "data",
            "exec",
            "experiments",
            "geo",
            "obs",
            "patterns",
            "persistence",
            "pipeline",
            "sequences",
            "taxonomy",
            "viz",
        }
    ),
    "cli": frozenset(
        {
            "analysis",
            "crowd",
            "data",
            "exec",
            "experiments",
            "mining",
            "obs",
            "patterns",
            "pipeline",
            "sequences",
            "taxonomy",
            "web",
        }
    ),
    # static analysis: fully isolated
    "devtools": frozenset(),
}


def layer_of(module: Optional[str]) -> Optional[str]:
    """The layer a dotted module belongs to, or ``None`` for external modules.

    ``repro.crowd.sync`` → ``crowd``; ``repro.pipeline`` → ``pipeline``;
    ``repro`` itself and non-``repro`` modules → ``None``.
    """
    if not module:
        return None
    parts = module.split(".")
    if parts[0] != ROOT_PACKAGE or len(parts) < 2:
        return None
    return parts[1]


def resolve_import(
    current_module: Optional[str],
    node_module: Optional[str],
    level: int,
    is_init: bool,
) -> Optional[str]:
    """Resolve an ``import``/``from ... import`` target to an absolute module.

    ``level`` is the relative-import level from :class:`ast.ImportFrom`
    (0 for absolute imports).  Returns ``None`` when the target cannot be
    resolved (relative import from an unknown module, or a relative level
    that escapes the package root).
    """
    if level == 0:
        return node_module
    if not current_module:
        return None
    # For ``from . import x`` inside a package __init__, the package itself is
    # the base; inside a plain module the containing package is.
    parts = current_module.split(".")
    if not is_init:
        parts = parts[:-1]
    drop = level - 1
    if drop > len(parts):
        return None
    base = parts[: len(parts) - drop]
    if node_module:
        return ".".join(base + [node_module]) if base else node_module
    return ".".join(base) or None
