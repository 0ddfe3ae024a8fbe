"""Whole-program call graph and the project analysis orchestrator.

``domains.extract_summary`` reduces each module to a symbolic digest; this
module stitches the digests together.  :class:`ProjectAnalysis` resolves the
symbolic callee forms across module boundaries — through imports and their
aliases, module attributes, ``functools.partial`` wrappers, ``self`` dispatch,
and methods on locally-constructed instances — and builds the thread,
exception, and lifecycle analyses on top of that resolver on demand.

Three consumers sit on top:

* the **project rules** read :meth:`ProjectAnalysis.dead_exports` (CW604:
  ``__all__`` entries no other module references or imports) and the
  per-module finding records of the CW7xx and CW8xx analyses;
* the **engine/cache** read :meth:`ProjectAnalysis.dep_key`, a digest of
  everything a module's findings can observe about the rest of the project —
  a file is re-analyzed only when its content *or* that digest changes;
* the **CLI** renders :class:`CallGraph` (``--callgraph``).

Resolution is deliberately conservative: a call that cannot be pinned to a
single definition produces no edge and no finding.
"""

from __future__ import annotations

import ast
import hashlib
import json
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .domains import extract_summary
from .exceptions import ExceptionAnalysis
from .resources import LifecycleAnalysis
from .threads import ThreadAnalysis

__all__ = ["CallGraph", "ProjectAnalysis"]

#: A function's identity across the project: (module key, qualified name).
FunctionRef = Tuple[str, str]

#: ``("func", ref)`` / ``("class", cref)`` / ``("module", name)`` — what a
#: name resolves to before call semantics (constructor vs. plain call) apply.
_Target = Tuple[str, object]


class CallGraph:
    """A directed graph over ``"module:qualname"`` nodes."""

    def __init__(self) -> None:
        self.nodes: Set[str] = set()
        self._out: Dict[str, Set[str]] = {}
        self._in: Dict[str, Set[str]] = {}

    def add_node(self, node: str) -> None:
        self.nodes.add(node)

    def add_edge(self, src: str, dst: str) -> None:
        self.nodes.add(src)
        self.nodes.add(dst)
        self._out.setdefault(src, set()).add(dst)
        self._in.setdefault(dst, set()).add(src)

    @property
    def edges(self) -> List[Tuple[str, str]]:
        return sorted(
            (src, dst) for src, dsts in self._out.items() for dst in dsts
        )

    def callees(self, node: str) -> Set[str]:
        return set(self._out.get(node, set()))

    def callers(self, node: str) -> Set[str]:
        return set(self._in.get(node, set()))

    def reachable(self, roots: Iterable[str]) -> Set[str]:
        """Every node transitively callable from ``roots`` (roots included)."""
        seen: Set[str] = set()
        frontier = [root for root in roots if root in self.nodes]
        while frontier:
            node = frontier.pop()
            if node in seen:
                continue
            seen.add(node)
            frontier.extend(self._out.get(node, ()))
        return seen

    def render(self) -> str:
        """Sorted ``caller -> callee`` lines (the ``--callgraph`` output)."""
        lines = [f"{src} -> {dst}" for src, dst in self.edges]
        isolated = sorted(
            node
            for node in self.nodes
            if node not in self._out and node not in self._in
        )
        lines.extend(f"{node} (no resolved calls)" for node in isolated)
        return "\n".join(lines)


class ProjectAnalysis:
    """Summaries + resolution for one lint invocation.

    Construct via :meth:`build` (extracts or cache-loads summaries) or
    :meth:`from_dict` (rehydrates the summaries shipped to a worker process).
    Every derived view — call graph, thread, exception, and lifecycle
    analyses — is rebuilt lazily from the summaries and :meth:`resolve`.
    """

    _MAX_CHASE = 6  # import/alias chains longer than this stay unresolved

    def __init__(self, summaries: Dict[str, Dict[str, object]]):
        self.summaries = summaries
        self.summaries_built = 0
        self.summaries_cached = 0
        self._resolve_cache: Dict[Tuple[str, str, str], Optional[Tuple[FunctionRef, bool]]] = {}
        self._dead: Dict[str, List[Dict[str, object]]] = {}
        self._dep_keys: Dict[str, str] = {}
        self._thread_analysis: Optional["ThreadAnalysis"] = None
        self._exception_analysis: Optional["ExceptionAnalysis"] = None
        self._lifecycle_analysis: Optional["LifecycleAnalysis"] = None

    # ------------------------------------------------------------ lifecycle

    @classmethod
    def build(
        cls,
        files: Iterable[Tuple[str, str, Optional[str], bool]],
        cache: Optional[object] = None,
    ) -> "ProjectAnalysis":
        """Analyze ``(path, source, module, is_init)`` tuples into a project.

        ``cache`` (a :class:`~repro.devtools.cache.LintCache`) serves
        content-addressed summaries so unchanged files never re-parse.
        """
        summaries: Dict[str, Dict[str, object]] = {}
        built = cached = 0
        for path, source, module, is_init in files:
            key = module or str(path)
            summary = None
            if cache is not None:
                summary = cache.get_summary(source, module, is_init)
            if summary is None:
                try:
                    tree = ast.parse(source)
                except (SyntaxError, ValueError):
                    continue
                summary = extract_summary(tree, module, str(path), is_init)
                built += 1
                if cache is not None:
                    cache.put_summary(source, module, is_init, summary)
            else:
                cached += 1
            summaries[key] = summary
        project = cls(summaries)
        project.summaries_built = built
        project.summaries_cached = cached
        return project

    def to_dict(self) -> Dict[str, object]:
        """A JSON-safe snapshot (the summaries) for workers."""
        return {"summaries": self.summaries}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ProjectAnalysis":
        return cls(data["summaries"])  # type: ignore[arg-type]

    # ------------------------------------------------------------ resolution

    def resolve(
        self, module_key: str, caller: str, sym: Sequence[object]
    ) -> Optional[Tuple[FunctionRef, bool]]:
        """Pin a symbolic callee to ``(ref, bound)`` or give up with ``None``.

        ``bound`` means the first positional parameter is an implicit
        ``self`` already supplied by the dispatch (method on an instance, or
        a constructor call resolving to ``__init__``).
        """
        cache_key = (module_key, caller, json.dumps(sym))
        if cache_key in self._resolve_cache:
            return self._resolve_cache[cache_key]
        self._resolve_cache[cache_key] = None  # cycles resolve to "don't know"
        resolved = self._resolve_uncached(module_key, caller, list(sym))
        self._resolve_cache[cache_key] = resolved
        return resolved

    def _resolve_uncached(
        self, module_key: str, caller: str, sym: List[object]
    ) -> Optional[Tuple[FunctionRef, bool]]:
        kind = sym[0]
        if kind == "name":
            return self._as_callable(self._lookup(module_key, sym[1]))  # type: ignore[arg-type]
        if kind == "self":
            info = self._function_info(module_key, caller)
            class_name = info.get("class") if info else None
            if not class_name:
                return None
            ref = self._method_ref((module_key, class_name), sym[1])  # type: ignore[arg-type]
            return (ref, True) if ref else None
        if kind == "attr":
            return self._resolve_attr(module_key, caller, sym[1], sym[2])  # type: ignore[arg-type]
        if kind == "dotted":
            return self._resolve_dotted(module_key, sym[1])  # type: ignore[arg-type]
        if kind == "new":
            cref = self._class_of_sym(module_key, caller, sym[1])  # type: ignore[arg-type]
            if cref is None:
                return None
            ref = self._method_ref(cref, sym[2])  # type: ignore[arg-type]
            return (ref, True) if ref else None
        return None

    def _resolve_attr(
        self, module_key: str, caller: str, root: str, method: str
    ) -> Optional[Tuple[FunctionRef, bool]]:
        # A method on a locally-constructed instance: obj = Cls(); obj.m().
        for scope in (caller, "<module>"):
            info = self._function_info(module_key, scope)
            ctor = info.get("ctors", {}).get(root) if info else None  # type: ignore[union-attr]
            if ctor is not None:
                cref = self._class_of_sym(module_key, scope, ctor)
                if cref is not None:
                    ref = self._method_ref(cref, method)
                    return (ref, True) if ref else None
                return None
        target = self._lookup(module_key, root)
        if target is None:
            return None
        if target[0] == "module":
            return self._as_callable(self._lookup(str(target[1]), method))
        if target[0] == "class":
            # Cls.m(instance, ...) — unbound access, self passed explicitly.
            ref = self._method_ref(target[1], method)  # type: ignore[arg-type]
            return (ref, False) if ref else None
        return None

    def _resolve_dotted(
        self, module_key: str, dotted: str
    ) -> Optional[Tuple[FunctionRef, bool]]:
        parts = dotted.split(".")
        target = self._lookup(module_key, parts[0])
        if target is not None and target[0] == "module":
            base, rest = str(target[1]), parts[1:]
        else:
            # An absolute dotted path (``import a.b`` then ``a.b.c.f()``).
            base, rest = "", []
            for cut in range(len(parts) - 1, 0, -1):
                prefix = ".".join(parts[:cut])
                if prefix in self.summaries:
                    base, rest = prefix, parts[cut:]
                    break
            if not base:
                return None
        while len(rest) > 1:
            submodule = f"{base}.{rest[0]}"
            if submodule in self.summaries:
                base, rest = submodule, rest[1:]
                continue
            inner = self._lookup(base, rest[0])
            if inner is not None and inner[0] == "class" and len(rest) == 2:
                ref = self._method_ref(inner[1], rest[1])  # type: ignore[arg-type]
                return (ref, False) if ref else None
            return None
        if not rest:
            return None
        return self._as_callable(self._lookup(base, rest[0]))

    def _lookup(
        self, module_key: str, name: str, depth: int = _MAX_CHASE
    ) -> Optional[_Target]:
        """What ``name`` denotes inside ``module_key``, chasing re-exports."""
        summary = self.summaries.get(module_key)
        if summary is None or depth <= 0:
            return None
        functions: Dict[str, object] = summary["functions"]  # type: ignore[assignment]
        if name != "<module>" and name in functions:
            return ("func", (module_key, name))
        if name in summary["classes"]:  # type: ignore[operator]
            return ("class", (module_key, name))
        alias = summary["aliases"].get(name)  # type: ignore[union-attr]
        if alias:
            return self._lookup(module_key, alias, depth - 1)
        imported = summary["imports"].get(name)  # type: ignore[union-attr]
        if imported is None:
            return None
        if imported[0] == "module":
            return ("module", imported[1])
        _, target_module, original = imported
        if target_module in self.summaries:
            resolved = self._lookup(str(target_module), str(original), depth - 1)
            if resolved is not None:
                return resolved
        submodule = f"{target_module}.{original}"
        if submodule in self.summaries or any(
            key.startswith(submodule + ".") for key in self.summaries
        ):
            return ("module", submodule)
        return None

    def _as_callable(
        self, target: Optional[_Target]
    ) -> Optional[Tuple[FunctionRef, bool]]:
        if target is None:
            return None
        if target[0] == "func":
            return (target[1], False)  # type: ignore[return-value]
        if target[0] == "class":
            ref = self._method_ref(target[1], "__init__")  # type: ignore[arg-type]
            return (ref, True) if ref else None
        return None

    def _class_of_sym(
        self, module_key: str, caller: str, sym: Sequence[object]
    ) -> Optional[Tuple[str, str]]:
        kind = sym[0]
        target: Optional[_Target] = None
        if kind == "name":
            target = self._lookup(module_key, str(sym[1]))
        elif kind == "attr":
            root = self._lookup(module_key, str(sym[1]))
            if root is not None and root[0] == "module":
                target = self._lookup(str(root[1]), str(sym[2]))
        elif kind == "dotted":
            parts = str(sym[1]).rsplit(".", 1)
            if len(parts) == 2:
                root = self._lookup(module_key, parts[0])
                if root is not None and root[0] == "module":
                    target = self._lookup(str(root[1]), parts[1])
        if target is not None and target[0] == "class":
            return target[1]  # type: ignore[return-value]
        return None

    def _method_ref(
        self, cref: Tuple[str, str], method: str, depth: int = _MAX_CHASE
    ) -> Optional[FunctionRef]:
        """The defining ``(module, "Cls.method")`` ref, walking base classes."""
        if depth <= 0:
            return None
        module_key, class_name = cref
        summary = self.summaries.get(module_key)
        if summary is None:
            return None
        info = summary["classes"].get(class_name)  # type: ignore[union-attr]
        if info is None:
            return None
        if method in info["methods"]:
            return (module_key, f"{class_name}.{method}")
        for base_sym in info["bases"]:
            base_cref = self._class_of_sym(module_key, "<module>", base_sym)
            if base_cref is not None:
                found = self._method_ref(base_cref, method, depth - 1)
                if found is not None:
                    return found
        return None

    def _function_info(
        self, module_key: str, qualname: str
    ) -> Optional[Dict[str, object]]:
        summary = self.summaries.get(module_key)
        if summary is None:
            return None
        return summary["functions"].get(qualname)  # type: ignore[union-attr]

    # ------------------------------------------------------------ call graph

    def call_graph(self) -> CallGraph:
        graph = CallGraph()
        for module_key in sorted(self.summaries):
            for qualname in self.summaries[module_key]["functions"]:  # type: ignore[union-attr]
                graph.add_node(f"{module_key}:{qualname}")
        for module_key in sorted(self.summaries):
            for call in self.summaries[module_key]["calls"]:  # type: ignore[union-attr]
                resolved = self.resolve(module_key, call["caller"], call["callee"])
                if resolved is not None:
                    ref = resolved[0]
                    graph.add_edge(f"{module_key}:{call['caller']}", f"{ref[0]}:{ref[1]}")
        return graph

    # ------------------------------------------------------------ rule feeds

    def dead_exports(self, module_key: str) -> List[Dict[str, object]]:
        """``__all__`` entries of a module no other module references.

        Conservative: ``__init__.py`` re-export surfaces and ``_``-prefixed
        names are exempt, and any textual reference (call, attribute, or
        import) from another module keeps a symbol alive.
        """
        if module_key in self._dead:
            return self._dead[module_key]
        summary = self.summaries.get(module_key, {})
        exports = summary.get("exports")
        records: List[Dict[str, object]] = []
        if exports and not summary.get("is_init"):
            for name in exports:
                if name.startswith("_"):
                    continue
                if self._referenced_elsewhere(module_key, name):
                    continue
                info = summary["functions"].get(name) or summary["classes"].get(name)  # type: ignore[union-attr]
                records.append({"name": name, "line": info["line"] if info else 1})
        self._dead[module_key] = records
        return records

    def _referenced_elsewhere(self, module_key: str, name: str) -> bool:
        for other_key, other in self.summaries.items():
            if other_key == module_key:
                continue
            if name in other["refs"]:  # type: ignore[operator]
                return True
            for imported in other["imports"].values():  # type: ignore[union-attr]
                if (
                    imported[0] == "symbol"
                    and imported[1] == module_key
                    and imported[2] == name
                ):
                    return True
        return False

    # ------------------------------------------------------------ cache keys

    def dep_key(self, module_key: str) -> str:
        """Digest of everything outside a module its findings depend on.

        Every project rule reads only the records anchored in its own module
        — which of its exports the rest of the project references, and its
        thread, exception, and lifecycle findings — so the digest of those
        records is the whole dependency.  Unchanged digest + unchanged
        content ⇒ cached findings stay valid.
        """
        if module_key in self._dep_keys:
            return self._dep_keys[module_key]
        payload = {
            "dead": sorted(record["name"] for record in self.dead_exports(module_key)),  # type: ignore[misc]
            "threads": self.threads().dep_digest(module_key),
            "exceptions": self.exceptions().dep_digest(module_key),
            "lifecycle": self.lifecycle().dep_digest(module_key),
        }
        digest = hashlib.sha256(
            json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
        ).hexdigest()
        self._dep_keys[module_key] = digest
        return digest

    # ------------------------------------------------------------ threads

    def threads(self) -> ThreadAnalysis:
        """The race-detection view (roots, domains, locksets), built lazily.

        Derived entirely from the summaries plus :meth:`resolve`, so worker
        projects rehydrated via :meth:`from_dict` rebuild it on demand.
        """
        if self._thread_analysis is None:
            self._thread_analysis = ThreadAnalysis(self.summaries, self.resolve)
        return self._thread_analysis

    def thread_records(self, module_key: str) -> List[Dict[str, object]]:
        """CW7xx finding records anchored in ``module_key``."""
        return self.threads().records_for(module_key)

    # ------------------------------------------------------------ exceptions

    def exceptions(self) -> ExceptionAnalysis:
        """The interprocedural may-raise view, built lazily like threads()."""
        if self._exception_analysis is None:
            self._exception_analysis = ExceptionAnalysis(self.summaries, self.resolve)
        return self._exception_analysis

    def exception_records(self, module_key: str) -> List[Dict[str, object]]:
        """CW803 finding records anchored in ``module_key``."""
        return self.exceptions().records_for(module_key)

    # ------------------------------------------------------------ lifecycle

    def lifecycle(self) -> LifecycleAnalysis:
        """Resource-lifetime view, built lazily."""
        if self._lifecycle_analysis is None:
            self._lifecycle_analysis = LifecycleAnalysis(self.summaries, self.exceptions())
        return self._lifecycle_analysis

    def lifecycle_records(self, module_key: str) -> List[Dict[str, object]]:
        """CW801/802/804 finding records anchored in ``module_key``."""
        return self.lifecycle().records_for(module_key)
