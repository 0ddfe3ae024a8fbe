"""Unit tests for the v4 thread analysis: facts, roots, domains, locksets.

The extraction level is tested straight off ``ast.parse``; the whole-program
level through :class:`ProjectAnalysis` over small on-disk trees, exactly the
way the engine builds it.
"""

from __future__ import annotations

import ast
import textwrap
from pathlib import Path
from typing import Dict

from repro.devtools.callgraph import ProjectAnalysis
from repro.devtools.engine import iter_python_files, module_name_for
from repro.devtools.threads import ThreadAnalysis, extract_thread_facts

from .conftest import write_tree


def facts_of(source: str) -> Dict[str, object]:
    return extract_thread_facts(ast.parse(textwrap.dedent(source)))


def build_project(root: Path, modules: Dict[str, str]) -> ProjectAnalysis:
    write_tree(root, modules)
    files = []
    for file_path in iter_python_files([root]):
        files.append(
            (str(file_path), file_path.read_text(), module_name_for(file_path),
             file_path.name == "__init__.py")
        )
    return ProjectAnalysis.build(files)


def analyze(root: Path, modules: Dict[str, str]) -> ThreadAnalysis:
    return build_project(root, modules).threads()


class TestExtraction:
    def test_module_inventory(self):
        facts = facts_of(
            """
            import threading

            CACHE = {}
            COUNTS = dict()
            NAME = "x"
            LOCK = threading.Lock()
            """
        )
        assert set(facts["mutable_globals"]) == {"CACHE", "COUNTS"}
        assert facts["locks"] == ["LOCK"]

    def test_handler_class_discovery_including_nested(self):
        facts = facts_of(
            """
            from http.server import BaseHTTPRequestHandler


            class Plain(BaseHTTPRequestHandler):
                def do_GET(self):
                    pass


            class Derived(Plain):
                pass


            def make_server():
                class Inner(BaseHTTPRequestHandler):
                    def do_GET(self):
                        pass
                return Inner
            """
        )
        assert facts["handler_classes"] == ["Derived", "Plain", "make_server.Inner"]
        assert facts["functions"]["make_server.Inner.do_GET"]["class"] == "make_server.Inner"

    def test_with_lock_regions_and_writes(self):
        facts = facts_of(
            """
            import threading

            LOCK = threading.Lock()
            CACHE = {}


            def guarded(key):
                with LOCK:
                    CACHE[key] = 1
                CACHE[key] = 2
            """
        )
        writes = facts["functions"]["guarded"]["writes"]
        assert [(w["sym"], w["held"]) for w in writes] == [
            ("g:CACHE", ["g:LOCK"]),
            ("g:CACHE", []),
        ]

    def test_acquire_release_toggle(self):
        facts = facts_of(
            """
            import threading

            LOCK = threading.Lock()
            CACHE = {}


            def manual(key):
                LOCK.acquire()
                CACHE[key] = 1
                LOCK.release()
                CACHE[key] = 2
            """
        )
        writes = facts["functions"]["manual"]["writes"]
        assert [w["held"] for w in writes] == [["g:LOCK"], []]

    def test_instance_locks_chase_bases(self):
        facts = facts_of(
            """
            import threading


            class Base:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = {}


            class Derived(Base):
                def put(self, key):
                    with self._lock:
                        self._items[key] = 1
            """
        )
        writes = facts["functions"]["Derived.put"]["writes"]
        assert writes == [
            {"sym": "a:Base:_items", "line": 14, "col": 12, "held": ["a:Base:_lock"]}
        ]

    def test_global_rebind_and_mutating_methods(self):
        facts = facts_of(
            """
            ITEMS = []
            CURRENT = None


            def swap(value):
                global CURRENT
                CURRENT = value
                ITEMS.append(value)
                local = []
                local.append(value)
            """
        )
        syms = [w["sym"] for w in facts["functions"]["swap"]["writes"]]
        assert syms == ["g:CURRENT", "g:ITEMS"]

    def test_spawn_records(self):
        facts = facts_of(
            """
            import threading
            from concurrent.futures import ThreadPoolExecutor

            from repro.exec import ordered_map


            def work(x):
                return x


            def fan_out(items):
                threading.Thread(target=work, daemon=True).start()
                with ThreadPoolExecutor(max_workers=2) as pool:
                    pool.submit(work, 1)
                    pool.map(work, items)
                return ordered_map(work, items)
            """
        )
        spawns = facts["functions"]["fan_out"]["spawns"]
        assert [(s["domain"], s["target"]) for s in spawns] == [
            ("thread", ["name", "work"]),
            ("thread", ["name", "work"]),
            ("thread", ["name", "work"]),
            ("pool", ["name", "work"]),
        ]


HANDLER_TREE = {
    "repro.webapp.serve": """
        from http.server import BaseHTTPRequestHandler

        HITS = {}


        class Handler(BaseHTTPRequestHandler):
            def do_GET(self):
                record(self.path)


        def record(path):
            HITS[path] = HITS.get(path, 0) + 1
        """
}


class TestAnalysis:
    def test_handler_roots_and_domains(self, tmp_path):
        analysis = analyze(tmp_path, HANDLER_TREE)
        roots = {(node[1], domain) for node, domain, _via in analysis.roots}
        assert ("Handler.do_GET", "handler") in roots
        record_node = ("repro.webapp.serve", "record")
        assert analysis.domains[record_node] == {"handler"}

    def test_shared_symbol_and_missing_guard(self, tmp_path):
        analysis = analyze(tmp_path, HANDLER_TREE)
        info = analysis.shared["repro.webapp.serve::g:HITS"]
        assert info["guard"] is None
        rules = [r["rule"] for r in analysis.records_for("repro.webapp.serve")]
        assert rules == ["CW701"]

    def test_entry_lock_fixpoint_reaches_callees(self, tmp_path):
        analysis = analyze(
            tmp_path,
            {
                "repro.webapp.locked": """
                    import threading

                    LOCK = threading.Lock()
                    CACHE = {}


                    def store(key):
                        CACHE[key] = 1


                    def worker(key):
                        with LOCK:
                            store(key)


                    def start():
                        threading.Thread(target=worker, args=(1,)).start()
                    """
            },
        )
        store_node = ("repro.webapp.locked", "store")
        assert analysis.entry_locks[store_node] == frozenset({"g:LOCK"})
        # Every write is effectively guarded: nothing to report.
        assert analysis.records_for("repro.webapp.locked") == []
        assert analysis.shared["repro.webapp.locked::g:CACHE"]["guard"] == "g:LOCK"

    def test_pool_domain_never_races(self, tmp_path):
        analysis = analyze(
            tmp_path,
            {
                "repro.webapp.pooled": """
                    from repro.exec import ordered_map

                    TOTALS = {}


                    def work(item):
                        TOTALS[item] = item
                        return item


                    def run(items):
                        return ordered_map(work, items)
                    """
            },
        )
        # Process workers have their own address space — not shared state.
        assert analysis.shared == {}
        assert analysis.records_for("repro.webapp.pooled") == []

    def test_constructor_writes_exempt(self, tmp_path):
        analysis = analyze(
            tmp_path,
            {
                "repro.webapp.ctor": """
                    import threading


                    class Store:
                        def __init__(self):
                            self.items = {}

                        def start(self):
                            threading.Thread(target=self.run).start()

                        def run(self):
                            self.items["k"] = 1
                    """
            },
        )
        shared = analysis.shared.get("repro.webapp.ctor::a:Store:items")
        assert shared is not None
        functions = [w["node"][1] for w in shared["writes"]]
        assert functions == ["Store.run"]  # __init__ happens-before the escape

    def test_dep_digest_tracks_findings(self, tmp_path):
        clean = dict(HANDLER_TREE)
        clean["repro.webapp.serve"] = clean["repro.webapp.serve"].replace(
            "HITS[path] = HITS.get(path, 0) + 1", "return HITS.get(path, 0)"
        )
        buggy = analyze(tmp_path / "a", HANDLER_TREE)
        fixed = analyze(tmp_path / "b", clean)
        assert buggy.dep_digest("repro.webapp.serve") != fixed.dep_digest(
            "repro.webapp.serve"
        )

    def test_render_lists_roots_and_shared_state(self, tmp_path):
        rendered = analyze(tmp_path, HANDLER_TREE).render()
        assert "thread roots (" in rendered
        assert "[handler] repro.webapp.serve:Handler.do_GET" in rendered
        assert "repro.webapp.serve.HITS" in rendered
        assert "guarded_by=<none>" in rendered

    def test_worker_rehydration_rebuilds_lazily(self, tmp_path):
        project = build_project(tmp_path, HANDLER_TREE)
        clone = ProjectAnalysis.from_dict(project.to_dict())
        assert clone.thread_records("repro.webapp.serve") == project.thread_records(
            "repro.webapp.serve"
        )
        assert clone.dep_key("repro.webapp.serve") == project.dep_key(
            "repro.webapp.serve"
        )
