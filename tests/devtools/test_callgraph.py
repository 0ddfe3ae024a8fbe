"""Cross-module call resolution, the call graph, and project-level feeds."""

from __future__ import annotations

import ast
import textwrap
from typing import Dict

from repro.devtools.callgraph import CallGraph, ProjectAnalysis
from repro.devtools.domains import extract_summary


def project_of(modules: Dict[str, str]) -> ProjectAnalysis:
    files = [
        (f"/x/{key.replace('.', '/')}.py", textwrap.dedent(source), key, False)
        for key, source in modules.items()
    ]
    return ProjectAnalysis.build(files)


class TestResolution:
    def test_direct_import(self):
        project = project_of(
            {
                "repro.a": "from repro.b import store\ndef f():\n    store()\n",
                "repro.b": "def store():\n    pass\n",
            }
        )
        assert project.resolve("repro.a", "f", ["name", "store"]) == (
            ("repro.b", "store"),
            False,
        )

    def test_import_alias_and_reexport_chain(self):
        project = project_of(
            {
                "repro.a": "from repro.hub import store as put\ndef f():\n    put()\n",
                "repro.hub": "from repro.b import store\n",
                "repro.b": "def store():\n    pass\n",
            }
        )
        assert project.resolve("repro.a", "f", ["name", "put"]) == (
            ("repro.b", "store"),
            False,
        )

    def test_module_attribute_call(self):
        project = project_of(
            {
                "repro.a": "from repro import b\ndef f():\n    b.store()\n",
                "repro": "",
                "repro.b": "def store():\n    pass\n",
            }
        )
        assert project.resolve("repro.a", "f", ["attr", "b", "store"]) == (
            ("repro.b", "store"),
            False,
        )

    def test_dotted_absolute_call(self):
        project = project_of(
            {
                "repro.a": "import repro.b\ndef f():\n    repro.b.store()\n",
                "repro.b": "def store():\n    pass\n",
            }
        )
        assert project.resolve("repro.a", "f", ["dotted", "repro.b.store"]) == (
            ("repro.b", "store"),
            False,
        )

    def test_constructor_resolves_to_init_bound(self):
        project = project_of(
            {
                "repro.a": (
                    "from repro.b import Point\ndef f():\n    Point(1, 2)\n"
                ),
                "repro.b": (
                    "class Point:\n    def __init__(self, lat, lon):\n"
                    "        self.lat = lat\n"
                ),
            }
        )
        assert project.resolve("repro.a", "f", ["name", "Point"]) == (
            ("repro.b", "Point.__init__"),
            True,
        )

    def test_method_on_local_instance(self):
        project = project_of(
            {
                "repro.a": textwrap.dedent(
                    """
                    from repro.b import Agg

                    def f():
                        agg = Agg()
                        agg.add(1)
                    """
                ),
                "repro.b": textwrap.dedent(
                    """
                    class Agg:
                        def __init__(self):
                            pass

                        def add(self, item_id):
                            pass
                    """
                ),
            }
        )
        assert project.resolve("repro.a", "f", ["attr", "agg", "add"]) == (
            ("repro.b", "Agg.add"),
            True,
        )

    def test_self_dispatch_and_inherited_method(self):
        project = project_of(
            {
                "repro.b": textwrap.dedent(
                    """
                    class Base:
                        def flush(self):
                            pass

                    class Agg(Base):
                        def add(self):
                            self.flush()
                    """
                ),
            }
        )
        assert project.resolve("repro.b", "Agg.add", ["self", "flush"]) == (
            ("repro.b", "Base.flush"),
            True,
        )

    def test_unknown_callee_stays_unresolved(self):
        project = project_of({"repro.a": "def f():\n    mystery()\n"})
        assert project.resolve("repro.a", "f", ["name", "mystery"]) is None

    def test_partial_call_resolves_to_the_wrapped_callee(self):
        project = project_of(
            {
                "repro.a": textwrap.dedent(
                    """
                    from functools import partial
                    from repro.b import store

                    def f(user_id):
                        task = partial(store, 0)
                        task(user_id)
                    """
                ),
                "repro.b": "def store(flag, microcell_id):\n    pass\n",
            }
        )
        assert ("repro.a:f", "repro.b:store") in project.call_graph().edges


class TestCallGraph:
    def test_edges_and_reachability(self):
        project = project_of(
            {
                "repro.a": "from repro.b import relay\ndef top():\n    relay()\n",
                "repro.b": (
                    "from repro.c import leaf\ndef relay():\n    leaf()\n"
                ),
                "repro.c": "def leaf():\n    pass\n\ndef orphan():\n    pass\n",
            }
        )
        graph = project.call_graph()
        assert isinstance(graph, CallGraph)
        assert ("repro.a:top", "repro.b:relay") in graph.edges
        assert graph.callers("repro.c:leaf") == {"repro.b:relay"}
        reachable = graph.reachable({"repro.a:top"})
        assert "repro.c:leaf" in reachable
        assert "repro.c:orphan" not in reachable

    def test_render(self):
        project = project_of(
            {
                "repro.a": "from repro.b import f\ndef g():\n    f()\n",
                "repro.b": "def f():\n    pass\n",
            }
        )
        graph = project.call_graph()
        assert "repro.a:g -> repro.b:f" in graph.render()


class TestDeadExports:
    def test_unreferenced_export_is_dead(self):
        project = project_of(
            {
                "repro.a": (
                    "__all__ = [\"used\", \"unused\"]\n\n"
                    "def used():\n    pass\n\n\ndef unused():\n    pass\n"
                ),
                "repro.b": "from repro.a import used\ndef f():\n    used()\n",
            }
        )
        (dead,) = project.dead_exports("repro.a")
        assert dead["name"] == "unused"

    def test_attribute_reference_keeps_export_alive(self):
        project = project_of(
            {
                "repro.a": "__all__ = [\"used\"]\n\ndef used():\n    pass\n",
                "repro.b": "from repro import a\ndef f():\n    a.used()\n",
            }
        )
        assert project.dead_exports("repro.a") == []


class TestDepKeys:
    MODULES = {
        "repro.a": "__all__ = [\"store\"]\n\ndef store():\n    pass\n",
        "repro.b": "def caller():\n    pass\n",
        "repro.c": "def unrelated():\n    pass\n",
    }

    def test_stable_across_identical_builds(self):
        first = project_of(self.MODULES)
        second = project_of(dict(self.MODULES))
        for key in self.MODULES:
            assert first.dep_key(key) == second.dep_key(key)

    def test_new_reference_invalidates_the_exporter_only(self):
        # b starts using a's export: a's CW604 verdict flips, c's does not.
        before = project_of(self.MODULES)
        changed = dict(self.MODULES)
        changed["repro.b"] = "from repro.a import store\ndef caller():\n    store()\n"
        after = project_of(changed)
        assert before.dep_key("repro.a") != after.dep_key("repro.a")
        assert before.dep_key("repro.c") == after.dep_key("repro.c")


class TestSerialization:
    def test_round_trip_preserves_resolution(self):
        project = project_of(
            {
                "repro.a": (
                    "from repro.b import store\n"
                    "def relay(value):\n    store(value)\n"
                ),
                "repro.b": "def store(microcell_id):\n    pass\n",
            }
        )
        clone = ProjectAnalysis.from_dict(project.to_dict())
        assert clone.resolve("repro.a", "relay", ["name", "store"]) == (
            ("repro.b", "store"),
            False,
        )
        assert clone.dep_key("repro.a") == project.dep_key("repro.a")


class TestSummaryCache:
    def test_build_uses_cached_summaries(self):
        class FakeCache:
            def __init__(self):
                self.store = {}
                self.gets = 0

            def get_summary(self, source, module, is_init):
                self.gets += 1
                return self.store.get((source, module, is_init))

            def put_summary(self, source, module, is_init, summary):
                self.store[(source, module, is_init)] = summary

        cache = FakeCache()
        files = [("/x/a.py", "def f():\n    pass\n", "repro.a", False)]
        first = ProjectAnalysis.build(files, cache=cache)
        assert (first.summaries_built, first.summaries_cached) == (1, 0)
        second = ProjectAnalysis.build(files, cache=cache)
        assert (second.summaries_built, second.summaries_cached) == (0, 1)
        assert second.summaries["repro.a"]["functions"].keys() == {"<module>", "f"}


def test_extract_summary_matches_build_keying():
    source = "def f():\n    pass\n"
    summary = extract_summary(ast.parse(source), "repro.a", "/x/a.py", False)
    project = ProjectAnalysis({"repro.a": summary})
    assert project.resolve("repro.a", "<module>", ["name", "f"]) == (
        ("repro.a", "f"),
        False,
    )
