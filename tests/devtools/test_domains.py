"""The per-file seed helpers and module-summary extraction."""

from __future__ import annotations

import ast
import textwrap

import pytest

from repro.devtools.domains import axis_of, extract_summary, unit_of


def summarize(source: str, module: str = "repro.mod"):
    tree = ast.parse(textwrap.dedent(source))
    return extract_summary(tree, module, f"{module.replace('.', '/')}.py", False)


class TestSeedClassifiers:
    @pytest.mark.parametrize(
        "name, axis",
        [
            ("lat", "lat"),
            ("min_lon", "lon"),
            ("start_latitude", "lat"),
            ("lng", "lon"),
            ("lat1", "lat"),
            ("velocity", None),
            ("lat_lon_pair", None),  # mentions both axes: refuse to guess
        ],
    )
    def test_axis_of(self, name, axis):
        assert axis_of(name) == axis

    @pytest.mark.parametrize(
        "name, unit",
        [
            ("dist_m", "meters"),
            ("EARTH_RADIUS_M", "meters"),
            ("bearing_deg", "degrees"),
            ("dt_s", "seconds"),
            ("window_ms", "milliseconds"),
            ("radius_km", "kilometers"),
            ("distance", None),
            ("m", None),  # bare suffix with no stem says nothing
        ],
    )
    def test_unit_of(self, name, unit):
        assert unit_of(name) == unit


class TestSummaryExtraction:
    def test_partial_calls_unwrap_to_the_wrapped_callee(self):
        summary = summarize(
            """
            from functools import partial

            def run(items):
                task = partial(store, 1, 2)
                task(items)
            """
        )
        (call,) = [c for c in summary["calls"] if c["caller"] == "run"]
        assert call == {"caller": "run", "callee": ["name", "store"]}

    def test_method_and_constructor_syms(self):
        summary = summarize(
            """
            class Agg:
                def add(self, item_id):
                    self.flush(item_id)

            def use():
                agg = Agg()
                agg.add(7)
                Agg().add(8)
            """
        )
        callees = {tuple(map(str, c["callee"])) for c in summary["calls"]}
        assert ("self", "flush") in callees
        assert ("attr", "agg", "add") in callees
        assert any(c[0] == "new" for c in (call["callee"] for call in summary["calls"]))
        assert summary["functions"]["use"]["ctors"]["agg"] == ["name", "Agg"]

    def test_rebound_locals_are_never_chased(self):
        summary = summarize(
            """
            def f():
                g = first
                g = second
                g()
            """
        )
        (call,) = summary["calls"]
        assert call["callee"] == ["name", "g"]

    def test_exports_and_imports(self):
        summary = summarize(
            """
            from repro.geo import haversine_m as hav
            import repro.mining

            __all__ = ["lookup"]

            def lookup():
                return hav()
            """
        )
        assert summary["exports"] == ["lookup"]
        assert summary["imports"]["hav"] == ["symbol", "repro.geo", "haversine_m"]
        assert summary["imports"]["repro"] == ["module", "repro"]

