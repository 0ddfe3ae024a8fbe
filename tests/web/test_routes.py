"""Properties of the route table, driven by the table itself.

Requests are generated from every GET route's template: typed segments get
valid, out-of-range and junk values, and the query gets declared, unknown
and repeated parameters.  Whatever arrives, the app answers without
raising or a 5xx, every 200 ``/api/*`` body is strict JSON, and it renders
no more often than there are distinct canonical keys.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import observed
from repro.web import CrowdWebApp
from repro.web.routes import ROUTES, Route, resolve

GET_ROUTES = [route for route in ROUTES if route.method == "GET"]

#: Parameter text that parses: in range, or an alias of an in-range value.
VALID = ["0", "1", "2", "3", "9", "09", "23", "4", "4.0", "0.05", "0.5", "1e-3", "-0.0",
         "%39"]
#: Parameter text that must be rejected: out of range, non-finite, malformed.
JUNK = ["24", "-1", "-5", "1000000", "nan", "inf", "-inf", "1e400", "", "a", " 9", "9_0",
        "0x10"]
JUNK_NAMES = ["x", "zoom", "window", "z", "min_similarity", "utm_source"]


def _strict_json(text: str):
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


@st.composite
def requests(draw, user_ids):
    """One (method, path) from a GET route's template, with junk mixed in."""
    values = st.one_of(st.sampled_from(VALID), st.sampled_from(JUNK))
    route = draw(st.sampled_from(GET_ROUTES))
    segments = list(route.literals)
    for _name in route.path_params:
        segments.append(draw(st.one_of(values, st.sampled_from(user_ids + ["ghost"]))))
    if draw(st.integers(0, 5)) == 5:
        segments.append(draw(st.sampled_from(["x", "0"])))
    names = draw(st.lists(st.sampled_from(list(route.query) * 3 + JUNK_NAMES), max_size=2))
    query = "&".join(f"{name}={draw(values)}" for name in names)
    method = draw(st.sampled_from(["GET", "GET", "GET", "POST"]))
    return method, "/" + "/".join(segments) + ("?" + query if query else "")


@pytest.fixture(scope="module")
def user_ids(pipeline_result):
    return sorted(pipeline_result.profiles)[:2]


def test_generated_requests_never_fail_the_server(pipeline_result, user_ids):
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.lists(requests(user_ids), min_size=1, max_size=6))
    def check(batch):
        app = CrowdWebApp(pipeline_result)
        keys = set()
        with observed() as o:
            for method, path in batch:
                status, _headers, body = app.handle(method, path, None)
                assert status < 500, (method, path, body)
                if status == 200 and path.startswith("/api/"):
                    _strict_json(body.decode("utf-8"))
                request = resolve(app, method, path)
                if request.status == 200 and request.route.cached:
                    keys.add(request.key)
            assert o.registry.counter("repro_web_renders_total") <= len(keys)

    check()


def test_unknown_parameters_do_not_pollute_the_cache(pipeline_result):
    app = CrowdWebApp(pipeline_result)
    with observed() as o:
        statuses = {app.handle("GET", f"/api/stats?x={n}", None)[0] for n in range(300)}
        assert statuses == {400}
        assert o.registry.counter("repro_web_renders_total") == 0
    assert len(app.cache) == 0


def test_aliases_share_one_canonical_entry(pipeline_result):
    aliases = [
        "/api/crowd/09", "/api/crowd/9",
        "/city", "/city?window=9", "/city?window=9&zoom=2", "/city?zoom=2&window=09",
        "/api/spikes?z=4", "/api/spikes?z=4.0", "/api/spikes", "/api/spikes?z=4e0",
    ]
    app = CrowdWebApp(pipeline_result)
    with observed() as o:
        for path in aliases:
            assert app.handle("GET", path, None)[0] == 200
        assert o.registry.counter("repro_web_renders_total") == 3
    assert len(app.cache) == 3


def test_labels_and_methods_come_from_the_table(pipeline_result):
    app = CrowdWebApp(pipeline_result)
    assert {route.label for route in ROUTES} >= {
        "/", "/api/user/:id", "/api/crowd/:id", "/user/:id", "/api/tiles/:id", "/metrics",
    }
    for route in ROUTES:
        other = "POST" if route.method == "GET" else "GET"
        request = resolve(app, other, route.template)
        assert (request.status, request.label) == (405, route.label)


def test_typed_segments_must_follow_the_literal_ones():
    # The table is indexed by (segment count, literal prefix).
    with pytest.raises(ValueError):
        Route("/api/{window}/flows", "api.flows")
