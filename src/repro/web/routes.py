"""The route table: every HTTP route of the platform, declared once.

Each :class:`Route` in :data:`ROUTES` declares its method, a path template
with typed segments, typed query parameters with defaults, whether it is
cached, and the ``CrowdWebAPI``/``Pages`` method (an attribute path looked
up on the :class:`~repro.web.server.CrowdWebApp` per request) rendering it.

:func:`resolve` is the one step every request goes through: it yields the
renderer's arguments, the endpoint label and the canonical cache key (the
path re-printed from the parsed values, defaults filled in), or a 404, a
405, or a 400 for a malformed, out-of-range, unknown or repeated parameter.
"""

from __future__ import annotations

import re
from operator import attrgetter
from typing import Any, Callable, Dict, NamedTuple, Optional, Tuple, Union
from urllib.parse import parse_qsl

__all__ = ["ROUTES", "Request", "Route", "UNMATCHED", "resolve"]

#: The metric label of every request no route matches (one label, not one per path).
UNMATCHED = "(unmatched)"

_INT = re.compile(r"[0-9]{1,32}")
_REAL = re.compile(r"([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?")


class _Rejected(Exception):
    """A request the table refuses: ``_Rejected(status, message)``."""


class _Int:
    """An integer in ``[0, hi(app, values))``; its default is clamped in for short timelines."""

    def __init__(self, hi: Callable[[Any, Dict[str, Any]], int], default: int = 0) -> None:
        self.hi, self.default = hi, default

    def parse(self, text: str, app: Any, values: Dict[str, Any]) -> int:
        if _INT.fullmatch(text) is None:
            raise _Rejected(400, f"{text!r} is not a non-negative integer")
        value, hi = int(text), self.hi(app, values)
        if value >= hi:
            raise _Rejected(400, f"{value} out of range [0, {hi})")
        return value

    def fill(self, app: Any, values: Dict[str, Any]) -> int:
        return max(0, min(self.default, self.hi(app, values) - 1))


class _Real:
    """A positive threshold in ``(0, hi]``.

    The decimal syntax has no sign, ``nan`` or ``inf``, and the finite cap
    rejects an overflow such as ``1e400``, so every accepted value is finite.
    """

    def __init__(self, hi: float, default: float) -> None:
        self.hi, self.default = hi, default

    def parse(self, text: str, app: Any, values: Dict[str, Any]) -> float:
        if _REAL.fullmatch(text) is None:
            raise _Rejected(400, f"{text!r} is not an unsigned decimal number")
        value = float(text)
        if not 0.0 < value <= self.hi:
            raise _Rejected(400, f"{value!r} out of range (0, {self.hi}]")
        return value

    def fill(self, app: Any, values: Dict[str, Any]) -> float:
        return self.default


class _UserId:
    """The id of a user with a mined profile; any other id is a 404."""

    def parse(self, text: str, app: Any, values: Dict[str, Any]) -> str:
        if text not in app.result.profiles:
            raise _Rejected(404, f"unknown user {text!r}")
        return text


class Route:
    """One route of the table.

    Its template is literal segments, then ``{name}`` segments typed by
    ``params``; the other ``params`` are query parameters.  The renderer gets
    the parsed values in that order, then whatever ``extra(app)`` returns.
    """

    def __init__(self, template: str, render: str, *, method: str = "GET",
                 cached: bool = True, extra: Optional[Callable[[Any], Tuple]] = None,
                 **params: Union[_Int, _Real, _UserId]) -> None:
        segments = [s for s in template.split("/") if s]
        names = [s[1:-1] for s in segments if s.startswith("{")]
        self.literals = tuple(segments[: len(segments) - len(names)])
        if any(s.startswith("{") for s in self.literals):
            raise ValueError(f"{template}: literal segment after a typed one")
        self.template, self.method, self.cached, self.extra = template, method, cached, extra
        self.renderer = attrgetter(render)
        self.path_params = {name: params[name] for name in names}
        self.query = {n: p for n, p in params.items() if n not in self.path_params}
        self.label = "/" + "/".join(self.literals + ((":id",) if names else ()))


_USER = _UserId()
_WINDOW = _Int(lambda app, v: len(app.result.timeline), default=9)
_ZOOM = _Int(lambda app, v: app.api.tiles.max_zoom + 1, default=2)
_SIDE = _Int(lambda app, v: 2 ** v["z"])

#: Every route the platform serves.
ROUTES: Tuple[Route, ...] = (
    Route("/", "pages.home"),
    Route("/users", "pages.users"),
    Route("/user/{user}", "pages.user", user=_USER),
    Route("/city", "pages.city", window=_WINDOW, zoom=_ZOOM,
          extra=lambda app: (app.api.tiles.max_zoom,)),
    Route("/animation", "pages.animation"),
    Route("/occupancy", "pages.occupancy"),
    Route("/communities", "pages.communities"),
    Route("/analytics", "pages.analytics"),
    Route("/metrics", "_metrics", cached=False),
    Route("/api/users", "api.users"),
    Route("/api/user/{user}", "api.user", user=_USER),
    Route("/api/crowd", "api.crowd_summary"),
    Route("/api/crowd/{window}", "api.crowd", window=_WINDOW),
    # A flow runs from one window to the next, so the last window has none.
    Route("/api/flows/{window}", "api.flows",
          window=_Int(lambda app, v: len(app.result.timeline) - 1)),
    Route("/api/tiles", "api.tile_scheme"),
    Route("/api/tiles/{z}/{x}/{y}", "api.tile", z=_ZOOM, x=_SIDE, y=_SIDE, window=_WINDOW),
    Route("/api/animation", "api.animation"),
    Route("/api/stats", "api.stats"),
    Route("/api/occupancy", "api.occupancy"),
    Route("/api/communities", "api.communities", min_similarity=_Real(1.0, 0.05)),
    Route("/api/spikes", "api.spikes", z=_Real(100.0, 4.0)),
    Route("/api/metrics/{user}", "api.user_metrics", user=_USER),
    Route("/api/cache", "cache.info", cached=False),
    Route("/api/refresh", "_refresh", method="POST", cached=False),
)

#: Routes by shape, (segment count, literal prefix), longest prefix tried first.
_BY_SHAPE = {(len(r.literals) + len(r.path_params), r.literals): r for r in ROUTES}
_PREFIX_LENGTHS = sorted({len(r.literals) for r in ROUTES}, reverse=True)
if len(_BY_SHAPE) != len(ROUTES):
    raise ValueError("two routes share one path shape")


class Request(NamedTuple):
    """A resolved request: what to render, or why not."""

    label: str
    route: Optional[Route] = None
    args: Tuple = ()
    key: str = ""
    status: int = 200
    error: str = ""


def resolve(app: Any, method: str, target: str) -> Request:
    """Match ``method target`` against :data:`ROUTES` and parse its parameters."""
    path, _, query = target.partition("#")[0].partition("?")
    segments = tuple([s for s in path.split("/") if s])
    for n_literals in _PREFIX_LENGTHS:
        route = _BY_SHAPE.get((len(segments), segments[:n_literals]))
        if route is not None:
            break
    else:
        return Request(UNMATCHED, status=404, error=f"no route for {path}")
    if method != route.method:
        return Request(route.label, route, status=405,
                       error=f"{route.label} takes {route.method}, not {method}")
    values: Dict[str, Any] = {}
    name = ""
    try:
        for (name, param), text in zip(route.path_params.items(),
                                       segments[len(route.literals):]):
            values[name] = param.parse(text, app, values)
        given: Dict[str, str] = {}
        for name, text in parse_qsl(query, keep_blank_values=True):
            if name not in route.query or name in given:
                raise _Rejected(400, "repeated parameter" if name in given
                               else "unknown parameter")
            given[name] = text
        for name, param in route.query.items():
            if name in given:
                values[name] = param.parse(given[name], app, values)
            else:
                values[name] = param.fill(app, values)
    except _Rejected as exc:
        status, message = exc.args
        return Request(route.label, route, status=status, error=f"{name}: {message}")
    # Typed values print without '/', '&' or '=', so the key needs no quoting.
    args = tuple(values.values())
    n_path = len(route.path_params)
    key = "/" + "/".join(route.literals + tuple(map(str, args[:n_path])))
    if route.query:
        key += "?" + "&".join(f"{n}={v}" for n, v in zip(route.query, args[n_path:]))
    return Request(route.label, route, args, key)
