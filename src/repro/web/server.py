"""The HTTP layer of the platform: a cached, threaded service architecture.

Routes
------
Every route is declared once, in :data:`repro.web.routes.ROUTES`, and every
request goes through :func:`repro.web.routes.resolve`: see that module.

Service architecture (see ``docs/serving.md``)
----------------------------------------------
:class:`CrowdWebApp` is the socket-free service core: the route table's
renderers (:class:`~repro.web.api.CrowdWebAPI` /
:class:`~repro.web.pages.Pages`) behind a
:class:`~repro.web.cache.ResponseCache`.  The hot path is a dict lookup:
cacheable routes render **once**, then serve pre-encoded bytes with strong
ETags, ``Last-Modified``, ``304`` revalidation, and pre-compressed gzip
twins.  :class:`CrowdWebServer` adds the ``ThreadingHTTPServer`` plumbing
— and binds its socket *before* the pipeline result exists: constructed
with ``result_factory``, it answers ``503`` + ``Retry-After`` while the
precompute is in flight instead of leaving the first client hanging.

Every request runs inside a ``web.request`` trace span with latency
recorded per endpoint label (``/user/:id``; one ``(unmatched)`` label for
every path no route matches); cache misses add a ``web.render`` child
span.  All of it is a no-op until observability is enabled.
"""

from __future__ import annotations

import json
import threading
import time
from email.utils import parsedate_to_datetime
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from ..obs import get_observer
from ..pipeline import PipelineResult
from .api import CrowdWebAPI
from .cache import CacheEntry, ResponseCache, dataset_fingerprint
from .pages import Pages
from .routes import Request, resolve

__all__ = ["CrowdWebApp", "CrowdWebServer", "RETRY_AFTER_S"]

#: ``Retry-After`` seconds advertised while the pipeline precompute runs.
RETRY_AFTER_S = 1

HeaderList = List[Tuple[str, str]]
WebResponse = Tuple[int, HeaderList, bytes]

_JSON = "application/json"
_HTML = "text/html; charset=utf-8"


def _json_bytes(payload: Dict) -> bytes:
    """Strict JSON: a NaN or infinity raises instead of emitting invalid JSON."""
    return json.dumps(payload, allow_nan=False).encode("utf-8")


def _header(headers: Optional[Mapping], name: str) -> Optional[str]:
    """A request header by name from a Message or a plain dict."""
    if headers is None:
        return None
    value = headers.get(name)
    if value is None:
        value = headers.get(name.lower())
    return value


class CrowdWebApp:
    """The socket-free service core: render functions behind a response cache.

    ``handle`` is everything the HTTP handler does per request; it takes
    the method, raw path, and request headers and returns
    ``(status, header_list, body_bytes)`` — directly testable without a
    socket, and shared by the warm-up precompute.
    """

    def __init__(self, result: PipelineResult, cache_entries: int = 512) -> None:
        self.result = result
        self.api = CrowdWebAPI(result)
        self.pages = Pages(result)
        self.fingerprint = dataset_fingerprint(result)
        self.cache = ResponseCache(self.fingerprint, max_entries=cache_entries)

    # ------------------------------------------------------------- requests

    def handle(
        self, method: str, path: str, headers: Optional[Mapping] = None
    ) -> WebResponse:
        """Serve one request: resolve, cache lookup, conditional, negotiation."""
        observer = get_observer()
        with observer.span("web.request") as span:
            start = time.perf_counter()
            request = resolve(self, method, path)
            status, out_headers, body = self._respond(request, headers)
            elapsed_s = time.perf_counter() - start
            endpoint = request.label
            span.set("endpoint", endpoint)
            span.set("status", status)
            observer.observe("repro_web_request_latency_s", elapsed_s, label=endpoint)
            observer.inc("repro_web_requests_total", label=endpoint)
            observer.inc("repro_web_response_bytes", len(body))
            if status >= 400:
                observer.inc("repro_web_errors_total", label=endpoint)
        return status, out_headers, body

    def _respond(self, request: Request, headers: Optional[Mapping]) -> WebResponse:
        route = request.route
        if request.status != 200:
            out_headers = [("Content-Type", _JSON)]
            if request.status == 405:
                out_headers.append(("Allow", route.method))
            return request.status, out_headers, _json_bytes({"error": request.error})
        if not route.cached:
            status, content_type, body = self._render(request)
            return status, [("Content-Type", content_type), ("Cache-Control", "no-store")], body

        key = self.cache.key(route.method, request.key)
        entry = self.cache.lookup(key)
        if entry is None:
            status, content_type, body = self._traced_render(request)
            if status != 200:
                # Errors are never cached (and carry no validators).
                return status, [("Content-Type", content_type)], body
            entry = self.cache.store(key, body, content_type)
        return self._serve_entry(entry, headers)

    def _render(self, request: Request) -> Tuple[int, str, bytes]:
        """Call the route's renderer: HTML for a string, strict JSON for a dict."""
        route = request.route
        args = request.args + (route.extra(self) if route.extra else ())
        payload = route.renderer(self)(*args)
        if isinstance(payload, str):
            return 200, _HTML, payload.encode("utf-8")
        if payload is None:
            return 404, _JSON, _json_bytes({"error": f"nothing at {request.key}"})
        return 200, _JSON, _json_bytes(payload)

    def _traced_render(self, request: Request) -> Tuple[int, str, bytes]:
        """One real render (a cache miss): traced and counted."""
        observer = get_observer()
        with observer.span("web.render", endpoint=request.label):
            start = time.perf_counter()
            result = self._render(request)
            elapsed_s = time.perf_counter() - start
            observer.observe("repro_web_render_latency_s", elapsed_s, label=request.label)
            observer.inc("repro_web_renders_total")
        return result

    def _serve_entry(self, entry: CacheEntry, headers: Optional[Mapping]) -> WebResponse:
        observer = get_observer()
        validators: HeaderList = [
            ("ETag", entry.etag),
            ("Last-Modified", entry.last_modified),
            ("Vary", "Accept-Encoding"),
        ]
        if self._not_modified(entry, headers):
            observer.inc("repro_web_not_modified_total")
            return 304, validators, b""
        body = entry.body
        out_headers = [("Content-Type", entry.content_type)] + validators
        accept = _header(headers, "Accept-Encoding") or ""
        if entry.gzip_body is not None and "gzip" in accept.lower():
            body = entry.gzip_body
            out_headers.append(("Content-Encoding", "gzip"))
            observer.inc("repro_web_gzip_responses_total")
        return 200, out_headers, body

    @staticmethod
    def _not_modified(entry: CacheEntry, headers: Optional[Mapping]) -> bool:
        """Does the request's validator still match this entry?"""
        if_none_match = _header(headers, "If-None-Match")
        if if_none_match is not None:
            candidates = [tag.strip() for tag in if_none_match.split(",")]
            return entry.etag in candidates or "*" in candidates
        if_modified_since = _header(headers, "If-Modified-Since")
        if if_modified_since is not None:
            try:
                their_time = parsedate_to_datetime(if_modified_since)
                our_time = parsedate_to_datetime(entry.last_modified)
            except (TypeError, ValueError):
                return False
            return our_time <= their_time
        return False

    def _metrics(self) -> Dict:
        """The observability snapshot served at ``/metrics``."""
        return get_observer().metrics_payload()

    def _refresh(self) -> Dict:
        """Explicit invalidation: drop cached responses and tile aggregates."""
        dropped = self.cache.invalidate()
        self.api.tiles.invalidate()
        return {"invalidated": dropped, "generation": self.cache.generation}

    # -------------------------------------------------------------- warm-up

    def warm_paths(self) -> List[str]:
        """The hot key space: crowd windows, tiles, and per-user fragments."""
        paths = ["/", "/users", "/api/users", "/api/stats", "/api/crowd",
                 "/api/occupancy", "/api/tiles"]
        n_windows = len(self.result.timeline)
        tiles = self.api.tiles
        warm_zoom = min(1, tiles.max_zoom)
        for window in range(n_windows):
            paths.append(f"/api/crowd/{window}")
            paths.append(f"/city?window={window}")
            for zoom in range(warm_zoom + 1):
                for x in range(2 ** zoom):
                    for y in range(2 ** zoom):
                        paths.append(f"/api/tiles/{zoom}/{x}/{y}?window={window}")
        for user_id in sorted(self.result.profiles):
            paths.append(f"/api/user/{user_id}")
            paths.append(f"/user/{user_id}")
        return paths

    def warm(self) -> int:
        """Precompute the hot key space; returns entries materialized.

        Runs through :meth:`handle`, so warmed routes are byte-identical to
        served ones and land in the same cache.
        """
        observer = get_observer()
        warmed = 0
        with observer.span("web.precompute"):
            for path in self.warm_paths():
                status, _headers, _body = self.handle("GET", path, None)
                if status == 200:
                    warmed += 1
            observer.inc("repro_web_precomputed_total", warmed)
        return warmed


class CrowdWebServer:
    """The platform server.  ``serve_forever`` blocks; ``start`` runs in a
    daemon thread (used by tests and the examples).

    Constructed with a ready ``result``, it serves immediately.  Constructed
    with ``result_factory``, it binds its socket right away and builds the
    pipeline result in a background thread — requests arriving meanwhile get
    ``503`` with ``Retry-After: 1`` instead of a hung or refused connection.
    ``warm=True`` additionally precomputes the hot key space in the
    background once the result is in.
    """

    def __init__(
        self,
        result: Optional[PipelineResult] = None,
        host: str = "127.0.0.1",
        port: int = 8460,
        *,
        result_factory: Optional[Callable[[], PipelineResult]] = None,
        warm: bool = False,
        cache_entries: int = 512,
    ) -> None:
        if (result is None) == (result_factory is None):
            raise ValueError("pass exactly one of result= or result_factory=")
        self._app: Optional[CrowdWebApp] = None
        self._app_error: Optional[str] = None
        self._app_lock = threading.Lock()
        self._ready = threading.Event()
        self._warm = warm
        self._cache_entries = cache_entries
        owner = self

        class Handler(BaseHTTPRequestHandler):
            # Keep-alive: the load-bearing half of the keep-alive hot path —
            # requires every response to carry an exact Content-Length,
            # which _respond guarantees.
            protocol_version = "HTTP/1.1"
            # Nagle + delayed ACK adds tens of ms per request on a reused
            # connection; cached responses are single writes, so just send.
            disable_nagle_algorithm = True

            def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
                self._serve("GET")

            def do_POST(self) -> None:  # noqa: N802 (stdlib naming)
                self._serve("POST")

            def _serve(self, method: str) -> None:
                app = owner._app
                if app is None:
                    # Not ready (warming up, or the build failed): drain any
                    # request body so a keep-alive client that already sent
                    # one is not left mid-stream, tell it to reconnect later
                    # with Connection: close, and actually close our side.
                    self._drain_body()
                    status, headers, body = owner._unready_response()
                    self._respond(status, headers + [("Connection", "close")], body)
                    # Each connection gets its own Handler instance, so this
                    # flag is never shared across request threads.
                    self.close_connection = True  # crowdlint: disable=CW701 -- per-connection instance state
                    return
                try:
                    status, headers, body = app.handle(method, self.path, self.headers)
                except Exception as exc:  # noqa: BLE001 - keep the worker alive
                    payload = {"error": f"{type(exc).__name__}: {exc}"}
                    status, headers, body = 500, [("Content-Type", _JSON)], _json_bytes(payload)
                self._respond(status, headers, body)

            def _drain_body(self) -> None:
                try:
                    length = int(self.headers.get("Content-Length") or 0)
                except ValueError:
                    length = 0
                if length > 0:
                    self.rfile.read(length)

            def _respond(self, status: int, headers: HeaderList, body: bytes) -> None:
                self.send_response(status)
                for name, value in headers:
                    self.send_header(name, value)
                if status != 304:
                    self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                if body and status != 304:
                    self.wfile.write(body)

            def log_message(self, format: str, *args) -> None:
                pass  # quiet by default; the CLI prints the URL once

        self._server = ThreadingHTTPServer((host, port), Handler)
        self._thread: Optional[threading.Thread] = None
        self._builder: Optional[threading.Thread] = None
        if result is not None:
            self._install_result(result)
        else:
            self._builder = threading.Thread(
                target=self._build_and_install, args=(result_factory,), daemon=True
            )
            self._builder.start()

    # ------------------------------------------------------------ readiness

    def _install_result(self, result: PipelineResult) -> None:
        app = CrowdWebApp(result, cache_entries=self._cache_entries)
        with self._app_lock:
            self._app = app
        self._ready.set()
        if self._warm:
            threading.Thread(target=app.warm, daemon=True).start()

    def _build_and_install(self, factory: Callable[[], PipelineResult]) -> None:
        try:
            result = factory()
        except Exception as exc:  # noqa: BLE001 - surfaced as a 500 body
            with self._app_lock:
                self._app_error = f"{type(exc).__name__}: {exc}"
            self._ready.set()
            return
        self._install_result(result)

    def _unready_response(self) -> WebResponse:
        error = self._app_error
        if error is not None:
            payload = {"error": f"pipeline build failed: {error}"}
            return 500, [("Content-Type", _JSON)], _json_bytes(payload)
        payload = {"error": "service warming up: pipeline precompute in flight",
                   "retry_after_s": RETRY_AFTER_S}
        headers = [("Content-Type", _JSON), ("Retry-After", str(RETRY_AFTER_S))]
        return 503, headers, _json_bytes(payload)

    def wait_ready(self, timeout: Optional[float] = None) -> bool:
        """Block until the pipeline result is in (True) or failed/timed out."""
        if not self._ready.wait(timeout):
            return False
        return self._app is not None

    # ------------------------------------------------------------ accessors

    @property
    def app(self) -> CrowdWebApp:
        app = self._app
        if app is None:
            raise RuntimeError(
                "server is still preparing its pipeline result "
                f"({self._app_error or 'precompute in flight'})"
            )
        return app

    @property
    def address(self) -> Tuple[str, int]:
        return self._server.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    # ------------------------------------------------------------ lifecycle

    def start(self) -> "CrowdWebServer":
        """Serve in a background daemon thread (returns immediately)."""
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        self._server.serve_forever()

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
