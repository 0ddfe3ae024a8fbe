"""The ``serve-zipf`` client: a closed loop of dashboard visits over HTTP.

The key space is the whole dashboard: pages, the ``/api/*`` summaries, both
views of every time window, the flows between windows, every tile to zoom 2,
and the page, profile and mobility metrics of every user — about two and a
half times the server's 512-entry response cache.  Keys are drawn from a
Zipf law.  The landing pages and city-wide summaries hold the top ranks in a
fixed order, because some of them render for hundreds of milliseconds: at a
seeded rank, how often they are evicted and re-rendered (or rendered twice
at once by both connections) would change from seed to seed.  Below the
head, rank slots go to the key classes in proportion to their sizes, in an
order fixed by the sizes alone, and the seed picks which member of a class
fills each slot.  So which window, tile or user is hot changes with the
seed, while the share of requests each class gets, and with it the request
mix, does not.  The client requests the head once before the timed part,
so the browse starts from the state a dashboard in use is in: landing pages
cached.  No access log of a CrowdWeb deployment exists, so the exponent,
the head's order and the class shares are chosen, not fitted.

Who sends a request decides its headers, the way the program's clients do.
A page key is a browser visit: the page, and for a city page also
``/api/tiles`` and its 16 zoom-2 tiles, the fetches the page's script makes.
A browser asks for gzip on every request, and it revalidates with
``If-None-Match`` whenever it holds an ETag for the key.  The two
connections are one browser, so they share what it holds.  It revalidates
on every reuse, as a browser does on reload or once its copy is stale; the
heuristic freshness under which a real browser would skip some requests
altogether is not modelled.  An ``/api`` key is a script's request, made
the way ``urllib``, ``http.client`` and ``curl`` make one by default: no
``Accept-Encoding``, no validator.

Two keep-alive connections work through one shared, fixed sequence of
visits in a closed loop: each connection sends its next request only when
the previous one has been read.  When half the browse has passed, a browse
that refreshes pauses: the other connection finishes its visit, one connection sends
``POST /api/refresh`` and then re-requests the head as a script would, and
the browse resumes.  Without the pause both connections would miss on the
head after the refresh and often render the same heavy page twice at once,
a run-to-run difference in work that has nothing to do with the program's
speed.
"""

from __future__ import annotations

import gc
import gzip
import http.client
import itertools
import random
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from common import strict_json
from tracing import REQUEST_HEADER

CONNECTIONS = 2
ZIPF_EXPONENT = 1.0
SEQUENCE_REQUESTS = 12_000
TILE_ZOOMS = (0, 1, 2)
CITY_PAGE_ZOOM = 2

#: The head of the Zipf ranking, most requested first.
HEAD_KEYS = (
    "/", "/api/crowd", "/api/tiles", "/users", "/api/users", "/api/stats",
    "/occupancy", "/api/occupancy", "/animation", "/api/animation",
    "/analytics", "/communities", "/api/communities", "/api/spikes",
)

#: One request of a visit: (path, sent by the browser rather than a script).
Request = Tuple[str, bool]

#: The visit that sends the refresh and re-requests the head.
REFRESH: List[Request] = [("/api/refresh", False)]


def key_classes(user_ids: List[str], n_windows: int) -> List[List[str]]:
    """Every dashboard key except the head, by class, each in a fixed order."""
    windows = range(n_windows)
    return [
        [f"/api/crowd/{w}" for w in windows],
        [f"/city?window={w}" for w in windows],
        # A flow runs from one window to the next, so the last window has none.
        [f"/api/flows/{w}" for w in range(n_windows - 1)],
        [f"/api/tiles/{z}/{x}/{y}?window={w}" for w in windows for z in TILE_ZOOMS
         for x in range(2 ** z) for y in range(2 ** z)],
        [f"/user/{u}" for u in user_ids],
        [f"/api/user/{u}" for u in user_ids],
        [f"/api/metrics/{u}" for u in user_ids],
    ]


def _interleave(classes: List[List[str]]) -> List[str]:
    """Merge the classes so every prefix holds each in proportion to its size."""
    total = sum(len(c) for c in classes)
    taken = [0] * len(classes)
    out = []
    for slot in range(1, total + 1):
        lag = [slot * len(c) / total - taken[i] for i, c in enumerate(classes)]
        pick = max(range(len(classes)), key=lambda i: (lag[i], -i))
        out.append(classes[pick][taken[pick]])
        taken[pick] += 1
    return out


def _expand(key: str) -> List[Request]:
    """The requests one visit to ``key`` makes."""
    if key.startswith("/api/"):
        return [(key, False)]
    if not key.startswith("/city?window="):
        return [(key, True)]
    window = key.split("=", 1)[1]
    side = 2 ** CITY_PAGE_ZOOM
    fetches = ["/api/tiles"] + [
        f"/api/tiles/{CITY_PAGE_ZOOM}/{x}/{y}?window={window}"
        for x in range(side) for y in range(side)
    ]
    return [(path, True) for path in [key] + fetches]


def build_sequence(user_ids: List[str], n_windows: int, seed: int) -> List[List[Request]]:
    """The seeded visit sequence, at least ``SEQUENCE_REQUESTS`` requests long."""
    rng = random.Random(seed)
    classes = key_classes(user_ids, n_windows)
    for members in classes:
        rng.shuffle(members)
    ranked = list(HEAD_KEYS) + _interleave(classes)
    cum, total = [], 0.0
    for rank in range(len(ranked)):
        total += 1.0 / (rank + 1) ** ZIPF_EXPONENT
        cum.append(total)
    visits: List[List[Request]] = []
    n_requests = 0
    while n_requests < SEQUENCE_REQUESTS:
        visit = _expand(rng.choices(ranked, cum_weights=cum)[0])
        visits.append(visit)
        n_requests += len(visit)
    return visits


@dataclass
class Record:
    """One request as the client saw it."""

    req: int
    path: str
    start: float
    end: float
    status: int
    conditional: bool
    etag: Optional[str]
    ok: bool


class Browser:
    """Replays a visit sequence over ``CONNECTIONS`` keep-alive connections."""

    def __init__(self, port: int, visits: List[List[Request]], seconds: float,
                 refresh: bool = True) -> None:
        self.port = port
        self.visits = visits
        self.seconds = seconds
        self.refreshes = refresh
        self.records: List[Record] = []
        self.refresh: Optional[Record] = None
        #: The ETags the browser holds, by path.
        self.etags: Dict[str, str] = {}
        self.identity_bodies: Dict[str, bytes] = {}
        self.gzip_bodies: Dict[str, bytes] = {}
        self.errors: List[str] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._turn = threading.Condition(self._lock)
        self._next = 0
        self._refresh_due = refresh
        self._paused = False
        self._active = 0
        self.t0 = 0.0
        self.t_end = 0.0

    def run(self) -> None:
        # The client's own collector pauses would show up as server latency.
        gc.disable()
        try:
            self.t0 = time.perf_counter()
            threads = [threading.Thread(target=self._loop) for _ in range(CONNECTIONS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            gc.enable()
        self.t_end = max([self.t0] + [r.end for r in self.records])

    def _take(self) -> Optional[List[Request]]:
        """The next visit, ``REFRESH`` once at half time, ``None`` when time is up."""
        with self._turn:
            while self._paused:
                self._turn.wait()
            elapsed = time.perf_counter() - self.t0
            if elapsed >= self.seconds:
                return None
            if self._refresh_due and elapsed >= self.seconds / 2:
                self._refresh_due = False
                self._paused = True
                while self._active:
                    self._turn.wait()
                visit = REFRESH
            else:
                visit = self.visits[self._next % len(self.visits)]
                self._next += 1
            self._active += 1
            return visit

    def _done(self, visit: List[Request]) -> None:
        with self._turn:
            self._active -= 1
            if visit is REFRESH:
                self._paused = False
            self._turn.notify_all()

    def _loop(self) -> None:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        records: List[Record] = []
        try:
            while True:
                visit = self._take()
                if visit is None:
                    break
                try:
                    requests = visit
                    if visit is REFRESH:
                        self.refresh = self._send(conn, "POST", "/api/refresh", False)
                        records.append(self.refresh)
                        requests = [(path, False) for path in HEAD_KEYS]
                    for path, browser in requests:
                        record = self._send(conn, "GET", path, browser)
                        records.append(record)
                        if not record.ok:
                            conn.close()
                            conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                                              timeout=60)
                finally:
                    self._done(visit)
        finally:
            conn.close()
            with self._lock:
                self.records.extend(records)

    def _send(self, conn, method: str, path: str, browser: bool) -> Record:
        req = next(self._ids)
        headers = {REQUEST_HEADER: str(req)}
        etag = None
        if browser:
            headers["Accept-Encoding"] = "gzip"
            etag = self.etags.get(path)
            if etag is not None:
                headers["If-None-Match"] = etag
        start = time.perf_counter()
        try:
            conn.request(method, path, headers=headers)
            response = conn.getresponse()
            body = response.read()
        except (OSError, http.client.HTTPException) as exc:
            end = time.perf_counter()
            self.errors.append(f"{method} {path}: {type(exc).__name__}: {exc}")
            return Record(req, path, start, end, 0, etag is not None, None, False)
        end = time.perf_counter()
        status = response.status
        new_etag = response.getheader("ETag")
        ok = status == 200 or (status == 304 and etag is not None)
        if method == "POST":
            ok = ok and _refresh_body_ok(body)
        elif status == 200:
            ok = ok and new_etag is not None
            if browser:
                self.etags[path] = new_etag
            if response.getheader("Content-Encoding") == "gzip":
                self.gzip_bodies.setdefault(path, body)
            else:
                self.identity_bodies.setdefault(path, body)
        if not ok:
            self.errors.append(f"{method} {path}: status {status}"
                               + (" to a conditional request" if etag else ""))
        return Record(req, path, start, end, status, etag is not None, new_etag, ok)

    def check_outputs(self) -> Tuple[int, List[str]]:
        """Check the first bodies and the refresh; returns (checks, failures)."""
        failures: List[str] = []
        checks = 0
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            for path in sorted(set(self.identity_bodies) | set(self.gzip_bodies)):
                identity = self.identity_bodies.get(path)
                if identity is None:
                    checks += 1
                    conn.request("GET", path)
                    response = conn.getresponse()
                    identity = response.read()
                    if response.status != 200:
                        failures.append(f"GET {path}: status {response.status} on re-fetch")
                        continue
                if path.startswith("/api/"):
                    checks += 1
                    try:
                        strict_json(identity.decode("utf-8"))
                    except ValueError as exc:
                        failures.append(f"{path}: not strict JSON ({exc})")
                twin = self.gzip_bodies.get(path)
                if twin is not None:
                    checks += 1
                    if gzip.decompress(twin) != identity:
                        failures.append(f"{path}: gzip twin differs from the identity body")
        finally:
            conn.close()
        if self.refreshes:
            checks += 1
            failures.extend(self._check_etags_changed())
        return checks, failures

    def _check_etags_changed(self) -> List[str]:
        """Every key seen before and after the refresh must have a new ETag."""
        if self.refresh is None or not self.refresh.ok:
            return ["the refresh was not sent or failed"]
        before: Dict[str, set] = {}
        after: Dict[str, set] = {}
        for record in self.records:
            if record.etag is None or record is self.refresh:
                continue
            if record.end < self.refresh.start:
                before.setdefault(record.path, set()).add(record.etag)
            elif record.start > self.refresh.end:
                after.setdefault(record.path, set()).add(record.etag)
        stale = sorted(p for p in before.keys() & after.keys() if before[p] & after[p])
        compared = len(before.keys() & after.keys())
        if compared == 0:
            return ["no key was served both before and after the refresh"]
        if stale:
            return [f"{len(stale)} of {compared} keys kept their ETag across the refresh, "
                    f"e.g. {stale[0]}"]
        return []


def _refresh_body_ok(body: bytes) -> bool:
    try:
        payload = strict_json(body.decode("utf-8"))
    except ValueError:
        return False
    return isinstance(payload, dict) and payload.get("generation", 0) >= 1


def touch_head(port: int) -> List[str]:
    """Request every head key once, untimed, so the browse starts with them cached.

    Returns one failure message per request that did not answer 200.
    """
    failures = []
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        for path in HEAD_KEYS:
            conn.request("GET", path)
            response = conn.getresponse()
            response.read()
            if response.status != 200:
                failures.append(f"GET {path}: status {response.status} before the browse")
    finally:
        conn.close()
    return failures


def fetch_json(port: int, path: str):
    """One untimed GET, parsed as strict JSON (the key space comes from the API)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        body = response.read()
    finally:
        conn.close()
    if response.status != 200:
        raise RuntimeError(f"GET {path}: status {response.status}")
    return strict_json(body.decode("utf-8"))
