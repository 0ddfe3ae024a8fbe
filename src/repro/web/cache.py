"""The precomputed-response cache behind the serving hot path.

The ROADMAP's serving target is "the hot path is a dict lookup": every
cacheable route is rendered **once** (at warm-up or on first request),
then served as pre-encoded bytes with a strong ETag, a ``Last-Modified``
stamp, and — when the client accepts it — a pre-compressed gzip body that
was produced alongside the raw payload.  A request that hits the cache
does no rendering, no JSON encoding, and no compression; a request that
revalidates with ``If-None-Match`` does not even transfer the body.

Keys and invalidation
---------------------
Every key starts with the **dataset fingerprint** — a content hash of the
served :class:`~repro.pipeline.PipelineResult`'s identity (dataset name,
record/user counts, grid geometry, timeline length, pipeline config) — so
two servers over different data can never alias, and a cache carried
across a dataset swap self-invalidates.  The remaining key parts are the
method and the route's canonical path from :mod:`repro.web.routes`
(defaults filled in, values normalized).  Explicit invalidation
(``/api/refresh``) bumps a **generation** counter: entries are dropped,
ETags change (the generation is hashed into them), and stores raced from
stale renders are discarded.

Concurrency
-----------
The cache is shared by every handler thread of the
``ThreadingHTTPServer``.  All mutation happens under one internal lock
(``_lock``); expensive work — rendering, hashing, gzip — happens *outside*
it, so the lock is only ever held for dict operations.  The CW7xx race
pack verifies this shape statically (``crowdweb-lint --threads`` infers
``_lock`` as the guard of ``_entries`` / ``_generation``).  Its metrics
are listed in ``docs/observability.md``.
"""

from __future__ import annotations

import gzip
import hashlib
import threading
import time
from collections import OrderedDict
from email.utils import formatdate
from typing import NamedTuple, Optional, Tuple

from ..obs import get_observer
from ..pipeline import PipelineResult

__all__ = ["CacheEntry", "MIN_GZIP_BYTES", "ResponseCache", "dataset_fingerprint"]

#: A cache key: the dataset fingerprint followed by route-identifying parts.
CacheKey = Tuple[str, ...]

#: Bodies smaller than this are served identity-only: the gzip container
#: overhead would eat the savings, so no compressed twin is materialized.
MIN_GZIP_BYTES = 256


def dataset_fingerprint(result: PipelineResult) -> str:
    """A stable content hash of what this pipeline result serves.

    Covers the dataset identity (name, record and user counts), the grid
    geometry, the timeline length, and the pipeline config repr — enough
    that any input or configuration change yields a different fingerprint,
    and with it different cache keys and ETags.
    """
    parts = (
        result.dataset.name,
        str(len(result.dataset)),
        str(result.dataset.n_users),
        f"{result.grid.n_rows}x{result.grid.n_cols}",
        str(len(result.timeline)),
        repr(result.config),
    )
    digest = hashlib.sha256("|".join(parts).encode("utf-8")).hexdigest()
    return digest[:16]


class CacheEntry(NamedTuple):
    """One pre-rendered response: raw bytes, gzip twin, and its validators."""

    body: bytes
    content_type: str
    etag: str
    last_modified: str
    gzip_body: Optional[bytes]
    generation: int

    @property
    def n_bytes(self) -> int:
        """Resident payload bytes (raw body plus the gzip twin)."""
        return len(self.body) + (len(self.gzip_body) if self.gzip_body else 0)


class ResponseCache:
    """A thread-safe LRU of pre-rendered responses keyed by route.

    ``max_entries`` bounds the LRU (least-recently-*used* entry evicted
    first); ``generation`` counts explicit invalidations and is hashed
    into every ETag, so a refresh changes validators even for re-rendered
    identical bodies — clients holding pre-refresh ETags re-download once.
    """

    def __init__(self, fingerprint: str, max_entries: int = 512) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be at least 1")
        self.fingerprint = fingerprint
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._entries: "OrderedDict[CacheKey, CacheEntry]" = OrderedDict()
        self._generation = 0
        # Last-Modified is genuinely wall-clock: it stamps when this cache
        # generation was built, which is exactly what HTTP revalidation wants.
        self._built_at = time.time()  # crowdlint: disable=CW202 -- HTTP Last-Modified stamps real build time by design

    # ------------------------------------------------------------------ keys

    def key(self, *parts: object) -> CacheKey:
        """A cache key for route parts, always fingerprint-prefixed."""
        return (self.fingerprint,) + tuple(str(p) for p in parts)

    # --------------------------------------------------------------- queries

    @property
    def generation(self) -> int:
        with self._lock:
            return self._generation

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def lookup(self, key: CacheKey) -> Optional[CacheEntry]:
        """The entry for ``key`` (refreshing its LRU slot), or ``None``."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
        observer = get_observer()
        if entry is None:
            observer.inc("repro_web_cache_misses_total")
        else:
            observer.inc("repro_web_cache_hits_total")
        return entry

    # --------------------------------------------------------------- stores

    def store(self, key: CacheKey, body: bytes, content_type: str) -> CacheEntry:
        """Build and insert an entry for ``key``; returns the entry.

        Hashing and gzip run outside the lock.  If the cache is invalidated
        while the entry is being built, the stale entry is still *returned*
        (the response it answers is correct for the data it rendered) but
        never stored.
        """
        with self._lock:
            generation = self._generation
            built_at = self._built_at
        entry = self._build_entry(key, body, content_type, generation, built_at)
        evicted = 0
        with self._lock:
            if generation == self._generation:
                self._entries[key] = entry
                self._entries.move_to_end(key)
                while len(self._entries) > self.max_entries:
                    self._entries.popitem(last=False)
                    evicted += 1
            n_entries = len(self._entries)
        observer = get_observer()
        if evicted:
            observer.inc("repro_web_cache_evictions_total", evicted)
        observer.set_gauge("repro_web_cache_entries_size", n_entries)
        return entry

    def _build_entry(
        self,
        key: CacheKey,
        body: bytes,
        content_type: str,
        generation: int,
        built_at: float,
    ) -> CacheEntry:
        etag_src = "|".join(key) + f"|g{generation}"
        etag = '"' + hashlib.sha256(etag_src.encode("utf-8")).hexdigest()[:24] + '"'
        gzip_body: Optional[bytes] = None
        if len(body) >= MIN_GZIP_BYTES:
            # mtime=0 keeps the compressed bytes deterministic per body.
            candidate = gzip.compress(body, compresslevel=6, mtime=0)
            if len(candidate) < len(body):
                gzip_body = candidate
        last_modified = formatdate(built_at, usegmt=True)
        return CacheEntry(body, content_type, etag, last_modified, gzip_body, generation)

    # ---------------------------------------------------------- invalidation

    def invalidate(self) -> int:
        """Drop every entry and start a new generation; returns entries dropped.

        New renders pick up the bumped generation (fresh ETags and a fresh
        ``Last-Modified``), and stores raced from pre-invalidation renders
        are discarded by the generation check in :meth:`store`.
        """
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            self._generation += 1
            # Same intentional wall-clock read as the constructor's.
            self._built_at = time.time()  # crowdlint: disable=CW202 -- HTTP Last-Modified stamps real refresh time by design
        observer = get_observer()
        observer.inc("repro_web_cache_invalidations_total")
        observer.set_gauge("repro_web_cache_entries_size", 0)
        return dropped

    # -------------------------------------------------------------- insight

    def info(self) -> dict:
        """JSON-ready cache state (served by ``/api/cache``)."""
        with self._lock:
            n_entries = len(self._entries)
            n_bytes = sum(e.n_bytes for e in self._entries.values())
            generation = self._generation
            built_at = self._built_at
        return {
            "fingerprint": self.fingerprint,
            "entries": n_entries,
            "payload_bytes": n_bytes,
            "max_entries": self.max_entries,
            "generation": generation,
            "last_modified": formatdate(built_at, usegmt=True),
        }
