"""Spans recorded by the benchmark's own wrappers around the program's public calls.

A :class:`Tracer` keeps spans in memory — name, start, end, parent, request
id and a few counts — and :meth:`Tracer.dump` writes them out once, when the
measured process ends.  :func:`install` patches the layer entry points the
program calls internally (``run_pipeline`` calls ``preprocess`` and so on);
calls the benchmark makes itself (``generate``, ``read_foursquare_tsv``,
``run_pipeline``, ``CrowdWebApp``, ``warm``) are wrapped at the call site
with :meth:`Tracer.span`.  Nothing under ``src/`` is edited: every patch is a
module or class attribute swapped at run time, in the measured process only,
plus the entry map of each response cache, swapped for one that counts its
LRU evictions.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager, nullcontext
from typing import Any, Callable, Dict, List, Optional

#: Spans that only group other spans; coverage counts the layer spans under them.
GLUE_SPANS = frozenset({"ready", "pipeline.run"})

#: Request-id header the browse client sends and the ``web.handle`` span records.
REQUEST_HEADER = "X-Bench-Request"


class Tracer:
    """An in-memory span recorder, safe to share between handler threads."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[Dict[str, Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, req: Optional[str] = None, **attrs: Any):
        """Record one span around the ``with`` body; yields its attribute dict."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        if req is None and parent is not None:
            req = parent["req"]
        record = {"id": next(self._ids), "parent": parent["id"] if parent else None,
                  "name": name, "req": req, "start": time.perf_counter(), "end": None}
        record.update(attrs)
        stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(record)

    def wrap(self, fn: Callable, name: str,
             counts: Optional[Callable[[Any, tuple, dict], Dict[str, Any]]] = None,
             req_of: Optional[Callable[[tuple, dict], Optional[str]]] = None) -> Callable:
        """``fn`` inside a span; ``counts(result, args, kwargs)`` adds attributes."""
        tracer = self

        def traced(*args, **kwargs):
            req = req_of(args, kwargs) if req_of else None
            with tracer.span(name, req=req) as record:
                result = fn(*args, **kwargs)
                if counts is not None:
                    record.update(counts(result, args, kwargs))
            return result

        traced.__wrapped__ = fn
        return traced

    def dump(self, path: str, **meta: Any) -> None:
        """Write every recorded span (sorted by start) as one JSON document."""
        with self._lock:
            spans = sorted(self.spans, key=lambda s: s["start"])
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"meta": meta, "clock": "time.perf_counter", "spans": spans}, fh)


def span_factory(tracer: Optional[Tracer]) -> Callable:
    """``tracer.span``, or a no-op span of the same shape when not tracing."""
    if tracer is None:
        return lambda name, **attrs: nullcontext({})
    return tracer.span


def _request_id(args: tuple, kwargs: dict) -> Optional[str]:
    headers = args[3] if len(args) > 3 else kwargs.get("headers")
    if headers is None:
        return None
    return headers.get(REQUEST_HEADER)


def install(tracer: Tracer) -> None:
    """Patch the internal layer calls of the program to record spans."""
    import repro.crowd.aggregate as aggregate_mod
    import repro.patterns.model as patterns_mod
    import repro.pipeline as pipeline_mod
    import repro.web.cache as cache_mod
    import repro.web.server as server_mod
    from repro.web.api import CrowdWebAPI
    from repro.web.pages import Pages

    wrap = tracer.wrap

    pipeline_mod.preprocess = wrap(
        pipeline_mod.preprocess, "data.preprocess",
        lambda r, a, k: {"users_kept": r[0].n_users, "rows_kept": len(r[0])})
    pipeline_mod.detect_all_patterns = wrap(
        pipeline_mod.detect_all_patterns, "patterns.detect",
        lambda r, a, k: {"users": len(r)})
    pipeline_mod.CrowdAggregator = wrap(pipeline_mod.CrowdAggregator, "crowd.index")
    patterns_mod.build_all_databases = wrap(
        patterns_mod.build_all_databases, "sequences.build",
        lambda r, a, k: {"users": len(r), "days": sum(len(db) for db in r.values())})
    patterns_mod.modified_prefixspan = wrap(
        patterns_mod.modified_prefixspan, "mining.mine",
        lambda r, a, k: {"patterns": len(r)})
    for module in (patterns_mod, aggregate_mod):
        def ordered_map(fn, items, *args, _original=module.ordered_map, **kwargs):
            items = list(items)
            with tracer.span("exec.ordered_map", tasks=len(items)):
                return _original(fn, items, *args, **kwargs)

        module.ordered_map = ordered_map
    aggregator_cls = aggregate_mod.CrowdAggregator
    aggregator_cls.timeline = wrap(
        aggregator_cls.timeline, "crowd.timeline",
        lambda r, a, k: {"windows": len(r), "placements": sum(s.n_users for s in r)})

    app_cls = server_mod.CrowdWebApp
    app_cls.handle = wrap(
        app_cls.handle, "web.handle",
        lambda r, a, k: {"status": r[0], "bytes": len(r[2])},
        req_of=_request_id)
    cache_cls = cache_mod.ResponseCache
    cache_cls.lookup = wrap(
        cache_cls.lookup, "web.cache.lookup", lambda r, a, k: {"hit": r is not None})

    class EvictionCountingDict(OrderedDict):
        """The cache's entry map; an LRU eviction counts on the thread's open span."""

        def popitem(self, last=True):
            item = super().popitem(last)
            stack = tracer._stack()
            if stack:
                stack[-1]["evicted"] = stack[-1].get("evicted", 0) + 1
            return item

    original_init = cache_cls.__init__

    def init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        self._entries = EvictionCountingDict(self._entries)

    cache_cls.__init__ = init
    original_store = cache_cls.store

    def store(self, key, body, content_type):
        # ``ResponseCache.store`` evicts with ``popitem`` on this thread.
        with tracer.span("web.cache.store", evicted=0):
            return original_store(self, key, body, content_type)

    cache_cls.store = store
    for cls in (CrowdWebAPI, Pages):
        for attr, value in list(vars(cls).items()):
            if not attr.startswith("_") and callable(value):
                setattr(cls, attr, wrap(value, "web.render"))
