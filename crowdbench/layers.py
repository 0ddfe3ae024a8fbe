"""Per-layer metrics of a traced run, computed from its span dumps.

Each metric is listed with its unit.  ``README.md`` maps every metric to the
end-to-end metric it should move and the workload it moves it on.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from common import median, percentile
from tracing import GLUE_SPANS

PER_LAYER_UNITS: Dict[str, str] = {
    "data.synth.generate_s": "s",
    "data.synth.checkins": "count",
    "data.io.read_s": "s",
    "data.io.rows": "count",
    "data.io.write_s": "s",
    "data.preprocess_s": "s",
    "data.preprocess.users_kept": "count",
    "sequences.build_s": "s",
    "sequences.days": "count",
    "mining.mine_s": "s",
    "mining.calls": "count",
    "mining.patterns": "count",
    "exec.tasks": "count",
    "crowd.index_s": "s",
    "crowd.timeline_s": "s",
    "crowd.placements": "count",
    "web.warm_s": "s",
    "web.warm.renders": "count",
    "web.warm.bytes": "bytes",
    "web.handle.p50_ms": "ms",
    "web.http.p50_ms": "ms",
    "web.cache.hit_ratio": "ratio",
    "web.cache.evictions": "count",
    "web.cache.store_s": "s",
    "web.render.count": "count",
    "web.render_s": "s",
    "web.render.p99_ms": "ms",
    "web.not_modified_ratio": "ratio",
    "web.bytes_per_req": "bytes",
    "trace.untraced_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead_ratio": "ratio",
}


def _dur(span: Dict) -> float:
    return span["end"] - span["start"]


def _named(spans: Iterable[Dict], name: str) -> List[Dict]:
    return [s for s in spans if s["name"] == name]


def _total(spans: Iterable[Dict], name: str) -> float:
    return sum(_dur(s) for s in _named(spans, name))


def _within(spans: Iterable[Dict], lo: float, hi: float) -> List[Dict]:
    return [s for s in spans if s["start"] >= lo and s["end"] <= hi]


def _outermost_renders(spans: List[Dict]) -> List[Dict]:
    render_ids = {s["id"] for s in spans if s["name"] == "web.render"}
    return [s for s in spans if s["name"] == "web.render" and s["parent"] not in render_ids]


def _outside_renders(spans: List[Dict]) -> List[Dict]:
    """Spans not nested in a ``web.render`` (renders call the crowd layer too)."""
    by_id = {s["id"]: s for s in spans}

    def in_render(span: Dict) -> bool:
        parent = by_id.get(span["parent"])
        while parent is not None:
            if parent["name"] == "web.render":
                return True
            parent = by_id.get(parent["parent"])
        return False

    return [s for s in spans if not in_render(s)]


def coverage(spans: List[Dict]) -> Tuple[float, float]:
    """(seconds of the ``ready`` span outside every layer span, covered share)."""
    root = _named(spans, "ready")[0]
    glue = {root["id"]} | {s["id"] for s in spans if s["name"] in GLUE_SPANS}
    covered = sum(_dur(s) for s in spans
                  if s["parent"] in glue and s["name"] not in GLUE_SPANS)
    untraced = _dur(root) - covered
    return untraced, covered / _dur(root)


def setup_metrics(setup_spans: List[Dict]) -> Dict[str, float]:
    """The per-layer metrics of the set-up process that generated the city."""
    return {
        "data.synth.generate_s": _total(setup_spans, "data.synth.generate"),
        "data.synth.checkins": sum(s["rows"] for s in _named(setup_spans, "data.synth.generate")),
        "data.io.write_s": _total(setup_spans, "data.io.write"),
    }


def layer_metrics(spans: List[Dict], http_ms: Optional[List[float]] = None) -> Dict[str, float]:
    """Every per-layer metric except the overhead ratio, of one process.

    ``spans`` come from the process that built and warmed the result; add
    ``setup_metrics`` of the set-up process, if any.  With ``http_ms`` —
    client latency minus handle time per browse request — the web metrics
    describe the browse requests (spans carrying a request id); without it,
    the warm.
    """
    pipeline = _outside_renders(spans)
    warm = _named(spans, "web.warm")[0]
    warm_spans = _within(spans, warm["start"], warm["end"])
    scoped = [s for s in spans if s["req"] is not None] if http_ms is not None else warm_spans
    handles = _named(scoped, "web.handle")
    lookups = _named(scoped, "web.cache.lookup")
    stores = _named(scoped, "web.cache.store")
    renders = _outermost_renders(scoped)
    reads = _named(pipeline, "data.io.read")
    preprocess = _named(pipeline, "data.preprocess")
    builds = _named(pipeline, "sequences.build")
    mines = _named(pipeline, "mining.mine")
    untraced, covered = coverage(spans)
    return {
        "data.synth.generate_s": _total(pipeline, "data.synth.generate"),
        "data.synth.checkins": sum(s["rows"] for s in _named(pipeline, "data.synth.generate")),
        "data.io.read_s": sum(_dur(s) for s in reads),
        "data.io.rows": sum(s["rows"] for s in reads),
        "data.io.write_s": _total(pipeline, "data.io.write"),
        "data.preprocess_s": sum(_dur(s) for s in preprocess),
        "data.preprocess.users_kept": sum(s["users_kept"] for s in preprocess),
        "sequences.build_s": sum(_dur(s) for s in builds),
        "sequences.days": sum(s["days"] for s in builds),
        "mining.mine_s": sum(_dur(s) for s in mines),
        "mining.calls": len(mines),
        "mining.patterns": sum(s["patterns"] for s in mines),
        "exec.tasks": sum(s["tasks"] for s in _named(pipeline, "exec.ordered_map")),
        "crowd.index_s": _total(pipeline, "crowd.index"),
        "crowd.timeline_s": _total(pipeline, "crowd.timeline"),
        "crowd.placements": sum(s["placements"] for s in _named(pipeline, "crowd.timeline")),
        "web.warm_s": _dur(warm),
        "web.warm.renders": len(_outermost_renders(warm_spans)),
        "web.warm.bytes": sum(s["bytes"] for s in _named(warm_spans, "web.handle")),
        "web.handle.p50_ms": percentile([_dur(s) * 1e3 for s in handles], 50),
        "web.http.p50_ms": percentile(http_ms, 50) if http_ms else 0.0,
        "web.cache.hit_ratio": sum(s["hit"] for s in lookups) / len(lookups),
        "web.cache.evictions": sum(s["evicted"] for s in stores),
        "web.cache.store_s": sum(_dur(s) for s in stores),
        "web.render.count": len(renders),
        "web.render_s": sum(_dur(s) for s in renders),
        "web.render.p99_ms": percentile([_dur(s) * 1e3 for s in renders], 99),
        "web.not_modified_ratio": sum(s["status"] == 304 for s in handles) / len(handles),
        "web.bytes_per_req": sum(s["bytes"] for s in handles) / len(handles),
        "trace.untraced_s": untraced,
        "trace.coverage": covered,
    }


def http_overhead_ms(spans: List[Dict], client: Dict[int, float]) -> List[float]:
    """Client latency minus ``CrowdWebApp.handle`` time, per browse request, in ms."""
    out = []
    for span in _named(spans, "web.handle"):
        req = span["req"]
        if req is not None and int(req) in client:
            out.append((client[int(req)] - _dur(span)) * 1e3)
    return out


def in_reference_units(metrics: Dict[str, float], factor: float) -> Dict[str, float]:
    """The metrics with every time converted by a ``hostspeed`` factor."""
    return {name: value * factor if PER_LAYER_UNITS.get(name) in ("s", "ms") else value
            for name, value in metrics.items()}


def with_setup(metrics: Dict[str, float], setup: Dict[str, float]) -> Dict[str, float]:
    """``metrics`` plus the set-up process's ``setup_metrics``."""
    return {name: value + setup.get(name, 0) for name, value in metrics.items()}


def median_metrics(runs: List[Dict[str, float]]) -> Dict[str, float]:
    """The per-metric median across traced iterations."""
    return {name: median([run[name] for run in runs]) for name in runs[0]}
