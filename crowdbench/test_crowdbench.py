"""Self-tests of the benchmark, on the smoke-scale city (``python3 -m pytest crowdbench``).

The end-to-end cases run ``run.py`` from the command line, for one to
two seconds per workload, and check the result line against
``BENCHMARK.json``: every metric named there is emitted with its unit, and
an injected digest mismatch or server error shows up in the error count.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import browse  # noqa: E402
import common  # noqa: E402
import hostspeed  # noqa: E402
import layers  # noqa: E402

ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*argv: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "crowdbench/run.py", *argv], cwd=cwd,
                          capture_output=True, text=True, timeout=170, check=False)


def _smoke(workload: str, trace: int = 0, *extra: str, seconds: str = "1") -> dict:
    out = _run("--workload", workload, "--seed", "3", "--seconds", seconds,
               "--trace", str(trace), "--scale", "smoke", *extra)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", common.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result = _smoke(workload, trace)
    section = SPEC["end_to_end" if trace == 0 else "per_layer"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in section}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        assert result["metrics"]["trace.coverage"]["value"] >= 0.95


def test_injected_digest_mismatch_counts_as_failed():
    result = _smoke("synth-build", 0, "--inject", "digest")
    assert not result["correct"]
    assert result["failed"] >= 1


def test_injected_server_error_counts_as_failed():
    result = _smoke("serve-zipf", 0, "--inject", "5xx", seconds="2")
    assert not result["correct"]
    assert result["failed"] >= 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "crowdbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run("--workload", "synth-build", "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert not any(line.startswith("{") for line in out.stdout.splitlines())


def test_interleave_keeps_every_prefix_in_proportion():
    classes = browse.key_classes([f"u{i}" for i in range(240)], 24)
    sizes = [len(c) for c in classes]
    merged = browse._interleave(classes)
    assert sorted(merged) == sorted(k for c in classes for k in c)
    owner = {key: i for i, c in enumerate(classes) for key in c}
    counts = [0] * len(classes)
    for n, key in enumerate(merged, start=1):
        counts[owner[key]] += 1
        for i, size in enumerate(sizes):
            assert abs(counts[i] - n * size / len(merged)) <= 1


def test_key_space_covers_every_data_route():
    classes = browse.key_classes(["u1", "u2"], 3)
    keys = [k for c in classes for k in c]
    assert "/api/flows/1" in keys and "/api/flows/2" not in keys
    assert {"/api/metrics/u1", "/api/user/u2", "/user/u1", "/city?window=2"} <= set(keys)
    assert len(keys) == len(set(keys))


def test_pages_are_browser_visits_and_api_keys_are_script_requests():
    assert browse._expand("/api/user/u1") == [("/api/user/u1", False)]
    assert browse._expand("/user/u1") == [("/user/u1", True)]
    city = browse._expand("/city?window=3")
    assert len(city) == 2 + 16 and all(browser for _, browser in city)
    assert ("/api/tiles/2/3/1?window=3", True) in city


def test_evictions_are_counted_exactly():
    common.use_program()
    import tracing
    from repro.web.cache import ResponseCache

    tracer = tracing.Tracer()
    tracing.install(tracer)
    cache = ResponseCache("fp", max_entries=2)
    for key in ("a", "b", "a", "c", "d"):
        cache.store(cache.key(key), b"x", "text/plain")
    # Re-storing "a" into the full cache replaces it and evicts nothing.
    assert [s["evicted"] for s in tracer.spans if s["name"] == "web.cache.store"] == [
        0, 0, 0, 1, 1]


def test_sequence_depends_only_on_the_seed():
    users = [f"u{i}" for i in range(50)]
    first = browse.build_sequence(users, 24, 11)
    assert first == browse.build_sequence(users, 24, 11)
    assert first != browse.build_sequence(users, 24, 12)
    assert sum(map(len, first)) >= browse.SEQUENCE_REQUESTS


def test_strict_json_rejects_nan():
    assert common.strict_json('{"a": 1.5}') == {"a": 1.5}
    with pytest.raises(ValueError):
        common.strict_json('{"a": NaN}')


def test_coverage_counts_layer_spans_under_the_glue():
    def span(sid, parent, name, start, end):
        return {"id": sid, "parent": parent, "name": name, "start": start, "end": end}

    spans = [
        span(1, None, "ready", 0.0, 10.0),
        span(2, 1, "data.io.read", 0.0, 1.0),
        span(3, 1, "pipeline.run", 1.0, 6.0),
        span(4, 3, "data.preprocess", 1.0, 3.0),
        span(5, 3, "patterns.detect", 3.0, 5.5),
        span(6, 5, "mining.mine", 3.5, 5.0),
        span(7, 1, "web.warm", 6.0, 9.5),
    ]
    untraced, covered = layers.coverage(spans)
    assert untraced == pytest.approx(1.0)
    assert covered == pytest.approx(0.9)


def test_host_speed_converts_wall_time_to_reference_seconds():
    sampler = hostspeed.Sampler()
    ref = hostspeed.REF_UNIT_S
    # Ten samples a second: the CPU runs at the reference speed for 2 s, at
    # half of it for the next 2 s, and one sample was preempted.
    sampler.starts = [i / 10 for i in range(40)]
    sampler.durations = [ref] * 20 + [2 * ref] * 20
    sampler.durations[5] = 50 * ref
    assert sampler.seconds(0.0, 2.0) == pytest.approx(2.0)
    assert sampler.seconds(2.0, 4.0) == pytest.approx(1.0)
    # A short interval is widened to the nearest MIN_SAMPLES samples.
    assert sampler.factor(3.0, 3.0) == pytest.approx(0.5)
    factor_at = sampler.binned(0.0, 4.0)
    assert factor_at(1.5) == pytest.approx(1.0) and factor_at(2.5) == pytest.approx(0.5)
    assert layers.in_reference_units({"web.render_s": 2.0, "web.render.count": 7}, 0.5) == {
        "web.render_s": 1.0, "web.render.count": 7}
