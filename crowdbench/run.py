"""The CrowdWeb benchmark: build-to-ready and dashboard browsing, end to end.

Run from the root of a source checkout::

    python3 crowdbench/run.py --workload serve-zipf --seed 1 --seconds 20 --trace 0
    python3 crowdbench/run.py --workload all --seed 20230701 --seconds 20 --trace 0

Workloads (see README.md for why each exists and what it should move):

* ``synth-build`` — generate the bench-scale synthetic city, run the
  paper-default pipeline, warm the web cache.
* ``tsv-build``   — read the same city from a Foursquare TSV written in
  set-up, run the pipeline mining every user at low support, warm the cache.
* ``serve-zipf``  — for each of three cities, a server reads the city from a
  Foursquare TSV written in set-up, mines every user at low support and warms
  its cache; two keep-alive connections browse a seeded Zipf sequence over
  the dashboard's key space.

Every time is reported in reference seconds (see ``hostspeed.py``).

With ``--trace 0`` the last stdout line is the end-to-end result; with
``--trace 1`` it holds the per-layer metrics of a traced run, and the spans
are written to ``.crowdbench-out/trace-<workload>-seed<seed>.json``.  Every
run prints a ``STAMP`` line first.  Exit code 2 means the checkout holds no
program to measure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import queue
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import common
import hostspeed
from common import OUT, ROOT, median, percentile

BENCH = common.BENCH_DIR
#: Build iterations per run at least, each in a fresh interpreter.
MIN_ITERATIONS = 3
#: The ``serve-zipf`` city whose browse sends the refresh, and whose server
#: is traced in a traced run.
TRACED_CITY = 1
#: Seconds a child may take to answer one protocol step.
CHILD_TIMEOUT_S = 170.0
#: The path the ``--inject 5xx`` self-test makes the server fail.
INJECTED_FAIL_PATH = "/api/stats"

END_TO_END_UNITS = {
    "setup_s": "s",
    "ready_s": "s",
    "peak_rss_mb": "MiB",
    "req_per_s": "1/s",
    "p50_ms": "ms",
    "p99_ms": "ms",
}


class ChildFailed(RuntimeError):
    pass


class Child:
    """A benchmark process speaking one JSON object per stdout line.

    ``answered`` is the ``time.perf_counter()`` reading at which the line
    last returned by ``next_json`` arrived.
    """

    def __init__(self, script: str, *argv: str) -> None:
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / script), *argv],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            cwd=str(ROOT), env=common.child_env(),
        )
        self.answered = self.started
        self._lines: "queue.Queue[Optional[Tuple[float, str]]]" = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self._lines.put((time.perf_counter(), line))
        self._lines.put(None)

    def next_json(self, timeout: float = CHILD_TIMEOUT_S) -> Dict:
        deadline = time.perf_counter() + timeout
        while True:
            try:
                item = self._lines.get(timeout=max(0.0, deadline - time.perf_counter()))
            except queue.Empty:
                raise ChildFailed(f"{self.proc.args[1]}: no answer in {timeout:.0f} s") from None
            if item is None:
                raise ChildFailed(f"{self.proc.args[1]} exited with code {self.proc.wait()}")
            arrived, line = item
            if line.startswith("{"):
                self.answered = arrived
                return json.loads(line)

    def finish(self, timeout: float = 30.0) -> None:
        """Close stdin (the stop signal), wait for exit, kill on timeout."""
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self._reader.join(timeout=5)


def _git(*argv: str) -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), *argv], capture_output=True,
                             text=True, timeout=20, check=False)
    except OSError:
        return None
    return out.stdout if out.returncode == 0 else None


def _src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted(common.SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(common.SRC)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def stamp(args, params: Dict) -> Dict:
    rev = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain")
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale,
        "n_cpus": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_rev": rev.strip() if rev else "unknown",
        "git_dirty": bool(status.strip()) if status is not None else None,
        "src_sha256": _src_sha256(),
        "params": params,
    }


def workload_params(workload: str, scale: str) -> Dict:
    city = dict(common.SCALES[scale])
    if workload == "synth-build":
        return {"city": city, "pipeline": "PipelineConfig()", "min_builds": MIN_ITERATIONS}
    tsv = {
        "city": city,
        "pipeline": {"activity.min_qualifying_days": common.TSV_MIN_QUALIFYING_DAYS,
                     "mining.min_support": common.TSV_MIN_SUPPORT},
    }
    if workload == "tsv-build":
        return {**tsv, "min_builds": MIN_ITERATIONS}
    import browse

    return {
        **tsv,
        "cities": common.SERVE_CITIES, "connections": browse.CONNECTIONS, "loop": "closed",
        "zipf_exponent": browse.ZIPF_EXPONENT, "sequence_requests": browse.SEQUENCE_REQUESTS,
        "gzip": "browser requests", "if_none_match": "browser requests with a held ETag",
        "refreshes": 1,
    }


class Tally:
    """Operations and checks attempted, and those that failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)


def _load_spans(path: Path) -> List[Dict]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["spans"]


def _pinned(scale: str, seed: int) -> Optional[Dict]:
    """The pinned digests, if this run is at the pinned seed and scale."""
    with open(BENCH / "pinned.json", encoding="utf-8") as fh:
        pinned = json.load(fh)
    return pinned if (pinned["seed"], pinned["scale"]) == (seed, scale) else None


def _prepare(args, work: Path, index: int, seed: int) -> Dict:
    """Generate a city and write its TSV (the set-up of tsv-build and serve-zipf)."""
    argv = ["prepare", "--seed", str(seed), "--scale", args.scale,
            "--tsv", str(work / common.tsv_name(index))]
    if args.trace:
        argv += ["--spans", str(work / f"prepare-{index}.spans.json")]
    child = Child("worker.py", *argv)
    try:
        child.next_json()
        info = child.next_json()
    finally:
        child.finish()
    info.update(started=child.started, answered=child.answered)
    return info


def _check_digests(args, tally: Tally, runs: List[Dict]) -> None:
    """All builds of the run's seed agree on both digests, which match any pinned ones."""
    if args.inject == "digest":
        runs[0]["result_sha256"] = "0" * 64
    for kind in ("dataset_sha256", "result_sha256"):
        values = {run[kind] for run in runs}
        tally.check(len(values) == 1, f"builds disagree on the {kind}: {sorted(values)}")
        print(f"# {kind} = {runs[0][kind]}")
    pinned = _pinned(args.scale, args.seed)
    if pinned is not None:
        tally.check(runs[0]["dataset_sha256"] == pinned["dataset_sha256"],
                    "dataset_sha256 does not match the pinned digest")
        tally.check(runs[0]["result_sha256"] == pinned["result_sha256"][args.workload],
                    "result_sha256 does not match the pinned digest")


def run_build(args, work: Path, tally: Tally, dumps: List,
              speed: hostspeed.Sampler) -> Dict[str, float]:
    from_tsv = args.workload == "tsv-build"
    prepared = _prepare(args, work, 0, args.seed) if from_tsv else None
    iterations: List[Dict] = []
    t0 = time.perf_counter()
    while len(iterations) < MIN_ITERATIONS or time.perf_counter() - t0 < args.seconds:
        traced = bool(args.trace) and len(iterations) % 2 == 1
        argv = ["build", "--seed", str(args.seed), "--scale", args.scale,
                "--scratch", str(work)]
        if from_tsv:
            argv += ["--tsv", str(work / common.tsv_name(0))]
        spans_path = work / f"build-{len(iterations)}.spans.json"
        if traced:
            argv += ["--spans", str(spans_path)]
        child = Child("worker.py", *argv)
        try:
            child.next_json()
            imported = child.answered
            result = child.next_json()
        except ChildFailed as exc:
            tally.check(False, f"build iteration {len(iterations)}: {exc}")
            break
        finally:
            child.finish()
        result.update(started=child.started, imported=imported, traced=traced)
        if traced:
            result["spans"] = _load_spans(spans_path)
            dumps.append({"role": f"build-{len(iterations)}", "spans": result["spans"]})
        iterations.append(result)
        tally.attempted += 1 + result["checks"]
        tally.failures += result["failures"]
    if not iterations:
        raise ChildFailed("no build iteration completed")
    if from_tsv:
        tally.check(iterations[0]["dataset_sha256"] == prepared["tsv_sha256"],
                    "the dataset the builds read differs from the TSV written in set-up")
    _check_digests(args, tally, iterations)
    # Set-up is the city's generation and TSV write, if any, plus one import.
    prepare_s = speed.seconds(prepared["started"], prepared["answered"]) if from_tsv else 0.0
    for it in iterations:
        it["setup_s"] = prepare_s + speed.seconds(it["started"], it["imported"])
        it["ready_s"] = speed.seconds(it["t0"], it["t1"])
    _print_samples("builds, ready_s", [(it["ready_s"], it["t1"] - it["t0"]) for it in iterations])

    plain = [it for it in iterations if not it["traced"]]
    if args.trace:
        import layers

        setup: Dict[str, float] = {}
        if from_tsv:
            setup_spans = _load_spans(work / "prepare-0.spans.json")
            dumps.append({"role": "prepare-0", "spans": setup_spans})
            setup = layers.in_reference_units(
                layers.setup_metrics(setup_spans),
                speed.factor(prepared["started"], prepared["answered"]))
        metrics = layers.median_metrics([
            layers.with_setup(layers.in_reference_units(layers.layer_metrics(it["spans"]),
                                                        speed.factor(it["t0"], it["t1"])),
                              setup)
            for it in iterations if it["traced"]])
        metrics["trace.overhead_ratio"] = (
            median([it["ready_s"] for it in iterations if it["traced"]])
            / median([it["ready_s"] for it in plain]))
        return metrics
    # On a build workload one request is one build, from input to warmed cache.
    ready = [it["ready_s"] for it in plain]
    return {
        "setup_s": median([it["setup_s"] for it in plain]),
        "ready_s": median(ready),
        "peak_rss_mb": median([it["peak_rss_mb"] for it in plain]),
        "req_per_s": len(ready) / sum(ready),
        "p50_ms": percentile(ready, 50) * 1e3,
        "p99_ms": percentile(ready, 99) * 1e3,
    }


def _print_samples(what: str, samples: List[Tuple[float, float]]) -> None:
    """One ``# samples:`` line: each value in reference seconds, then wall seconds."""
    print(f"# samples: {len(samples)} {what} in reference seconds (wall) "
          + " ".join(f"{ref:.3f}({wall:.3f})" for ref, wall in samples))


def _start_server(args, work: Path, index: int, traced: bool):
    argv = ["--tsv", str(work / common.tsv_name(index))]
    if traced:
        argv += ["--spans", str(work / f"server-{index}.spans.json")]
    if args.inject == "5xx":
        argv += ["--fail-path", INJECTED_FAIL_PATH]
    child = Child("server.py", *argv)
    try:
        ready = child.next_json()
    except ChildFailed:
        child.finish()
        raise
    ready.update(started=child.started, answered=child.answered)
    return child, ready


def _browse(port: int, tally: Tally, seed: int, seconds: float, refresh: bool):
    """The timed browse against a ready server, then its output checks."""
    import browse

    user_ids = [u["user_id"] for u in browse.fetch_json(port, "/api/users")["users"]]
    n_windows = len(browse.fetch_json(port, "/api/crowd")["windows"])
    visits = browse.build_sequence(user_ids, n_windows, seed)
    tally.attempted += len(browse.HEAD_KEYS)
    tally.failures += browse.touch_head(port)
    browser = browse.Browser(port, visits, seconds, refresh)
    browser.run()
    checks, failures = browser.check_outputs()
    # The browser logs exactly one error per request that failed.
    tally.attempted += len(browser.records) + checks
    tally.failures += browser.errors + failures
    print(f"# samples: {len(browser.records) - refresh} GET requests, "
          f"{len(visits)} visits in the sequence, {sum(map(len, visits))} requests")
    return browser


def run_serve(args, work: Path, tally: Tally, dumps: List,
              speed: hostspeed.Sampler) -> Dict[str, float]:
    seeds = common.city_seeds(args.seed, common.SERVE_CITIES)
    prepared = [_prepare(args, work, index, seed) for index, seed in enumerate(seeds)]
    baseline = None
    if args.trace:
        # The traced city's build once more, untraced, for trace.overhead_ratio.
        child, baseline = _start_server(args, work, TRACED_CITY, False)
        child.finish()
    servers, browsers = [], []
    for index, seed in enumerate(seeds):
        child, ready = _start_server(args, work, index, index == TRACED_CITY and bool(args.trace))
        try:
            browsers.append(_browse(ready["port"], tally, seed, args.seconds / len(seeds),
                                    refresh=index == TRACED_CITY))
            child.proc.stdin.close()  # the server's stop signal
            ready.update(child.next_json())
        finally:
            child.finish()
        servers.append(ready)
    for ready, city in zip(servers, prepared):
        tally.check(ready["warmed_all"], "the warm answered a route with a non-200 status")
        tally.check(ready["dataset_sha256"] == city["tsv_sha256"],
                    "the dataset a server read differs from the TSV written in set-up")
    _check_digests(args, tally, servers[:1])
    for ready in servers + ([baseline] if baseline else []):
        ready["start_s"] = speed.seconds(ready["started"], ready["answered"])
        ready["ready_s"] = speed.seconds(ready["t0"], ready["t1"])
    _print_samples("server builds, one per city, ready_s",
                   [(s["ready_s"], s["t1"] - s["t0"]) for s in servers])

    if args.trace:
        import layers

        for kind in ("dataset_sha256", "result_sha256"):
            tally.check(baseline[kind] == servers[TRACED_CITY][kind],
                        f"the traced city's two builds disagree on the {kind}")
        setup: Dict[str, float] = {}
        for index, city in enumerate(prepared):
            spans = _load_spans(work / f"prepare-{index}.spans.json")
            dumps.append({"role": f"prepare-{index}", "spans": spans})
            setup = layers.with_setup(layers.in_reference_units(
                layers.setup_metrics(spans), speed.factor(city["started"], city["answered"])),
                setup)
        spans = _load_spans(work / f"server-{TRACED_CITY}.spans.json")
        browser = browsers[TRACED_CITY]
        dumps.append({"role": "server", "spans": spans})
        dumps.append({"role": "client", "requests": [
            [r.req, r.path, r.start, r.end, r.status] for r in browser.records]})
        client = {r.req: r.end - r.start for r in browser.records}
        traced = servers[TRACED_CITY]
        metrics = layers.with_setup(
            layers.in_reference_units(
                layers.layer_metrics(spans, layers.http_overhead_ms(spans, client)),
                speed.factor(traced["t0"], browser.t_end)),
            setup)
        metrics["trace.overhead_ratio"] = traced["ready_s"] / baseline["ready_s"]
        return metrics
    latencies_ms: List[float] = []
    browse_s = 0.0
    for browser in browsers:
        factor_at = speed.binned(browser.t0, browser.t_end)
        latencies_ms += [(r.end - r.start) * factor_at(r.start) * 1e3
                         for r in browser.records if r is not browser.refresh]
        seconds = speed.seconds(browser.t0, browser.t_end)
        browse_s += seconds
        print(f"# wall: browse {browser.t_end - browser.t0:.3f} s, {seconds:.3f} reference s, "
              f"{len(browser.records)} requests")
    return {
        "setup_s": (sum(speed.seconds(city["started"], city["answered"]) for city in prepared)
                    + statistics.fmean([s["start_s"] for s in servers])),
        "ready_s": statistics.fmean([s["ready_s"] for s in servers]),
        "peak_rss_mb": statistics.fmean([s["peak_rss_mb"] for s in servers]),
        "req_per_s": sum(len(b.records) for b in browsers) / browse_s,
        "p50_ms": percentile(latencies_ms, 50),
        "p99_ms": percentile(latencies_ms, 99),
    }


def run_one(args) -> int:
    # Every process of the run shares one CPU with the host-speed sampler.
    hostspeed.pin_to_one_cpu()
    run_stamp = stamp(args, workload_params(args.workload, args.scale))
    print("STAMP " + json.dumps(run_stamp), flush=True)
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    dumps: List[Dict] = []
    try:
        runner = run_build if args.workload != "serve-zipf" else run_serve
        with hostspeed.Sampler() as speed:
            values = runner(args, work, tally, dumps, speed)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.trace:
        import layers

        units = layers.PER_LAYER_UNITS
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump({"stamp": run_stamp, "processes": dumps}, fh)
        print(f"# spans written to {trace_path.relative_to(ROOT)}")
    else:
        units = END_TO_END_UNITS
    failed = len(tally.failures)
    for message in tally.failures[:20]:
        print(f"# FAILED: {message}")
    for name, unit in units.items():
        print(f"# {name} = {values[name]:.6g} {unit}")
    print(f"# error_ratio = {failed}/{tally.attempted} = {failed / tally.attempted:.6g}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }), flush=True)
    return 0


def _record(path: Path, kind: str, recorded: Dict) -> None:
    """Merge one ``--workload all`` pass into a baseline file, under ``kind``."""
    baseline = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    for workload, entry in recorded.items():
        baseline.setdefault(workload, {})[kind] = entry
    path.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {kind} results in {path}")


def run_all(args) -> int:
    """Each workload in its own process; a table, then one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    recorded = {}
    for workload in common.WORKLOADS:
        argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--scale", args.scale]
        out = subprocess.run(argv, cwd=str(ROOT), capture_output=True, text=True, check=False)
        sys.stderr.write(out.stderr)
        if out.returncode != 0:
            print(f"{workload}: exited with code {out.returncode}")
            return out.returncode
        lines = out.stdout.splitlines()
        result = json.loads(lines[-1])
        run_stamp = json.loads(lines[0][len("STAMP "):])
        print(f"== {workload}: correct={result['correct']} "
              f"error_ratio={result['failed']}/{result['attempted']}")
        for name, metric in result["metrics"].items():
            print(f"   {name:28s} {metric['value']:14.6g} {metric['unit']}")
            combined["metrics"][f"{workload}/{name}"] = metric
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        recorded[workload] = {"stamp": run_stamp, "result": result}
    if args.record:
        _record(Path(args.record), "per_layer" if args.trace else "end_to_end", recorded)
    print(json.dumps(combined), flush=True)
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=common.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(common.SCALES), default="bench",
                        help="city size; 'smoke' is for the self-tests")
    parser.add_argument("--inject", choices=("digest", "5xx"),
                        help="self-test only: corrupt one result digest, or make "
                             f"the server answer 500 on {INJECTED_FAIL_PATH}")
    parser.add_argument("--record", help="with --workload all: merge the results into "
                                         "this baseline file")
    args = parser.parse_args()
    if not common.program_present():
        print(f"error: no program under {common.SRC}; run from the root of a "
              "CrowdWeb source checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
