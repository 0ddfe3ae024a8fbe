"""Shared constants and helpers of the CrowdWeb benchmark.

The benchmark runs from the root of a source checkout: ``src/`` holds the
program, ``crowdbench/`` the benchmark, and everything a run writes goes to
``.crowdbench-out/`` next to them.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import resource
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".crowdbench-out"

WORKLOADS = ("synth-build", "tsv-build", "serve-zipf")

#: Synthetic-city sizes.  ``bench`` is the city the workloads are defined on;
#: ``smoke`` is a seconds-long city for the benchmark's self-tests that still
#: spans the whole simulated period, so the paper's activity filter keeps users.
SCALES: Dict[str, Dict[str, int]] = {
    "bench": {"n_users": 300, "n_venues": 2500},
    "smoke": {"n_users": 60, "n_venues": 400, "n_neighborhoods": 8},
}

#: Pipeline settings of the real-data path (the ``serve-zipf`` server): mine
#: every user at the paper's low-support sweep point.
TSV_MIN_QUALIFYING_DAYS = 0
TSV_MIN_SUPPORT = 0.2

#: Cities a ``serve-zipf`` run builds and browses.  How much mining, crowd
#: and render work a bench-scale city takes changes with its seed, mostly
#: with how many of its 300 users check in near daily (the generator draws
#: each user's kind at random), by about a tenth of the build time from city
#: to city.  Three cities per run average that out.
SERVE_CITIES = 3


def city_seeds(seed: int, n: int) -> List[int]:
    """Generator seeds of a run's ``n`` cities: the run's seed, then seeds
    derived from it, so that runs of nearby seeds share no city."""
    return [seed] + [random.Random(f"{seed}/{i}").getrandbits(31) for i in range(1, n)]


def tsv_name(index: int) -> str:
    """File name of a run's ``index``-th generated check-in dump."""
    return f"city-{index}.tsv"


def program_present() -> bool:
    """Is there a program to measure next to the benchmark?"""
    return (SRC / "repro" / "__init__.py").is_file() and (SRC / "repro" / "web").is_dir()


def use_program() -> None:
    """Put the checkout's ``src/`` first on the import path."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def synth_config(seed: int, scale: str):
    """The synthetic-city config of a workload (imports the program)."""
    from repro.data import SynthConfig

    return SynthConfig(seed=seed, **SCALES[scale])


def tsv_pipeline_config():
    """``PipelineConfig`` of the real-data path; every other field is the default."""
    from repro.data import ActiveUserFilter
    from repro.mining import ModifiedPrefixSpanConfig
    from repro.pipeline import PipelineConfig

    return PipelineConfig(
        activity=ActiveUserFilter(min_qualifying_days=TSV_MIN_QUALIFYING_DAYS),
        mining=ModifiedPrefixSpanConfig(min_support=TSV_MIN_SUPPORT),
    )


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tsv_sha256(path: Path) -> str:
    """Digest of a Foursquare TSV as a set of rows: its lines in sorted order.

    The TSV keeps whole seconds, and a dataset orders one user's check-ins by
    time and then venue, so two check-ins in the same second can swap places
    when a generated dataset is written and read back.
    """
    with open(path, "rb") as fh:
        lines = fh.read().splitlines(keepends=True)
    return hashlib.sha256(b"".join(sorted(lines))).hexdigest()


def dataset_sha256(dataset, scratch: Path, span) -> str:
    """Digest of a dataset: that of its Foursquare TSV, written under ``scratch``."""
    from repro.data import write_foursquare_tsv

    path = scratch / f"digest-{os.getpid()}.tsv"
    with span("data.io.write") as record:
        write_foursquare_tsv(dataset, path)
        record["rows"] = len(dataset)
    try:
        return tsv_sha256(path)
    finally:
        path.unlink()


def result_sha256(result) -> str:
    """Digest of a pipeline result: every profile plus every timeline placement."""
    digest = hashlib.sha256()
    for user_id in sorted(result.profiles):
        digest.update(json.dumps(result.profiles[user_id].to_dict(), sort_keys=True).encode())
        digest.update(b"\n")
    for snapshot in result.timeline:
        digest.update(snapshot.window.label.encode())
        for p in snapshot.placements:
            digest.update(repr((p.user_id, p.bin, p.label, p.support, tuple(p.cell),
                                p.venue_id, p.lat, p.lon, p.n_evidence)).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100) by linear interpolation between ranks."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def emit(obj: Dict[str, Any]) -> None:
    """Write one JSON line to stdout and flush it (the worker protocol)."""
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def child_env() -> Dict[str, str]:
    """Environment of benchmark processes: each gets its own random hash seed,
    so the digest agreement across iterations also catches output that
    depends on set or dict-of-str iteration order."""
    env = dict(os.environ)
    env.pop("PYTHONHASHSEED", None)
    return env


def strict_json(text: str) -> Any:
    """Parse JSON, rejecting the ``NaN``/``Infinity`` literals strict JSON forbids."""
    def reject(token: str):
        raise ValueError(f"non-standard JSON literal {token}")

    return json.loads(text, parse_constant=reject)
