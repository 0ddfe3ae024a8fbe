"""One measured process of the CrowdWeb benchmark.

``prepare`` generates the synthetic city and writes it as a Foursquare TSV
(the set-up of ``tsv-build`` and ``serve-zipf``).  ``build`` is one
iteration of a build workload in a fresh interpreter: it prints
``{"imported": true}`` once the program is imported, then times the path
from the first call with input to a fully warmed response cache, then checks
the outputs and prints one JSON result line.  Without ``--tsv`` that path is
``synth-build``'s: generate the city, run the paper-default pipeline.  With
``--tsv`` it is ``tsv-build``'s: read the TSV, run the pipeline mining every
user.  Its times are ``time.perf_counter()`` readings, which ``run.py``
converts to reference seconds (see ``hostspeed.py``).  ``run.py`` starts
these; they are not run by hand.

With ``--spans PATH`` the process records spans (see ``tracing.py``) and
writes them to ``PATH`` when it ends.
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path

import common
import tracing


def prepare(args, tracer) -> dict:
    from repro.data import generate, write_foursquare_tsv

    span = tracing.span_factory(tracer)
    with span("data.synth.generate") as record:
        dataset = generate(common.synth_config(args.seed, args.scale)).dataset
        record["rows"] = len(dataset)
    with span("data.io.write") as record:
        write_foursquare_tsv(dataset, args.tsv)
        record["rows"] = len(dataset)
    return {"tsv_sha256": common.tsv_sha256(Path(args.tsv))}


def build(args, tracer) -> dict:
    from repro.data import generate, read_foursquare_tsv
    from repro.pipeline import PipelineConfig, run_pipeline
    from repro.web.server import CrowdWebApp

    span = tracing.span_factory(tracer)
    if args.tsv:
        config = common.tsv_pipeline_config()
    else:
        synth_config = common.synth_config(args.seed, args.scale)
        config = PipelineConfig()
    t0 = time.perf_counter()
    with span("ready"):
        if args.tsv:
            with span("data.io.read") as record:
                dataset = read_foursquare_tsv(args.tsv)
                record["rows"] = len(dataset)
        else:
            with span("data.synth.generate") as record:
                dataset = generate(synth_config).dataset
                record["rows"] = len(dataset)
        with span("pipeline.run"):
            result = run_pipeline(dataset, config)
        with span("web.app"):
            app = CrowdWebApp(result)
        with span("web.warm"):
            warmed = app.warm()
    t1 = time.perf_counter()
    rss_mb = common.peak_rss_mb()

    failures = []
    n_paths = len(app.warm_paths())
    if warmed != n_paths:
        failures.append(f"warm served {warmed} of {n_paths} paths with 200")
    return {
        "t0": t0,
        "t1": t1,
        "peak_rss_mb": rss_mb,
        "dataset_sha256": common.dataset_sha256(dataset, Path(args.scratch), span),
        "result_sha256": common.result_sha256(result),
        "checks": 1,
        "failures": failures,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("prepare", "build"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", choices=sorted(common.SCALES), default="bench")
    parser.add_argument("--tsv")
    parser.add_argument("--scratch")
    parser.add_argument("--spans")
    args = parser.parse_args()

    common.use_program()
    import repro.pipeline  # noqa: F401  (the program's import is set-up, not timed)
    import repro.web.server  # noqa: F401

    tracer = None
    if args.spans:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    common.emit({"imported": True})
    out = prepare(args, tracer) if args.mode == "prepare" else build(args, tracer)
    if tracer is not None:
        tracer.dump(args.spans, mode=args.mode, seed=args.seed)
    common.emit(out)


if __name__ == "__main__":
    main()
