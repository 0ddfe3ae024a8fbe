"""Server bootstrap of the ``serve-zipf`` workload.

Builds the served result the way a user serves real data — read the TSV,
run the pipeline mining every user, warm the response cache — behind a real
``CrowdWebServer`` on an ephemeral localhost port.  Then it takes the output
digests, prints ``{"port": ..., "t0": ..., "t1": ...}`` (the
``time.perf_counter()`` readings around the build) and serves until a line
(or end of file) arrives on stdin.  On the way out it prints its peak RSS
and, with ``--spans PATH``, writes its spans there.

``--fail-path PATH`` makes every request for ``PATH`` answer 500; the
benchmark's self-test uses it to show that a server error is counted.
``run.py`` starts this; it is not run by hand.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import common
import tracing


def _inject_failure(path: str) -> None:
    from repro.web.server import CrowdWebApp

    original = CrowdWebApp.handle

    def handle(self, method, raw_path, headers=None):
        if raw_path == path:
            return 500, [("Content-Type", "application/json")], b'{"error": "injected"}'
        return original(self, method, raw_path, headers)

    CrowdWebApp.handle = handle


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tsv", required=True)
    parser.add_argument("--spans")
    parser.add_argument("--fail-path")
    args = parser.parse_args()

    common.use_program()
    from repro.data import read_foursquare_tsv
    from repro.pipeline import run_pipeline
    from repro.web.server import CrowdWebServer

    tracer = None
    if args.spans:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    if args.fail_path:
        _inject_failure(args.fail_path)
    span = tracing.span_factory(tracer)

    t0 = time.perf_counter()
    with span("ready"):
        with span("data.io.read") as record:
            dataset = read_foursquare_tsv(args.tsv)
            record["rows"] = len(dataset)
        with span("pipeline.run"):
            result = run_pipeline(dataset, common.tsv_pipeline_config())
        with span("web.app"):
            server = CrowdWebServer(result=result, host="127.0.0.1", port=0)
        with span("web.warm"):
            warmed = server.app.warm()
    t1 = time.perf_counter()
    checks = {
        "warmed_all": warmed == len(server.app.warm_paths()),
        "dataset_sha256": common.dataset_sha256(dataset, Path(args.tsv).parent, span),
        "result_sha256": common.result_sha256(result),
    }
    server.start()
    try:
        common.emit({"port": server.address[1], "t0": t0, "t1": t1, **checks})
        sys.stdin.readline()
    finally:
        server.stop()
    if tracer is not None:
        tracer.dump(args.spans, mode="serve")
    common.emit({"peak_rss_mb": common.peak_rss_mb()})


if __name__ == "__main__":
    main()
