"""The real tree must be lint-clean, and seeded domain bugs must be caught.

These two tests are the subsystem's acceptance criteria: the first keeps the
repo honest (CI runs the same command), the second keeps the *linter* honest —
if a rule regresses into a no-op, the seeded-bug fixture fails.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.devtools import LintEngine
from repro.devtools.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_src_and_tests_trees_are_lint_clean():
    findings = LintEngine().lint_paths([REPO_ROOT / "src", REPO_ROOT / "tests"])
    assert findings == [], "\n".join(f.format() for f in findings)


def test_cli_exits_zero_on_the_repo(tmp_path):
    args = [str(REPO_ROOT / "src"), str(REPO_ROOT / "tests"), "--cache-dir", str(tmp_path)]
    assert main(args) == 0


def test_cli_exits_nonzero_on_seeded_domain_bugs(tmp_path, capsys):
    """One seeded bug per rule family; a pack regressing to a no-op fails here."""
    pkg = tmp_path / "repro" / "mining"
    pkg.mkdir(parents=True)
    (tmp_path / "repro" / "__init__.py").write_text("")
    (pkg / "__init__.py").write_text("")
    (pkg / "seeded.py").write_text(
        textwrap.dedent(
            """\
            import random
            import threading
            from datetime import datetime

            from repro.web import api
            from repro.exec import ordered_map

            __all__ = ["count", "dedupe", "fanout", "load", "place", "record", "shuffled", "start"]

            _LOCK = threading.Lock()
            HITS = {}


            def place(venue):
                p = GeoPoint(venue.lon, venue.lat)
                stamped = datetime.now()
                return p, stamped


            def shuffled(venues):
                return random.sample(venues, len(venues))


            def fanout(items):
                return ordered_map(lambda x: x + 1, items)


            def count(obs, venues):
                obs.inc("repro_mining_venues_counted", len(venues))


            def dedupe(venues):
                seen = []
                for venue in venues:
                    if venue not in seen:
                        seen.append(venue)
                return seen


            def record(key):
                HITS[key] = 1


            def start():
                threading.Thread(target=record, args=("k",)).start()


            def load(path):
                handle = open(path)
                data = handle.read()
                return data
            """
        )
    )
    assert main(["--no-cache", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "CW101" in out  # CW1xx: lat/lon swap
    assert "CW103" in out  # CW1xx: naive datetime
    assert "CW108" in out  # CW1xx: forbidden mining -> web import
    assert "CW201" in out  # CW2xx: unseeded global RNG
    assert "CW301" in out  # CW3xx: lambda shipped to ordered_map
    assert "CW302" in out  # CW3xx: module-level lock
    assert "CW401" in out  # CW4xx: metric name missing its unit segment
    assert "CW501" in out  # CW5xx: list membership probed inside a loop
    assert "CW604" in out  # CW6xx: __all__ entries nothing else references
    assert "CW701" in out  # CW7xx: unguarded write from a worker thread
    assert "CW801" in out  # CW8xx: file handle never closed
