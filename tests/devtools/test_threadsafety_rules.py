"""CW7xx — thread-safety rules: seeded oracles and clean twins.

The seeded-bug fixture is the acceptance oracle for the race detector: an
unguarded shared-dict write reachable from a handler thread must be
detected, and its clean twin — identical shape, correct locking — must
produce zero findings.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List

from repro.devtools import Finding, LintEngine

from .conftest import write_tree

CW7XX = ["CW701", "CW702"]


def lint_tree(root: Path, modules: Dict[str, str], select=None) -> List[Finding]:
    write_tree(root, modules)
    return LintEngine(select=select or CW7XX).lint_paths([root])


SEEDED_HANDLER_BUG = {
    "repro.web.serve": """
        from http.server import BaseHTTPRequestHandler

        HITS = {}


        class Handler(BaseHTTPRequestHandler):
            def do_GET(self):
                record(self.path)


        def record(path):
            HITS[path] = HITS.get(path, 0) + 1
        """
}

#: Identical shape, but every access takes the module lock.
CLEAN_HANDLER_TWIN = {
    "repro.web.serve": """
        import threading

        from http.server import BaseHTTPRequestHandler

        HITS = {}
        _LOCK = threading.Lock()


        class Handler(BaseHTTPRequestHandler):
            def do_GET(self):
                record(self.path)


        def record(path):
            with _LOCK:
                HITS[path] = HITS.get(path, 0) + 1
        """
}


class TestSeededOracles:
    def test_handler_bug_detected(self, tmp_path):
        findings = lint_tree(tmp_path, SEEDED_HANDLER_BUG)
        assert [f.rule_id for f in findings] == ["CW701"]
        finding = findings[0]
        assert "HITS" in finding.message
        assert "handler" in finding.message
        assert finding.severity == "error"  # web layer

    def test_handler_clean_twin_is_silent(self, tmp_path):
        assert lint_tree(tmp_path, CLEAN_HANDLER_TWIN) == []


class TestInconsistentGuard:
    def test_bare_minority_write_flagged(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "repro.webapp.mixed": """
                    import threading

                    LOCK = threading.Lock()
                    CACHE = {}


                    def put_a():
                        with LOCK:
                            CACHE["a"] = 1


                    def put_b():
                        with LOCK:
                            CACHE["b"] = 2


                    def put_c():
                        CACHE["c"] = 3


                    def start():
                        threading.Thread(target=put_a).start()
                        threading.Thread(target=put_b).start()
                        threading.Thread(target=put_c).start()
                    """
            },
        )
        assert [f.rule_id for f in findings] == ["CW702"]
        assert "put_c" in findings[0].message
        assert "_LOCK" in findings[0].message or "LOCK" in findings[0].message


class TestSeverityAndSuppression:
    def test_warning_outside_concurrent_layers(self, tmp_path):
        modules = {
            "repro.mining.serve": SEEDED_HANDLER_BUG["repro.web.serve"]
        }
        findings = lint_tree(tmp_path, modules)
        assert [f.rule_id for f in findings] == ["CW701"]
        assert findings[0].severity == "warning"

    def test_pragma_suppresses_with_justification(self, tmp_path):
        modules = {
            "repro.webapp.serve": SEEDED_HANDLER_BUG["repro.web.serve"].replace(
                "HITS[path] = HITS.get(path, 0) + 1",
                "HITS[path] = HITS.get(path, 0) + 1  "
                "# crowdlint: disable=CW701 -- benign last-write-wins counter",
            )
        }
        assert lint_tree(tmp_path, modules) == []

