"""CW8xx — exception-flow and resource-lifetime rules.

The seeded fixtures are the acceptance oracle for the v5 analysis: a
leak-on-exception file handle, an unguarded lock hold, a swallowed
propagated exception, and a non-durable atomic save must all be detected —
and their clean twins (identical shape, correct lifecycle) must produce
zero findings.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List

from repro.devtools import Finding, LintEngine
from repro.devtools.cache import LintCache
from repro.devtools.cli import main
from repro.devtools.engine import LintStats

from .conftest import write_tree

CW8XX = ["CW801", "CW802", "CW803", "CW804"]


def lint_tree(root: Path, modules: Dict[str, str], select=None) -> List[Finding]:
    write_tree(root, modules)
    return LintEngine(select=select or CW8XX).lint_paths([root])


#: A raising callee, a leak-on-exception handle, a never-closed handle,
#: an unguarded lock hold, and a broad swallow of the propagated error.
SEEDED_LEAKS = {
    "repro.webapp.leaky": """
        import threading

        LOCK = threading.Lock()


        def risky():
            raise ValueError("boom")


        def leak_file(path):
            handle = open(path)
            data = handle.read()
            risky()
            handle.close()
            return data


        def never_closed(path):
            handle = open(path)
            return len(handle.read().split())


        def lock_leak():
            LOCK.acquire()
            risky()
            LOCK.release()


        def swallow():
            try:
                return risky()
            except Exception:
                return None
        """
}

#: Identical shapes with correct lifecycles: ``with`` for the handle and
#: the lock, the exception handled at its narrow type with the binding used.
CLEAN_LEAK_TWIN = {
    "repro.webapp.leaky": """
        import threading

        LOCK = threading.Lock()


        def risky():
            raise ValueError("boom")


        def leak_file(path):
            with open(path) as handle:
                data = handle.read()
                risky()
            return data


        def closed_in_finally(path):
            handle = open(path)
            try:
                return len(handle.read().split())
            finally:
                handle.close()


        def lock_guarded():
            with LOCK:
                risky()


        def handled(log):
            try:
                return risky()
            except ValueError as exc:
                log.append(str(exc))
                return None
        """
}

SEEDED_ATOMIC = {
    "repro.webapp.store": """
        import json
        import os
        import tempfile


        def save_unsafe(payload, path):
            fd, tmp_name = tempfile.mkstemp(dir=os.path.dirname(path) or ".")
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(payload, handle)
            os.replace(tmp_name, path)
        """
}

CLEAN_ATOMIC_TWIN = {
    "repro.webapp.store": """
        import json
        import os
        import tempfile


        def save_safe(payload, path):
            fd, tmp_name = tempfile.mkstemp(dir=os.path.dirname(path) or ".")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    json.dump(payload, handle)
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(tmp_name, path)
            except BaseException:
                os.unlink(tmp_name)
                raise
        """
}


class TestSeededOracles:
    def test_leak_pack_fires_exactly_once_per_seed(self, tmp_path):
        findings = lint_tree(tmp_path, SEEDED_LEAKS)
        by_rule = sorted((f.rule_id, f.line) for f in findings)
        assert [rule for rule, _ in by_rule] == [
            "CW801",  # leak_file: handle lost if risky() raises
            "CW801",  # never_closed: handle never released at all
            "CW802",  # lock_leak: release skipped when risky() raises
            "CW803",  # swallow: broad handler eats the ValueError
        ]
        messages = {f.rule_id: f.message for f in findings}
        assert "never released" in messages["CW801"]
        assert "ValueError" in messages["CW803"]

    def test_leak_clean_twin_is_silent(self, tmp_path):
        assert lint_tree(tmp_path, CLEAN_LEAK_TWIN) == []

    def test_atomic_persistence_missing_fsync_and_cleanup(self, tmp_path):
        findings = lint_tree(tmp_path, SEEDED_ATOMIC)
        assert [f.rule_id for f in findings] == ["CW804", "CW804"]
        blob = " ".join(f.message for f in findings)
        assert "fsync" in blob and "clean" in blob

    def test_atomic_clean_twin_is_silent(self, tmp_path):
        assert lint_tree(tmp_path, CLEAN_ATOMIC_TWIN) == []


class TestLifetimeJudgment:
    def test_escaped_handle_is_the_callers_problem(self, tmp_path):
        modules = {
            "repro.webapp.give": """
                def provide(path):
                    handle = open(path)
                    return handle
                """
        }
        assert lint_tree(tmp_path, modules, select=["CW801"]) == []

    def test_release_after_non_raising_calls_is_fine(self, tmp_path):
        modules = {
            "repro.webapp.calm": """
                def count(path):
                    handle = open(path)
                    data = handle.read()
                    handle.close()
                    return len(data)
                """
        }
        assert lint_tree(tmp_path, modules, select=["CW801"]) == []

    def test_early_return_between_acquire_and_release(self, tmp_path):
        modules = {
            "repro.webapp.early": """
                def peek(path, skip):
                    handle = open(path)
                    if skip:
                        return None
                    data = handle.read()
                    handle.close()
                    return data
                """
        }
        findings = lint_tree(tmp_path, modules, select=["CW801"])
        assert [f.rule_id for f in findings] == ["CW801"]
        assert "return" in findings[0].message

    def test_conditional_lock_acquire_is_not_tracked(self, tmp_path):
        modules = {
            "repro.webapp.trylock": """
                import threading

                LOCK = threading.Lock()


                def poll():
                    if LOCK.acquire(blocking=False):
                        LOCK.release()
                """
        }
        assert lint_tree(tmp_path, modules, select=["CW802"]) == []


class TestSwallowJudgment:
    def test_used_binding_is_not_a_swallow(self, tmp_path):
        modules = {
            "repro.webapp.logging": """
                def risky():
                    raise ValueError("boom")


                def report(log):
                    try:
                        return risky()
                    except Exception as exc:
                        log.append(str(exc))
                        return None
                """
        }
        assert lint_tree(tmp_path, modules, select=["CW803"]) == []

    def test_broad_catch_with_nothing_incoming_is_fine(self, tmp_path):
        modules = {
            "repro.webapp.noop": """
                def safe():
                    return 1


                def wrap():
                    try:
                        return safe()
                    except Exception:
                        return None
                """
        }
        assert lint_tree(tmp_path, modules, select=["CW803"]) == []


class TestLockFix:
    SOURCE = {
        "repro.webapp.guard": """
            import threading

            LOCK = threading.Lock()


            def risky():
                raise ValueError("boom")


            def tick(counts, key):
                LOCK.acquire()
                counts[key] = counts.get(key, 0) + 1
                risky()
                LOCK.release()
            """
    }

    def test_cli_fix_rewrites_to_with_block(self, tmp_path, capsys):
        # CW802 is a project rule: the per-file re-lint inside --fix cannot
        # see it, so the CLI must seed the fixer from a whole-program run.
        write_tree(tmp_path, self.SOURCE)
        assert main(["--select", "CW802", "--fix", str(tmp_path)]) == 0
        assert "fixed 1 finding(s)" in capsys.readouterr().err
        patched = (tmp_path / "repro" / "webapp" / "guard.py").read_text()
        assert "with LOCK:" in patched
        assert "LOCK.acquire()" not in patched
        assert "LOCK.release()" not in patched
        # the rewrite compiles and the re-lint is clean
        compile(patched, "guard.py", "exec")
        assert LintEngine(select=CW8XX).lint_paths([tmp_path]) == []
        # idempotent: a second run has nothing left to do
        assert main(["--select", "CW802", "--fix", str(tmp_path)]) == 0
        assert "fixed 0 finding(s)" in capsys.readouterr().err


class TestSeverityAndSuppression:
    def test_error_in_web_layer_warning_elsewhere(self, tmp_path):
        in_web = {"repro.web.leaky": SEEDED_LEAKS["repro.webapp.leaky"]}
        web = lint_tree(tmp_path / "a", in_web)
        assert {f.severity for f in web} == {"error"}
        elsewhere = {
            "repro.mining.leaky": SEEDED_LEAKS["repro.webapp.leaky"]
        }
        mining = lint_tree(tmp_path / "b", elsewhere)
        assert {f.rule_id for f in mining} == {"CW801", "CW802", "CW803"}
        assert {f.severity for f in mining} == {"warning"}

    def test_pragma_suppresses_with_justification(self, tmp_path):
        modules = {
            "repro.webapp.leaky": SEEDED_LEAKS["repro.webapp.leaky"].replace(
                "handle = open(path)\n            return len",
                "handle = open(path)  "
                "# crowdlint: disable=CW801 -- handed to the GC on purpose\n"
                "            return len",
            )
        }
        findings = lint_tree(tmp_path, modules, select=["CW801"])
        # only the un-pragma'd leak_file acquisition remains
        assert len(findings) == 1


class TestWarmCacheDependents:
    MODULES = {
        "repro.webapp.io": """
            def fetch(path):
                with open(path) as handle:
                    return handle.read()
            """,
        "repro.webapp.use": """
            from repro.webapp.io import fetch


            def load(path):
                handle = open(path)
                data = fetch(handle.read())
                handle.close()
                return data
            """,
        "repro.webapp.bystander": """
            def quiet():
                return 0
            """,
    }

    def test_leaf_raise_reanalyzes_only_dependents(self, tmp_path):
        root = tmp_path / "tree"
        root.mkdir()
        write_tree(root, self.MODULES)
        cache = LintCache(root=tmp_path / "cache")

        engine = LintEngine(select=CW8XX)
        assert engine.lint_paths([root], cache=cache) == []
        cold = engine.last_stats
        assert isinstance(cold, LintStats)
        assert cold.cache_hits == 0

        engine = LintEngine(select=CW8XX)
        assert engine.lint_paths([root], cache=cache) == []
        warm = engine.last_stats
        assert warm.analyzed == 0
        assert warm.cache_hits == warm.files

        # The leaf gains a raise: its may-raise summary changes, so the
        # caller (whose dep-key embeds it) must re-analyze and now leaks —
        # the bystander and package __init__ files must stay cache hits.
        write_tree(
            root,
            {
                "repro.webapp.io": """
                    def fetch(path):
                        raise OSError(path)
                    """
            },
        )
        engine = LintEngine(select=CW8XX)
        findings = engine.lint_paths([root], cache=cache)
        ratchet = engine.last_stats
        assert ratchet.analyzed == 2  # io + use
        assert ratchet.cache_hits == ratchet.files - 2
        assert [f.rule_id for f in findings] == ["CW801"]
        assert findings[0].path.endswith("use.py")

