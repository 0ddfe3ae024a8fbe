"""CW105 export drift and CW604 dead exports: positive and negative fixtures."""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List

from repro.devtools import Finding, LintEngine

from .conftest import write_tree


def lint_tree(root: Path, modules: Dict[str, str], **kwargs) -> List[Finding]:
    """Write dotted-name modules (with package ``__init__`` files) and lint them."""
    write_tree(root, modules)
    return LintEngine(**kwargs).lint_paths([root])


def test_flags_unknown_name_in_all(lint):
    source = """\
    __all__ = ["exists", "ghost"]

    def exists():
        pass
    """
    findings = lint(source, rule="CW105")
    assert len(findings) == 1
    assert "'ghost'" in findings[0].message


def test_flags_public_def_missing_from_all(lint):
    source = """\
    __all__ = ["listed"]

    def listed():
        pass

    def forgotten():
        pass

    class AlsoForgotten:
        pass
    """
    findings = lint(source, rule="CW105")
    assert len(findings) == 2
    assert {f.message for f in findings} == {
        "public name 'forgotten' is defined but missing from __all__",
        "public name 'AlsoForgotten' is defined but missing from __all__",
    }


def test_init_flags_imported_names_missing_from_all(lint):
    source = """\
    from .metrics import shiny, dull

    __all__ = ["shiny"]
    """
    findings = lint(source, rule="CW105", path="pkg/__init__.py")
    assert len(findings) == 1
    assert "'dull'" in findings[0].message


def test_regular_module_does_not_require_exporting_imports(lint):
    source = """\
    from math import sqrt
    import numpy as np

    __all__ = ["compute"]

    def compute():
        return sqrt(np.pi)
    """
    assert lint(source, rule="CW105") == []


def test_private_names_and_constants_are_exempt(lint):
    source = """\
    __all__ = ["API"]

    API = 1
    _INTERNAL = 2
    THRESHOLD = 3          # public constant: not forced into __all__

    def _helper():
        pass
    """
    assert lint(source, rule="CW105") == []


def test_module_without_all_is_skipped(lint):
    assert lint("def anything():\n    pass\n", rule="CW105") == []


def test_conditionally_bound_names_count_as_bound(lint):
    source = """\
    __all__ = ["maybe"]

    try:
        from fast_impl import maybe
    except ImportError:
        def maybe():
            pass
    """
    assert lint(source, rule="CW105") == []


class TestDeadExports:
    def test_unreferenced_export_is_flagged(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "repro.mining.api": """
                    __all__ = ["used", "orphan"]


                    def used():
                        return 1


                    def orphan():
                        return 2
                    """,
                "repro.mining.client": """
                    from repro.mining.api import used


                    def go():
                        return used()
                    """,
            },
            select=["CW604"],
        )
        assert [f.rule_id for f in findings] == ["CW604"]
        assert "orphan" in findings[0].message

    def test_pragma_suppresses_intentional_surface(self, tmp_path):
        findings = lint_tree(
            tmp_path,
            {
                "repro.mining.api": """
                    # crowdlint: disable-file=CW604 -- public surface for notebooks
                    __all__ = ["orphan"]


                    def orphan():
                        return 2
                    """,
            },
            select=["CW604"],
        )
        assert findings == []

    def test_noop_without_a_project(self, lint):
        # lint_source builds no project; the rule must stay silent, not crash.
        source = """\
        __all__ = ["orphan"]

        def orphan():
            pass
        """
        assert lint(source, rule="CW604", module="repro.mining.api") == []
