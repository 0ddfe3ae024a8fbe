"""Helpers shared by the crowdlint rule tests."""

from __future__ import annotations

import textwrap
from pathlib import Path
from typing import Dict, List, Optional

import pytest

from repro.devtools import Finding, LintEngine


@pytest.fixture
def lint():
    """Lint an inline source snippet with one rule (or all) and return findings."""

    def _lint(
        source: str,
        rule: Optional[str] = None,
        module: Optional[str] = None,
        path: str = "snippet.py",
    ) -> List[Finding]:
        engine = LintEngine(select=[rule] if rule else None)
        return engine.lint_source(textwrap.dedent(source), path=path, module=module)

    return _lint


def rule_ids(findings: List[Finding]) -> List[str]:
    return [finding.rule_id for finding in findings]


def write_tree(root: Path, modules: Dict[str, str]) -> None:
    """Write dotted-name modules under ``root``, with package ``__init__`` files."""
    root.mkdir(parents=True, exist_ok=True)
    for dotted, source in modules.items():
        parts = dotted.split(".")
        directory = root
        for part in parts[:-1]:
            directory = directory / part
            directory.mkdir(exist_ok=True)
            init = directory / "__init__.py"
            if not init.exists():
                init.write_text("")
        (directory / f"{parts[-1]}.py").write_text(textwrap.dedent(source))
