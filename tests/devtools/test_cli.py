"""The crowdweb-lint CLI: flags, formats, exit codes."""

from __future__ import annotations

import json
import textwrap

import pytest

from repro.devtools.cli import main
from repro.devtools.engine import all_rules

DIRTY = """\
from datetime import datetime, timezone


def stamp():
    return datetime.utcnow()
"""

CLEAN = '"""Clean module."""\n\nX = 1\n'


@pytest.fixture
def dirty_file(tmp_path):
    path = tmp_path / "dirty.py"
    path.write_text(DIRTY, encoding="utf-8")
    return path


class TestExitCodes:
    def test_clean_tree_exits_zero(self, tmp_path):
        (tmp_path / "ok.py").write_text(CLEAN, encoding="utf-8")
        assert main(["--no-cache", str(tmp_path)]) == 0

    def test_findings_exit_one(self, dirty_file):
        assert main(["--no-cache", str(dirty_file)]) == 1

    def test_missing_path_exits_two(self, tmp_path):
        assert main([str(tmp_path / "nope")]) == 2

    def test_unknown_rule_exits_two(self, tmp_path, capsys):
        assert main(["--select", "CW999", str(tmp_path)]) == 2
        assert "unknown rule id" in capsys.readouterr().err


class TestSelectIgnore:
    def test_select_restricts_to_one_rule(self, dirty_file, capsys):
        assert main(["--no-cache", "--select", "CW105", str(dirty_file)]) == 0
        assert main(["--no-cache", "--select", "CW103", str(dirty_file)]) == 1
        assert "CW103" in capsys.readouterr().out

    def test_ignore_drops_the_only_finding(self, dirty_file):
        assert main(["--no-cache", "--ignore", "CW103", str(dirty_file)]) == 0


class TestListRules:
    def test_human_listing_marks_fixable(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "CW103*" in out  # fixable marker
        assert "CW108 " in out

    def test_json_listing_is_the_full_catalog(self, capsys):
        assert main(["--list-rules", "--json"]) == 0
        catalog = json.loads(capsys.readouterr().out)
        assert [entry["id"] for entry in catalog] == sorted(
            rule.id for rule in all_rules()
        )
        by_id = {entry["id"]: entry for entry in catalog}
        assert by_id["CW103"]["fixable"] is True
        assert by_id["CW108"]["fixable"] is False
        assert all({"id", "name", "description", "fixable"} <= set(e) for e in catalog)


class TestFormats:
    def test_json_format(self, dirty_file, capsys):
        main(["--no-cache", "--format", "json", str(dirty_file)])
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 1
        assert payload["by_rule"] == {"CW103": 1}
        assert payload["findings"][0]["fixable"] is True


class TestFixAndDiff:
    def test_diff_previews_without_writing(self, dirty_file, capsys):
        assert main(["--diff", str(dirty_file)]) == 0
        out = capsys.readouterr().out
        assert "+    return datetime.now(timezone.utc)" in out
        assert dirty_file.read_text(encoding="utf-8") == DIRTY  # untouched

    def test_fix_rewrites_in_place(self, dirty_file, capsys):
        assert main(["--fix", str(dirty_file)]) == 0
        assert "datetime.now(timezone.utc)" in dirty_file.read_text(encoding="utf-8")
        assert "fixed 1 finding(s)" in capsys.readouterr().err

    def test_fix_reports_unfixable_remainder(self, tmp_path, capsys):
        path = tmp_path / "stuck.py"
        path.write_text(
            textwrap.dedent(
                """\
                def first(items):
                    uniq = set(items)
                    return next(iter(uniq))
                """
            ),
            encoding="utf-8",
        )
        assert main(["--fix", str(path)]) == 1
        captured = capsys.readouterr()
        assert "CW204" in captured.out
        assert "1 remaining" in captured.err


class TestCacheFlags:
    def test_cache_dir_is_honoured(self, dirty_file, tmp_path):
        cache_dir = tmp_path / "mycache"
        assert main(["--cache-dir", str(cache_dir), str(dirty_file)]) == 1
        assert list(cache_dir.rglob("*.json"))

    def test_jobs_flag_matches_serial_output(self, tmp_path, capsys):
        for index in range(4):
            (tmp_path / f"mod_{index}.py").write_text(DIRTY, encoding="utf-8")
        main(["--no-cache", "--format", "json", str(tmp_path)])
        serial = json.loads(capsys.readouterr().out)
        main(["--no-cache", "--jobs", "2", "--format", "json", str(tmp_path)])
        parallel = json.loads(capsys.readouterr().out)
        assert serial == parallel
        assert parallel["count"] == 4
