"""Engine-level tests: registry, suppressions, CLI, and the meta-gate.

The meta-test at the bottom is the lint's contract with the tree:
``python -m repro.analysis src`` must exit 0 — every finding fixed or
suppressed in place on its line, none tolerated elsewhere.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro.analysis import cli
from repro.analysis.cli import main
from repro.analysis.docs import rules_reference_markdown
from repro.analysis.engine import (
    PARSE_ERROR_RULE,
    AnalysisRequest,
    analyze_paths,
    collect_files,
)
from repro.analysis.findings import Finding
from repro.analysis.registry import registered_rules

TESTS_DIR = Path(__file__).resolve().parent
FIXTURES = TESTS_DIR / "analysis_fixtures"
REPO_ROOT = TESTS_DIR.parent

ALL_RULE_IDS = (
    "RPL001",
    "RPL002",
    "RPL003",
    "RPL004",
    "RPL005",
    "RPL006",
    "RPL007",
    "RPL008",
    "RPL009",
)


# ----------------------------------------------------------------------
# Rule registry
# ----------------------------------------------------------------------
def test_registry_contains_exactly_the_documented_rules() -> None:
    assert tuple(registered_rules()) == ALL_RULE_IDS


def test_every_rule_has_a_title() -> None:
    for cls in registered_rules().values():
        assert cls.title


def test_select_is_case_insensitive() -> None:
    result = analyze_paths(
        AnalysisRequest(
            paths=[FIXTURES / "rpl001_pickle"],
            select=("rpl001",),
            tests_roots=(),
            root=REPO_ROOT,
        )
    )
    assert {f.rule for f in result.findings} == {"RPL001"}


# ----------------------------------------------------------------------
# Findings and file collection
# ----------------------------------------------------------------------
def test_finding_renders_as_one_error_line() -> None:
    finding = Finding(
        path="src/repro/example.py",
        line=3,
        column=4,
        rule="RPL001",
        symbol="Thing",
        message="Thing is broken",
    )
    assert finding.render() == (
        "src/repro/example.py:3:4: error RPL001 [Thing] Thing is broken"
    )


def test_findings_sort_by_location_and_ignore_the_message() -> None:
    late = Finding("b.py", 1, 0, "RPL001", "s", "aaa")
    rule_9 = Finding("a.py", 9, 0, "RPL009", "s", "bbb")
    rule_2 = Finding("a.py", 9, 0, "RPL002", "s", "ccc")
    assert sorted([late, rule_9, rule_2]) == [rule_2, rule_9, late]
    assert rule_2 == Finding("a.py", 9, 0, "RPL002", "s", "other text")


def test_collect_files_dedupes_and_skips_caches(tmp_path: Path) -> None:
    package = tmp_path / "pkg"
    (package / "__pycache__").mkdir(parents=True)
    (package / "a.py").write_text("")
    (package / "__pycache__" / "b.py").write_text("")
    assert collect_files([package, package / "a.py"]) == [package / "a.py"]


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------
def test_line_suppression_silences_only_its_line() -> None:
    result = analyze_paths(
        AnalysisRequest(
            paths=[FIXTURES / "suppressed.py"],
            select=("RPL001",),
            tests_roots=(),
            root=REPO_ROOT,
        )
    )
    assert {f.symbol for f in result.findings} == {"LoudlyUnpicklable"}
    assert result.suppressed == 1


# ----------------------------------------------------------------------
# Parse errors become findings, not crashes
# ----------------------------------------------------------------------
def test_syntax_error_becomes_rpl000_finding(tmp_path: Path) -> None:
    broken = tmp_path / "broken.py"
    broken.write_text("def half(:\n")
    result = analyze_paths(
        AnalysisRequest(paths=[broken], tests_roots=(), root=tmp_path)
    )
    assert [f.rule for f in result.findings] == [PARSE_ERROR_RULE]


# ----------------------------------------------------------------------
# CLI behaviour (in-process via main())
# ----------------------------------------------------------------------
@pytest.fixture()
def in_repo_root(monkeypatch: pytest.MonkeyPatch) -> None:
    monkeypatch.chdir(REPO_ROOT)


def test_cli_exits_one_on_findings(in_repo_root: None, capsys: pytest.CaptureFixture[str]) -> None:
    code = main(
        ["tests/analysis_fixtures/rpl001_pickle", "--select", "RPL001"]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert "RPL001" in captured.out
    assert "FrozenPoint" in captured.out


def test_cli_clean_scan_exits_zero(
    in_repo_root: None, capsys: pytest.CaptureFixture[str]
) -> None:
    code = main(["tests/analysis_fixtures/rpl001_pickle/good_slots.py"])
    assert code == 0
    assert capsys.readouterr().out == "1 file(s) scanned, 0 finding(s)\n"


def test_cli_summary_counts_suppressed_findings(
    in_repo_root: None, capsys: pytest.CaptureFixture[str]
) -> None:
    code = main(["tests/analysis_fixtures/suppressed.py"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert lines[-1] == "1 file(s) scanned, 1 finding(s), 1 suppressed"


def test_cli_select_is_repeatable(
    in_repo_root: None, capsys: pytest.CaptureFixture[str]
) -> None:
    code = main(
        [
            "tests/analysis_fixtures/rpl001_pickle",
            "tests/analysis_fixtures/joins",
            "--select",
            "RPL001",
            "--select",
            "RPL003",
        ]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert " RPL001 " in out and " RPL003 " in out


def test_cli_reports_the_fixture_tree(
    in_repo_root: None, capsys: pytest.CaptureFixture[str]
) -> None:
    # Every per-module rule's bad fixture, scanned together under the
    # default configuration: the report the rules' verdicts must keep.
    code = main(["tests/analysis_fixtures"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert lines[-1].endswith(" file(s) scanned, 24 finding(s), 1 suppressed")
    assert Counter(line.split()[2] for line in lines[:-1]) == {
        "RPL001": 3,
        "RPL002": 3,
        "RPL003": 5,
        "RPL004": 1,
        "RPL005": 7,
        "RPL006": 2,
        "RPL008": 3,
    }


def test_cli_help_lists_exactly_three_options(
    capsys: pytest.CaptureFixture[str],
) -> None:
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    options = re.findall(r"^\s+(--[a-z-]+)", capsys.readouterr().out, re.M)
    assert options == ["--select", "--list-rules", "--rules-doc"]


def test_cli_rules_doc_prints_the_generated_reference(
    capsys: pytest.CaptureFixture[str],
) -> None:
    assert main(["--rules-doc"]) == 0
    assert capsys.readouterr().out == rules_reference_markdown()


def test_cli_list_rules(capsys: pytest.CaptureFixture[str]) -> None:
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ALL_RULE_IDS:
        assert rule_id in out


# ----------------------------------------------------------------------
# Exit-code separation: 1 = findings, 2 = usage/internal errors
# ----------------------------------------------------------------------
def test_cli_unknown_rule_id_is_a_usage_error(
    in_repo_root: None, capsys: pytest.CaptureFixture[str]
) -> None:
    code = main(["src", "--select", "RPL999"])
    captured = capsys.readouterr()
    assert code == 2
    assert "unknown rule id" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["--baseline", "analysis-baseline.json"],
        ["--write-baseline", "b.json"],
        ["--format", "json"],
        ["--changed-only", "HEAD"],
        ["--jobs", "1"],
        ["--disable", "RPL001"],
        ["--tests-root", "tests"],
    ],
)
def test_cli_removed_options_are_usage_errors(
    argv: list[str], capsys: pytest.CaptureFixture[str]
) -> None:
    with pytest.raises(SystemExit) as exit_info:
        main(["src", *argv])
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_internal_error_exits_two(
    in_repo_root: None,
    monkeypatch: pytest.MonkeyPatch,
    capsys: pytest.CaptureFixture[str],
) -> None:
    def explode(request: AnalysisRequest) -> None:
        raise RuntimeError("rule crashed")

    monkeypatch.setattr(cli, "analyze_paths", explode)
    code = main(["tests/analysis_fixtures/rpl001_pickle"])
    captured = capsys.readouterr()
    assert code == 2
    assert "internal error" in captured.err
    assert "rule crashed" in captured.err


def test_cli_parse_error_is_a_finding_not_a_crash(
    tmp_path: Path,
    monkeypatch: pytest.MonkeyPatch,
    capsys: pytest.CaptureFixture[str],
) -> None:
    (tmp_path / "broken.py").write_text("def half(:\n")
    monkeypatch.chdir(tmp_path)
    assert main(["broken.py"]) == 1
    assert f" {PARSE_ERROR_RULE} " in capsys.readouterr().out


def test_cli_nonexistent_path_is_a_usage_error(
    in_repo_root: None, capsys: pytest.CaptureFixture[str]
) -> None:
    # A typo'd path must not report a clean 0-file scan.
    code = main(["no/such/dir"])
    captured = capsys.readouterr()
    assert code == 2
    assert "do not exist" in captured.err


def test_cli_findings_exit_one_not_two(
    in_repo_root: None, capsys: pytest.CaptureFixture[str]
) -> None:
    # Dirty tree (exit 1) must stay distinguishable from the usage
    # errors above (exit 2).
    code = main(
        ["tests/analysis_fixtures/rpl001_pickle", "--select", "RPL001"]
    )
    capsys.readouterr()
    assert code == 1


# ----------------------------------------------------------------------
# The meta-gate: the committed tree is clean
# ----------------------------------------------------------------------
def test_src_is_clean() -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "src"],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 finding(s)" in proc.stdout
