"""Engine-level tests: suppressions, baseline, CLI, and the meta-gate.

The meta-test at the bottom is the PR's acceptance criterion in
executable form: ``python -m repro.analysis src/`` must exit 0 against
the *committed, empty* baseline — every finding fixed, none merely
tolerated.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro.analysis.baseline import (
    BaselineError,
    load_baseline,
    partition,
    save_baseline,
)
from repro.analysis.cli import main
from repro.analysis.engine import (
    PARSE_ERROR_RULE,
    AnalysisRequest,
    analyze_paths,
)
from repro.analysis.findings import Finding, Severity
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


def make_finding(symbol: str = "Thing", rule: str = "RPL001") -> Finding:
    return Finding(
        path="src/repro/example.py",
        line=3,
        column=0,
        rule=rule,
        symbol=symbol,
        message=f"{symbol} violates {rule}",
    )


# ----------------------------------------------------------------------
# Rule registry
# ----------------------------------------------------------------------
def test_registry_contains_exactly_the_documented_rules() -> None:
    assert tuple(registered_rules()) == ALL_RULE_IDS


def test_every_rule_has_title_and_error_severity_default() -> None:
    for cls in registered_rules().values():
        assert cls.title
        assert cls.default_severity is Severity.ERROR


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
# Baseline round-trip and gating
# ----------------------------------------------------------------------
def test_baseline_round_trip(tmp_path: Path) -> None:
    findings = [make_finding("A"), make_finding("B", rule="RPL006")]
    baseline_file = tmp_path / "baseline.json"
    save_baseline(baseline_file, findings)
    loaded = load_baseline(baseline_file)
    assert loaded == Counter(f.key() for f in findings)
    new, known = partition(findings, loaded)
    assert new == []
    assert known == findings


def test_baseline_matching_is_count_aware(tmp_path: Path) -> None:
    # Two violations sharing one (rule, path, symbol) key need two
    # baseline entries; one entry tolerates exactly one of them.
    twice = [make_finding("A"), make_finding("A")]
    baseline_file = tmp_path / "baseline.json"
    save_baseline(baseline_file, twice[:1])
    new, known = partition(twice, load_baseline(baseline_file))
    assert len(known) == 1
    assert len(new) == 1


def test_baseline_ignores_line_numbers() -> None:
    moved = Finding(
        path="src/repro/example.py",
        line=99,
        column=4,
        rule="RPL001",
        symbol="Thing",
        message="moved but identical",
    )
    baseline = Counter([make_finding("Thing").key()])
    new, known = partition([moved], baseline)
    assert new == [] and known == [moved]


def test_baseline_rejects_garbage(tmp_path: Path) -> None:
    bad = tmp_path / "baseline.json"
    bad.write_text("not json at all")
    with pytest.raises(BaselineError):
        load_baseline(bad)
    bad.write_text(json.dumps({"version": 999, "findings": []}))
    with pytest.raises(BaselineError):
        load_baseline(bad)
    bad.write_text(json.dumps({"version": 1, "findings": "nope"}))
    with pytest.raises(BaselineError):
        load_baseline(bad)


def test_committed_baseline_is_empty() -> None:
    committed = load_baseline(REPO_ROOT / "analysis-baseline.json")
    assert committed == Counter()


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
    assert result.errors == result.findings


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


def test_cli_write_then_gate_with_baseline(
    in_repo_root: None,
    tmp_path: Path,
    capsys: pytest.CaptureFixture[str],
) -> None:
    baseline = tmp_path / "fixture-baseline.json"
    wrote = main(
        [
            "tests/analysis_fixtures/rpl001_pickle",
            "--select",
            "RPL001",
            "--write-baseline",
            str(baseline),
        ]
    )
    assert wrote == 0
    gated = main(
        [
            "tests/analysis_fixtures/rpl001_pickle",
            "--select",
            "RPL001",
            "--baseline",
            str(baseline),
        ]
    )
    captured = capsys.readouterr()
    assert gated == 0
    assert "baselined" in captured.out


def test_cli_bad_baseline_is_a_usage_error(
    in_repo_root: None,
    tmp_path: Path,
    capsys: pytest.CaptureFixture[str],
) -> None:
    missing = tmp_path / "does-not-exist.json"
    code = main(["src", "--baseline", str(missing)])
    captured = capsys.readouterr()
    assert code == 2
    assert "error" in captured.err


def test_cli_json_format(
    in_repo_root: None, capsys: pytest.CaptureFixture[str]
) -> None:
    code = main(
        [
            "tests/analysis_fixtures/service",
            "--select",
            "RPL002",
            "--format",
            "json",
        ]
    )
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["files_scanned"] >= 2
    assert {f["rule"] for f in payload["findings"]} == {"RPL002"}


def test_cli_list_rules(capsys: pytest.CaptureFixture[str]) -> None:
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ALL_RULE_IDS:
        assert rule_id in out


def test_cli_env_table_matches_registry(
    capsys: pytest.CaptureFixture[str],
) -> None:
    from repro.core.config import env_table_markdown

    assert main(["--env-table"]) == 0
    assert capsys.readouterr().out.strip() == env_table_markdown()


def test_cli_disable_silences_a_rule(
    in_repo_root: None, capsys: pytest.CaptureFixture[str]
) -> None:
    code = main(
        [
            "tests/analysis_fixtures/rpl001_pickle",
            "--select",
            "RPL001",
            "--disable",
            "RPL001",
        ]
    )
    capsys.readouterr()
    assert code == 0


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
    code = main(["src", "--disable", "NOPE"])
    assert code == 2


def test_cli_bad_jobs_is_a_usage_error(
    in_repo_root: None, capsys: pytest.CaptureFixture[str]
) -> None:
    code = main(["src", "--jobs", "0"])
    captured = capsys.readouterr()
    assert code == 2
    assert "--jobs" in captured.err


def test_cli_nonexistent_path_is_a_usage_error(
    in_repo_root: None, capsys: pytest.CaptureFixture[str]
) -> None:
    # A typo'd path must not report a clean 0-file scan.
    code = main(["no/such/dir"])
    captured = capsys.readouterr()
    assert code == 2
    assert "do not exist" in captured.err


def test_cli_write_baseline_conflicts_with_changed_only(
    in_repo_root: None,
    tmp_path: Path,
    capsys: pytest.CaptureFixture[str],
) -> None:
    code = main(
        [
            "src",
            "--changed-only",
            "HEAD",
            "--write-baseline",
            str(tmp_path / "b.json"),
        ]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert "--changed-only" in captured.err


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


@pytest.mark.skipif(
    __import__("shutil").which("git") is None, reason="git unavailable"
)
def test_cli_changed_only_bad_ref_is_a_usage_error(
    in_repo_root: None, capsys: pytest.CaptureFixture[str]
) -> None:
    code = main(
        ["src", "--changed-only", "no-such-ref-xyzzy"]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert "git failed" in captured.err


# ----------------------------------------------------------------------
# SARIF output
# ----------------------------------------------------------------------
def test_cli_sarif_format(
    in_repo_root: None, capsys: pytest.CaptureFixture[str]
) -> None:
    code = main(
        [
            "tests/analysis_fixtures/rpl001_pickle",
            "--select",
            "RPL001",
            "--format",
            "sarif",
        ]
    )
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["version"] == "2.1.0"
    run = payload["runs"][0]
    rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
    assert set(ALL_RULE_IDS) <= rule_ids
    results = run["results"]
    assert {r["ruleId"] for r in results} == {"RPL001"}
    location = results[0]["locations"][0]["physicalLocation"]
    assert location["artifactLocation"]["uri"].endswith("bad_slots.py")
    assert location["region"]["startLine"] >= 1
    assert location["region"]["startColumn"] >= 1


# ----------------------------------------------------------------------
# Changed-only scoping (engine level: strongly-connected dependents)
# ----------------------------------------------------------------------
def _write_tree(tmp_path: Path, files: dict[str, str]) -> Path:
    root = tmp_path / "proj"
    for name, body in files.items():
        target = root / name
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(body)
    return root


def test_changed_scope_is_the_dependent_closure(tmp_path: Path) -> None:
    # a imports b imports c; d and e form an import cycle.
    root = _write_tree(
        tmp_path,
        {
            "pkg/__init__.py": "",
            "pkg/a.py": "from pkg import b\n",
            "pkg/b.py": "from pkg import c\n",
            "pkg/c.py": "VALUE = 1\n",
            "pkg/d.py": "from pkg import e\n",
            "pkg/e.py": "import pkg.d\n",
        },
    )
    result = analyze_paths(
        AnalysisRequest(
            paths=[root],
            tests_roots=(),
            root=tmp_path,
            changed=("proj/pkg/c.py",),
        )
    )
    # c changed; b imports c directly -> in scope.  a only imports b,
    # so it is NOT re-analyzed on a one-file diff of c.
    scoped = set(result.project.modules)
    assert scoped == {"pkg.c", "pkg.b"}
    assert result.files_scanned == 2


def test_changed_scope_includes_the_whole_import_cycle(
    tmp_path: Path,
) -> None:
    root = _write_tree(
        tmp_path,
        {
            "pkg/__init__.py": "",
            "pkg/d.py": "from pkg import e\n",
            "pkg/e.py": "import pkg.d\n",
        },
    )
    result = analyze_paths(
        AnalysisRequest(
            paths=[root],
            tests_roots=(),
            root=tmp_path,
            changed=("proj/pkg/e.py",),
        )
    )
    # d and e are one strongly-connected component: changing e
    # re-analyzes both.
    assert set(result.project.modules) == {"pkg.d", "pkg.e"}


def test_changed_scope_keeps_parse_errors_only_for_changed_files(
    tmp_path: Path,
) -> None:
    root = _write_tree(
        tmp_path,
        {
            "pkg/__init__.py": "",
            "pkg/ok.py": "VALUE = 1\n",
            "pkg/broken.py": "def half(:\n",
        },
    )
    untouched = analyze_paths(
        AnalysisRequest(
            paths=[root],
            tests_roots=(),
            root=tmp_path,
            changed=("proj/pkg/ok.py",),
        )
    )
    assert untouched.findings == []
    touched = analyze_paths(
        AnalysisRequest(
            paths=[root],
            tests_roots=(),
            root=tmp_path,
            changed=("proj/pkg/broken.py",),
        )
    )
    assert [f.rule for f in touched.findings] == [PARSE_ERROR_RULE]


@pytest.mark.skipif(
    __import__("shutil").which("git") is None, reason="git unavailable"
)
def test_cli_changed_only_against_head_is_quiet(
    in_repo_root: None, capsys: pytest.CaptureFixture[str]
) -> None:
    code = main(["src", "--changed-only", "HEAD"])
    captured = capsys.readouterr()
    assert code in (0, 1)
    assert "changed-only vs HEAD" in captured.out


# ----------------------------------------------------------------------
# Parallel parse: same result with and without the process pool
# ----------------------------------------------------------------------
def test_parallel_and_serial_parse_agree() -> None:
    src = REPO_ROOT / "src"
    serial = analyze_paths(
        AnalysisRequest(
            paths=[src], tests_roots=(), root=REPO_ROOT, jobs=1
        )
    )
    parallel = analyze_paths(
        AnalysisRequest(
            paths=[src], tests_roots=(), root=REPO_ROOT, jobs=2
        )
    )
    assert serial.findings == parallel.findings
    assert serial.files_scanned == parallel.files_scanned


# ----------------------------------------------------------------------
# The meta-gate: the committed tree is clean
# ----------------------------------------------------------------------
def test_analysis_of_src_is_clean_against_committed_baseline() -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro.analysis",
            "src",
            "--baseline",
            "analysis-baseline.json",
        ],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 finding(s)" in proc.stdout
