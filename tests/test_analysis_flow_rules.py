"""Fixture tests for the whole-program flow rules (RPL007–RPL009).

Each rule gets a known-bad / known-good pair under
``tests/analysis_fixtures/``; the bad fixtures pin the real defect
shapes the rules were built for — the RPL009 bad package is a faithful
reconstruction of the pre-PR-7 ``within``-missing-from-cache-key bug,
and the RPL008 bad publish reproduces the shm exception window this PR
closed in ``repro.storage.shm``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.engine import AnalysisRequest, AnalysisResult, analyze_paths
from repro.analysis.registry import RuleConfig

TESTS_DIR = Path(__file__).resolve().parent
FIXTURES = TESTS_DIR / "analysis_fixtures"
REPO_ROOT = TESTS_DIR.parent

#: RPL007 scopes by module segment; point it at the fixture package.
LOCK_CONFIG = RuleConfig(lock_order_segments=("rpl007_locks",))


def run_fixture(
    *relative: str,
    select: tuple[str, ...] | None = None,
    config: RuleConfig | None = None,
) -> AnalysisResult:
    request = AnalysisRequest(
        paths=[FIXTURES / rel for rel in relative],
        select=select,
        tests_roots=(),
        root=REPO_ROOT,
        config=config if config is not None else RuleConfig(),
    )
    return analyze_paths(request)


def paths_of(result: AnalysisResult) -> set[str]:
    return {finding.path for finding in result.findings}


# ----------------------------------------------------------------------
# RPL007 — lock-order analysis
# ----------------------------------------------------------------------
def test_rpl007_flags_cycles_lexical_and_through_calls() -> None:
    result = run_fixture(
        "rpl007_locks", select=("RPL007",), config=LOCK_CONFIG
    )
    cycle = [
        f
        for f in result.findings
        if f.path.endswith("bad_cycle.py")
    ]
    by_symbol = {f.symbol: f for f in cycle}
    assert set(by_symbol) == {
        "CyclicService.register",
        "CyclicService.query",
        "SelfDeadlock.outer",
    }
    # One direction is lexical nesting, the other goes through the
    # private helper — both sides of the cycle are reported.
    assert "deadlock cycle" in by_symbol["CyclicService.register"].message
    assert "via" in by_symbol["CyclicService.query"].message
    assert "self-deadlock" in by_symbol["SelfDeadlock.outer"].message


def test_rpl007_flags_executor_calls_under_the_lock() -> None:
    result = run_fixture(
        "rpl007_locks", select=("RPL007",), config=LOCK_CONFIG
    )
    blocking = [
        f
        for f in result.findings
        if f.path.endswith("bad_executor_call.py")
    ]
    assert {f.symbol for f in blocking} == {
        "BlockingService.submit",
        "BlockingService.submit_via_helper",
    }
    for finding in blocking:
        assert "blocking target" in finding.message
        assert "BatchExecutor.run" in finding.message


def test_rpl007_good_ordering_is_clean() -> None:
    result = run_fixture(
        "rpl007_locks", select=("RPL007",), config=LOCK_CONFIG
    )
    assert not any(
        f.path.endswith("good_order.py") for f in result.findings
    )


def test_rpl007_out_of_scope_modules_are_ignored() -> None:
    # Under the default (service/storage) scope the fixture package is
    # invisible: project rules must respect the configured segments.
    result = run_fixture("rpl007_locks", select=("RPL007",))
    assert result.findings == []


# ----------------------------------------------------------------------
# RPL008 — resource lifecycle over the CFG
# ----------------------------------------------------------------------
def test_rpl008_flags_all_three_leak_shapes() -> None:
    result = run_fixture("rpl008_lifecycle", select=("RPL008",))
    by_symbol = {f.symbol: f for f in result.findings}
    assert set(by_symbol) == {
        "publish_leaky",
        "attach_leaky",
        "fire_and_forget",
    }
    assert "exception path" in by_symbol["publish_leaky"].message
    assert "normal path" in by_symbol["attach_leaky"].message
    assert "discarded" in by_symbol["fire_and_forget"].message
    assert paths_of(result) == {
        "tests/analysis_fixtures/rpl008_lifecycle/bad_resource.py"
    }


def test_rpl008_guarded_with_escape_and_finally_are_clean() -> None:
    result = run_fixture(
        "rpl008_lifecycle/good_resource.py", select=("RPL008",)
    )
    assert result.findings == []


# ----------------------------------------------------------------------
# RPL009 — cache-key completeness (the pinned `within` bug)
# ----------------------------------------------------------------------
def test_rpl009_flags_the_pre_pr7_within_bug() -> None:
    result = run_fixture("rpl009_cachekey/bad", select=("RPL009",))
    assert len(result.findings) == 1
    finding = result.findings[0]
    assert finding.symbol == "JoinRequest.within"
    assert finding.path == (
        "tests/analysis_fixtures/rpl009_cachekey/bad/requests.py"
    )
    assert "flows into execution" in finding.message
    assert "request_cache_key" in finding.message


def test_rpl009_exempts_presentation_fields() -> None:
    # `label` never reaches the key either, but it is configured
    # exempt — exactly one field (within) is flagged above.
    result = run_fixture("rpl009_cachekey/bad", select=("RPL009",))
    assert all(f.symbol != "JoinRequest.label" for f in result.findings)


def test_rpl009_post_fix_shape_is_clean() -> None:
    result = run_fixture("rpl009_cachekey/good", select=("RPL009",))
    assert result.findings == []


# ----------------------------------------------------------------------
# Cross-cutting: the full rule set isolates per fixture
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "fixture, expected_rule, config",
    [
        ("rpl007_locks", "RPL007", LOCK_CONFIG),
        ("rpl008_lifecycle", "RPL008", None),
        ("rpl009_cachekey/bad", "RPL009", None),
    ],
)
def test_full_rule_set_only_fires_the_expected_rule(
    fixture: str, expected_rule: str, config: RuleConfig | None
) -> None:
    result = run_fixture(fixture, config=config)
    assert {f.rule for f in result.findings} == {expected_rule}
