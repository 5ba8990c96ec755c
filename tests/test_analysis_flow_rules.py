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


def test_rpl009_flags_a_field_one_key_site_drops() -> None:
    # service.py keys `within`, sharded.py does not: the field is keyed
    # only when every site reads it, so one dropping site is a hole.
    result = run_fixture("rpl009_cachekey/bad_two_sites")
    assert [(f.rule, f.symbol, f.path) for f in result.findings] == [
        (
            "RPL009",
            "JoinRequest.within",
            "tests/analysis_fixtures/rpl009_cachekey/bad_two_sites/"
            "requests.py",
        )
    ]


_SITE_TREE = {
    "pkg/__init__.py": "",
    "pkg/requests.py": (
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class JoinRequest:\n"
        "    a: str\n"
        "    within: float = 0.0\n"
    ),
    "pkg/workspace.py": (
        "class SpatialWorkspace:\n"
        "    def join(self, a, within):\n"
        "        return [(a, within)]\n"
    ),
    "pkg/executor.py": (
        "from pkg.requests import JoinRequest\n"
        "from pkg.workspace import SpatialWorkspace\n"
        "def execute(request: JoinRequest, workspace: SpatialWorkspace):\n"
        "    return workspace.join(request.a, within=request.within)\n"
    ),
}


def run_key_sites(
    tmp_path: Path, key_function: str, site_arguments: tuple[str, ...]
) -> AnalysisResult:
    """RPL009 over a tree with one key function and one site per argument."""
    files = dict(_SITE_TREE)
    files["pkg/keys.py"] = key_function
    for number, arguments in enumerate(site_arguments):
        files[f"pkg/site{number}.py"] = (
            "from pkg.executor import execute\n"
            "from pkg.keys import request_cache_key\n"
            "def submit(request, workspace):\n"
            f"    key = request_cache_key({arguments})\n"
            "    return key, execute(request, workspace)\n"
        )
    for name, source in files.items():
        target = tmp_path / name
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
    return analyze_paths(
        AnalysisRequest(
            paths=[tmp_path / "pkg"],
            select=("RPL009",),
            tests_roots=(),
            root=tmp_path,
        )
    )


_KEYED = "request.a, request.within"
_DROPPED = "request.a"


@pytest.mark.parametrize(
    "site_arguments, flagged",
    [
        ((_KEYED,), False),
        ((_DROPPED,), True),
        ((_KEYED, _KEYED), False),
        ((_KEYED, _DROPPED), True),
        ((_KEYED, _KEYED, _DROPPED), True),
    ],
    ids=["one-keeps", "one-drops", "two-keep", "one-of-two-drops",
         "one-of-three-drops"],
)
def test_rpl009_field_is_keyed_only_when_every_site_keys_it(
    tmp_path: Path, site_arguments: tuple[str, ...], flagged: bool
) -> None:
    result = run_key_sites(
        tmp_path,
        "def request_cache_key(a, within=None):\n    return (a, within)\n",
        site_arguments,
    )
    expected = ["JoinRequest.within"] if flagged else []
    assert [f.symbol for f in result.findings] == expected


def test_rpl009_key_function_reading_the_request_keys_every_site(
    tmp_path: Path,
) -> None:
    result = run_key_sites(
        tmp_path,
        "def request_cache_key(request):\n"
        "    return (request.a, request.within)\n",
        ("request", "request"),
    )
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
