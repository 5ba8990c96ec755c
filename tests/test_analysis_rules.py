"""Per-rule tests for :mod:`repro.analysis` against the fixture tree.

Each rule gets a known-bad / known-good fixture pair under
``tests/analysis_fixtures/``.  The bad fixtures reproduce the exact
defect shape the rule was built for (RPL001 reproduces the PR 2
frozen-slots pickling bug, RPL002 the service lock conventions), so
these tests double as the "fails before the fix" demonstration: the
bad file is the pre-fix shape, the good file the post-fix shape.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.engine import AnalysisRequest, AnalysisResult, analyze_paths

TESTS_DIR = Path(__file__).resolve().parent
FIXTURES = TESTS_DIR / "analysis_fixtures"
REPO_ROOT = TESTS_DIR.parent


def run_fixture(
    *relative: str,
    select: tuple[str, ...] | None = None,
    tests_roots: tuple[Path, ...] = (),
) -> AnalysisResult:
    request = AnalysisRequest(
        paths=[FIXTURES / rel for rel in relative],
        select=select,
        tests_roots=tests_roots,
        root=REPO_ROOT,
    )
    return analyze_paths(request)


def paths_of(result: AnalysisResult) -> set[str]:
    return {finding.path for finding in result.findings}


# ----------------------------------------------------------------------
# RPL001 — pickle safety of __slots__ classes
# ----------------------------------------------------------------------
def test_rpl001_flags_bad_slots_classes() -> None:
    result = run_fixture("rpl001_pickle", select=("RPL001",))
    assert {f.rule for f in result.findings} == {"RPL001"}
    assert {f.symbol for f in result.findings} == {
        "FrozenPoint",
        "HalfPickled",
    }
    assert paths_of(result) == {
        "tests/analysis_fixtures/rpl001_pickle/bad_slots.py"
    }


def test_rpl001_good_file_is_clean() -> None:
    result = run_fixture(
        "rpl001_pickle/good_slots.py", select=("RPL001",)
    )
    assert result.findings == []
    assert result.files_scanned == 1


# ----------------------------------------------------------------------
# RPL002 — service lock discipline
# ----------------------------------------------------------------------
def test_rpl002_flags_all_three_violation_shapes() -> None:
    result = run_fixture("service", select=("RPL002",))
    by_symbol = {f.symbol: f for f in result.findings}
    assert set(by_symbol) == {
        "LeakyService.lookup",
        "LeakyService.invalidate",
        "LeakyService.refresh",
    }
    assert "guarded state" in by_symbol["LeakyService.lookup"].message
    assert "lock-assuming" in by_symbol["LeakyService.invalidate"].message
    assert "deadlock" in by_symbol["LeakyService.refresh"].message
    assert paths_of(result) == {
        "tests/analysis_fixtures/service/bad_lock.py"
    }


def test_rpl002_good_service_is_clean() -> None:
    result = run_fixture("service/good_lock.py", select=("RPL002",))
    assert result.findings == []


# ----------------------------------------------------------------------
# RPL003 — determinism (unseeded RNGs, wall clocks in join paths)
# ----------------------------------------------------------------------
def test_rpl003_flags_randomness_and_clocks() -> None:
    result = run_fixture("joins", select=("RPL003",))
    symbols = sorted(f.symbol for f in result.findings)
    assert symbols == [
        "fresh_generator",
        "jittered",
        "noisy_column",
        "stamped_counter",
        "stamped_counter",
    ]
    assert paths_of(result) == {
        "tests/analysis_fixtures/joins/bad_determinism.py"
    }


def test_rpl003_seeded_and_monotonic_are_clean() -> None:
    result = run_fixture(
        "joins/good_determinism.py", select=("RPL003",)
    )
    assert result.findings == []


# ----------------------------------------------------------------------
# RPL004 — vectorized kernels need a reference twin + equivalence test
# ----------------------------------------------------------------------
def test_rpl004_flags_orphan_and_untested_kernels() -> None:
    result = run_fixture(
        "rpl004_vector",
        select=("RPL004",),
        tests_roots=(FIXTURES / "rpl004_vector" / "testsuite",),
    )
    by_symbol = {f.symbol: f for f in result.findings}
    assert set(by_symbol) == {"orphan_join", "untested_join"}
    assert "orphan_join_reference" in by_symbol["orphan_join"].message
    # ``paired_join`` has its twin and is referenced (with the twin)
    # by the testsuite listing, so it never shows up above.


def test_rpl004_good_kernel_is_clean() -> None:
    result = run_fixture(
        "rpl004_vector/good_kernel.py",
        select=("RPL004",),
        tests_roots=(FIXTURES / "rpl004_vector" / "testsuite",),
    )
    assert result.findings == []


# ----------------------------------------------------------------------
# RPL005 — no module reads or writes a REPRO_* env variable
# ----------------------------------------------------------------------
def test_rpl005_flags_every_adhoc_access_shape() -> None:
    result = run_fixture("rpl005_env", select=("RPL005",))
    assert {f.symbol for f in result.findings} == {
        "subscript_read",
        "method_read",
        "getenv_read",
        "imported_environ_read",
        "imported_getenv_read",
        "setdefault_write",
        "subscript_write",
    }
    assert paths_of(result) == {
        "tests/analysis_fixtures/rpl005_env/bad_env.py"
    }


def test_rpl005_non_repro_variable_is_clean() -> None:
    result = run_fixture("rpl005_env/good_env.py", select=("RPL005",))
    assert result.findings == []


def test_rpl005_exempts_no_module(tmp_path: Path) -> None:
    """Not even ``repro.core.config``, the former registry, may read one."""
    package = tmp_path / "repro" / "core"
    package.mkdir(parents=True)
    (tmp_path / "repro" / "__init__.py").write_text("")
    (package / "__init__.py").write_text("")
    (package / "config.py").write_text(
        'import os\nKNOB = os.environ.get("REPRO_KNOB")\n'
    )
    result = analyze_paths(
        AnalysisRequest(
            paths=[tmp_path / "repro"],
            select=("RPL005",),
            tests_roots=(),
            root=tmp_path,
        )
    )
    assert [(f.path, f.line) for f in result.findings] == [
        ("repro/core/config.py", 2)
    ]


def rpl005_findings(tmp_path: Path, source: str) -> AnalysisResult:
    module = tmp_path / "knobs.py"
    module.write_text(source)
    return analyze_paths(
        AnalysisRequest(
            paths=[module],
            select=("RPL005",),
            tests_roots=(),
            root=tmp_path,
        )
    )


@pytest.mark.parametrize(
    "source",
    [
        'import os\ndel os.environ["REPRO_X"]\n',
        'import os\nos.environ.pop("REPRO_X", None)\n',
        'import os\nos.environ.setdefault("REPRO_X", "1")\n',
        'import os as o\nvalue = o.environ["REPRO_X"]\n',
        'import os as o\nvalue = o.getenv("REPRO_X")\n',
        'from os import environ as env\nvalue = env.get("REPRO_X")\n',
        'from os import environ as env\nenv["REPRO_X"] = "1"\n',
        'from os import getenv as ge\nvalue = ge("REPRO_X", "0")\n',
    ],
    ids=[
        "del_item",
        "pop",
        "setdefault",
        "aliased_module_subscript",
        "aliased_module_getenv",
        "aliased_environ_get",
        "aliased_environ_write",
        "aliased_getenv",
    ],
)
def test_rpl005_flags_access_shape(tmp_path: Path, source: str) -> None:
    result = rpl005_findings(tmp_path, source)
    assert [(f.rule, f.line) for f in result.findings] == [("RPL005", 2)]
    assert "'REPRO_X'" in result.findings[0].message


@pytest.mark.parametrize(
    "source",
    [
        'import os\nvalue = os.environ.get("PATH")\n',
        'import os\nvalue = os.getenv("repro_x")\n',
        'import os\nNAME = "REPRO_X"\nvalue = os.environ.get(NAME)\n',
        'import os\nvalue = os.environ.get(f"REPRO_{1}")\n',
        'import os\nvalue = os.environ.copy()\n',
        'environ = {}\nvalue = environ["REPRO_X"]\n',
        'settings = {}\nvalue = settings.get("REPRO_X")\n',
        'MESSAGE = "set REPRO_X to tune it"\n',
    ],
    ids=[
        "other_prefix",
        "lowercase_prefix",
        "non_literal_name",
        "formatted_name",
        "environ_method_without_name",
        "local_environ_dict",
        "plain_dict_get",
        "string_mention",
    ],
)
def test_rpl005_ignores_non_access(tmp_path: Path, source: str) -> None:
    assert rpl005_findings(tmp_path, source).findings == []


def test_rpl005_finding_names_the_enclosing_function(tmp_path: Path) -> None:
    result = rpl005_findings(
        tmp_path,
        "import os\n"
        'TOP = os.getenv("REPRO_TOP")\n'
        "def knob():\n"
        '    return os.environ["REPRO_INNER"]\n',
    )
    assert [(f.symbol, f.line) for f in result.findings] == [
        ("<module>", 2),
        ("knob", 4),
    ]
    assert [f.message for f in result.findings] == [
        "environment access of 'REPRO_TOP'; make it a constructor "
        "argument or a module constant",
        "environment access of 'REPRO_INNER'; make it a constructor "
        "argument or a module constant",
    ]


# ----------------------------------------------------------------------
# RPL006 — export hygiene
# ----------------------------------------------------------------------
def test_rpl006_flags_stale_all_and_stale_reexport() -> None:
    result = run_fixture("rpl006_exports", select=("RPL006",))
    assert {f.symbol for f in result.findings} == {
        "renamed_long_ago",
        "vanished_helper",
    }
    assert paths_of(result) == {
        "tests/analysis_fixtures/rpl006_exports/bad_exports.py"
    }


def test_rpl006_resolvable_exports_are_clean() -> None:
    result = run_fixture("rpl006_exports", select=("RPL006",))
    assert "tests/analysis_fixtures/rpl006_exports/good_exports.py" not in paths_of(
        result
    )


# ----------------------------------------------------------------------
# Cross-cutting: selection really isolates rules
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "fixture, expected_rule",
    [
        ("rpl001_pickle", "RPL001"),
        ("service", "RPL002"),
        ("joins", "RPL003"),
        ("rpl005_env", "RPL005"),
        ("rpl006_exports", "RPL006"),
    ],
)
def test_full_rule_set_only_fires_the_expected_rule(
    fixture: str, expected_rule: str
) -> None:
    result = run_fixture(fixture)
    assert {f.rule for f in result.findings} == {expected_rule}
