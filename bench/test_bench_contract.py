"""Contract self-test of the benchmark, collected by the tier-1 suite.

Every workload runs once untraced and once traced at ``--scale tiny``,
whose windows count ops instead of seconds, so what is asserted here —
which metrics appear where, exact counters, correctness, pins — does
not depend on the machine's speed.  There are no timing assertions.
"""

from __future__ import annotations

import ast
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from bench import ROOT, serve
from bench.__main__ import driver_object, run_workload
from bench.metrics import ALL, COLD, END_TO_END, PER_LAYER, WORKLOADS, catalogue
from bench.trace import SERVE_TARGETS
from bench.workloads import (
    DEFAULT_SEED,
    TINY,
    cold_inputs_digest,
    cold_pairs,
    serve_catalog,
    serve_inputs_digest,
)

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
EXACT = ("sim_cost_per_join",) + tuple(
    m.name for m in PER_LAYER
    if m.name.startswith("core.") and m.unit == "count" and set(m.on) == set(COLD)
)


def _run(workload: str, trace: bool):
    return run_workload(workload, DEFAULT_SEED, TINY, TINY.seconds, trace)


@pytest.fixture(scope="module")
def runs():
    return {(w, trace): _run(w, trace) for w in ALL for trace in (False, True)}


def test_manifest_shape():
    assert set(MANIFEST) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert MANIFEST["paths"] == ["bench"]
    assert MANIFEST["command"] == ["python3", "-m", "bench"]
    assert isinstance(MANIFEST["run_seconds"], int) and 1 <= MANIFEST["run_seconds"] <= 60
    assert 2 <= len(MANIFEST["workloads"]) <= 8
    assert 1 <= len(MANIFEST["end_to_end"]) <= 16
    assert 1 <= len(MANIFEST["per_layer"]) <= 128
    names = [
        row["name"]
        for section in ("workloads", "end_to_end", "per_layer")
        for row in MANIFEST[section]
    ]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for row in MANIFEST["workloads"]:
        assert set(row) == {"name", "why"}
        assert len(row["why"]) <= 200 and "\n" not in row["why"]
    for row in MANIFEST["end_to_end"]:
        assert set(row) == {"name", "unit", "better", "bound"}
        assert 0 <= row["bound"] <= 0.25
    for row in MANIFEST["per_layer"]:
        assert set(row) == {"name", "unit", "better"}
    for row in MANIFEST["end_to_end"] + MANIFEST["per_layer"]:
        assert UNIT.fullmatch(row["unit"]), row
        assert row["better"] in ("lower", "higher")
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= (
        MANIFEST["end_to_end"][0].items()
    )


def test_manifest_repeats_the_catalogue():
    assert [(r["name"], r["why"]) for r in MANIFEST["workloads"]] == list(
        WORKLOADS.items()
    )
    assert list(WORKLOADS) == list(ALL)
    assert [
        (r["name"], r["unit"], r["better"], r["bound"]) for r in MANIFEST["end_to_end"]
    ] == [(m.name, m.unit, m.better, m.bound) for m in END_TO_END]
    assert [(r["name"], r["unit"], r["better"]) for r in MANIFEST["per_layer"]] == [
        (m.name, m.unit, m.better) for m in PER_LAYER
    ]


def test_every_metric_on_exactly_its_workloads(runs):
    for (workload, trace), result in runs.items():
        declared = {m.name for m in catalogue(trace) if workload in m.on}
        assert set(result.measured) == declared, (workload, trace)
        # The driver's line carries the whole catalogue, as valid JSON.
        line = json.loads(json.dumps(driver_object(result)))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert list(line["metrics"]) == [m.name for m in catalogue(trace)]
        for metric in catalogue(trace):
            assert line["metrics"][metric.name]["unit"] == metric.unit


def test_every_answer_is_correct(runs):
    for (workload, trace), result in runs.items():
        assert result.attempted >= 1, (workload, trace)
        assert result.failed == 0, (workload, trace, result.notes)
        assert result.correct, (workload, trace, result.notes)


def test_end_to_end_metrics_are_never_zero(runs):
    for workload in ALL:
        for name, (value, samples) in runs[workload, False].measured.items():
            assert value > 0 and samples > 0, (workload, name)


def test_default_seed_is_pinned(runs):
    for (workload, _), result in runs.items():
        assert any("matches its pin" in note for note in result.notes), result.notes
    for workload in COLD:
        assert any("brute force" in n for n in runs[workload, False].notes)


def test_inputs_are_a_function_of_the_seed():
    for workload in COLD:
        first, second = (
            cold_inputs_digest(cold_pairs(workload, 5, TINY)) for _ in range(2)
        )
        assert first == second
        assert first != cold_inputs_digest(cold_pairs(workload, 6, TINY))
    first, second = (
        serve_inputs_digest(serve_catalog(5, TINY), 5) for _ in range(2)
    )
    assert first == second
    assert first != serve_inputs_digest(serve_catalog(6, TINY), 6)


def test_exact_counters_repeat(runs):
    for workload in COLD:
        for trace in (False, True):
            again = _run(workload, trace).measured
            for name in EXACT:
                if name in again:
                    assert again[name][0] == runs[workload, trace].measured[name][0], name


def test_skewed_data_transforms_and_uniform_data_does_not(runs):
    def splits(workload):
        measured = runs[workload, True].measured
        return measured["core.splits_to_unit"][0] + measured["core.splits_to_element"][0]

    assert splits("cold_skewed") > splits("cold_uniform")


def test_both_tiers_replay_identically():
    notes: list[str] = []
    assert serve.replay_check(DEFAULT_SEED, TINY, notes), notes


def test_public_api_only():
    """Nothing from ``benchmarks/``, no underscore-private ``repro`` name."""
    for path in sorted((ROOT / "bench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules, names = [alias.name for alias in node.names], []
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
                names = [alias.name for alias in node.names]
            else:
                continue
            for module in modules:
                parts = module.split(".")
                assert parts[0] != "benchmarks", (path.name, module)
                if parts[0] == "repro":
                    private = [p for p in parts + names if p.startswith("_")]
                    assert not private, (path.name, module, names)
    for target in SERVE_TARGETS.values():
        assert not any(
            part.startswith("_") for part in re.split(r"[.:]", target)
        ), target


def test_a_bare_directory_fails_without_a_result(tmp_path):
    """With only ``BENCHMARK.json`` and ``bench/`` there is no program
    to measure: the command must exit non-zero and print no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "bench", tmp_path / "bench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "-m", "bench", "--workload", "cold_uniform",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_a_run_returns_only_when_its_orphans_have_ended(tmp_path):
    """The shared-memory resource tracker outlives the workload process
    by a moment; the driver's command must wait for such orphans."""
    flag = tmp_path / "orphan-ended"
    orphan = f"import time; time.sleep(1.0); open({str(flag)!r}, 'w').close()"
    worker = (
        "import subprocess, sys; "
        f"subprocess.Popen([sys.executable, '-c', {orphan!r}]); sys.exit(7)"
    )
    supervisor = (
        "import sys; from bench import supervise; "
        f"sys.exit(supervise.run([sys.executable, '-c', {worker!r}]))"
    )
    done = subprocess.run([sys.executable, "-c", supervisor], cwd=ROOT, timeout=60)
    assert done.returncode == 7
    assert flag.exists()
