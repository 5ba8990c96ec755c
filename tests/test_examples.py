"""Smoke tests: every example script runs end-to-end.

Examples are user-facing documentation; a broken example is a broken
deliverable, so each one is executed as a subprocess (small sizes where
the script accepts an argument) and its key output lines are checked.
"""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, *args: str) -> str:
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_examples_directory_complete():
    present = {p.name for p in EXAMPLES.glob("*.py")}
    assert {
        "quickstart.py",
        "neuroscience_synapses.py",
        "density_robustness.py",
        "index_reuse.py",
        "spatial_queries.py",
        "service_quickstart.py",
        "cost_based_planning.py",
        "streaming_quickstart.py",
    } <= present


def test_quickstart():
    out = run_example("quickstart.py")
    assert "intersecting pairs" in out
    assert "verified against the brute-force oracle" in out


def test_neuroscience_synapses():
    out = run_example("neuroscience_synapses.py", "4000")
    assert "TRANSFORMERS" in out
    assert "faster" in out
    assert "confirmed synapses" in out


def test_density_robustness():
    out = run_example("density_robustness.py", "2000")
    assert "TRANSFORMERS" in out
    # Nine ladder rungs plus header and footer.
    data_lines = [l for l in out.splitlines() if "|" in l and "ratio" not in l]
    assert len(data_lines) == 9


def test_index_reuse():
    out = run_example("index_reuse.py")
    assert "cumulative cost" in out
    # Three partner rows with a ratio column.
    assert out.count("x") >= 3


def test_service_quickstart():
    out = run_example("service_quickstart.py")
    assert "cached=False" in out
    assert "cached=True" in out
    assert "hit rate 50%" in out
    assert "served from cache ✓" in out


def test_streaming_quickstart():
    out = run_example("streaming_quickstart.py", "2000")
    assert "cached=False" in out
    assert "cached=True" in out
    assert "delta_patched=True" in out
    assert "cached result(s) patched" in out
    assert "byte-identical to recompute ✓" in out


def test_cost_based_planning():
    out = run_example("cost_based_planning.py", "2000")
    assert "chosen    : transformers" in out
    assert "candidates" in out
    assert "error band" in out
    assert "more for the contrast rule's pick" in out
    assert "✓" in out


def test_spatial_queries():
    out = run_example("spatial_queries.py")
    assert "✓" in out and "✗" not in out
