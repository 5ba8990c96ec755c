"""The summariser of ``benchmarks/paired.py`` on canned benchmark output.

No benchmark child is started here: ``summarise`` gets the JSON objects
``python3 -m bench --trace 0`` prints as its last line.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "paired", Path(__file__).resolve().parent.parent / "benchmarks" / "paired.py"
)
paired = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(paired)

METRICS = [
    {"name": "miss_p50_ms", "better": "lower"},
    {"name": "ops_per_s", "better": "higher"},
    {"name": "sim_cost_per_join", "better": "lower"},
]


def _line(miss, ops, failed=0):
    """What a run prints last, as the tool reads it back."""
    return json.loads(
        json.dumps(
            {
                "correct": not failed,
                "attempted": 300,
                "failed": failed,
                "metrics": {
                    "miss_p50_ms": {"value": miss, "unit": "ms"},
                    "ops_per_s": {"value": ops, "unit": "1/s"},
                    "sim_cost_per_join": {"value": 10243.074, "unit": "cost"},
                },
            }
        )
    )


def _rows(parent, change):
    rows = paired.summarise(METRICS, parent, change)
    return {row.split()[0]: row for row in rows[1:]}


def test_quartiles_are_inclusive_and_one_value_is_all_three():
    assert paired.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert paired.quartiles([7.5]) == (7.5, 7.5, 7.5)


def test_a_gain_needs_nine_wins_in_ten_and_a_gap_beyond_the_parents_spread():
    parent = [_line(56.0 + 0.1 * k, 17.0) for k in range(10)]
    change = [_line(48.0 + 0.1 * k, 19.0 - 0.3 * k) for k in range(10)]
    rows = _rows(parent, change)
    assert "56.45 [56.225, 56.675]" in rows["miss_p50_ms"]
    assert "48.45 [48.225, 48.675]" in rows["miss_p50_ms"]
    assert "-14.2%" in rows["miss_p50_ms"]
    assert "10/10 (lost 0)  yes  <- claimable" in rows["miss_p50_ms"]
    # Higher is better, 7 wins and 3 losses: beyond the spread, no claim.
    assert rows["ops_per_s"].endswith("7/10 (lost 3)  yes")
    # Equal on every run: ties count for neither side.
    assert rows["sim_cost_per_join"].endswith("+0.0%  0/10 (lost 0)  no")
    assert rows["parent:"] == "parent: failed 0 of 3000 ops"


def test_a_gap_inside_the_parents_spread_is_not_a_gain():
    parent = [_line(miss, 17.0) for miss in (50.0, 60.0, 55.0, 65.0)]
    change = [_line(miss - 1.0, 17.0) for miss in (50.0, 60.0, 55.0, 65.0)]
    row = _rows(parent, change)["miss_p50_ms"]
    assert row.endswith("4/4 (lost 0)  no")


def test_a_regression_is_counted_as_losses_and_never_claimable():
    parent = [_line(50.0, 17.0), _line(50.2, 17.0, failed=2)]
    change = [_line(58.0, 17.0), _line(58.2, 17.0)]
    rows = _rows(parent, change)
    assert rows["miss_p50_ms"].endswith("0/2 (lost 2)  yes")
    assert rows["parent:"] == "parent: failed 2 of 600 ops"
    assert rows["change:"] == "change: failed 0 of 600 ops"


def test_unpaired_runs_are_refused():
    with pytest.raises(ValueError):
        paired.summarise(METRICS, [_line(50.0, 17.0)] * 2, [_line(50.0, 17.0)])


def test_workload_lists_are_split_in_order_and_blanks_or_repeats_refused():
    import argparse

    assert paired.workload_list("cold_skewed") == ["cold_skewed"]
    assert paired.workload_list("cold_skewed, serve_single,cold_uniform") == [
        "cold_skewed", "serve_single", "cold_uniform",
    ]
    for text in ("", "cold_skewed,", ",cold_uniform", "a,,b", "a,b,a"):
        with pytest.raises(argparse.ArgumentTypeError):
            paired.workload_list(text)


def test_one_table_per_workload_each_after_its_own_alternating_pairs(tmp_path, capsys):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": METRICS}))
    parent, change = tmp_path / "parent", tmp_path
    calls = []

    def canned(tree, workload, seed):
        calls.append((tree.name, workload, seed))
        faster = tree == change
        return _line(40.0 if faster else 50.0, 20.0 if faster else 17.0)

    paired.main(
        [str(parent), str(change), "--workload", "cold_skewed,cold_uniform",
         "--seed", "101", "--pairs", "2"],
        run=canned,
    )
    sides = [parent.name, change.name, change.name, parent.name]
    assert calls == [(s, w, 101) for w in ("cold_skewed", "cold_uniform") for s in sides]
    out = capsys.readouterr().out
    tables = out.split("metric ")[1:]
    assert len(tables) == 2
    assert out.index("cold_skewed, seed 101, 2 pairs") < out.index("cold_uniform pair 1")
    for table in tables:
        assert "2/2 (lost 0)  yes  <- claimable" in table
        assert "change: failed 0 of 600 ops" in table
