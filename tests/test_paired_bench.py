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
    {"name": "miss_p50_ms", "better": "lower", "bound": 0.25},
    {"name": "ops_per_s", "better": "higher", "bound": 0.25},
    {"name": "sim_cost_per_join", "better": "lower", "bound": 0.25},
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
    assert "+0.0%    0.0%  no regression (25%)" in rows["sim_cost_per_join"]
    assert rows["sim_cost_per_join"].endswith("0/10 (lost 0)  no")
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


def _verdicts(parent_miss, change_miss, parent_ops=17.0, change_ops=17.0):
    """The verdict column of each metric, from its printed row."""
    parent = [_line(miss, parent_ops) for miss in parent_miss]
    change = [_line(miss, change_ops) for miss in change_miss]
    return {
        name: row.split("%  ", 2)[2].split(" (")[0]
        for name, row in _rows(parent, change).items()
        if name in {"miss_p50_ms", "ops_per_s"}
    }


#: A parent whose runs spread by 1/51 of its median, well inside 25 %.
_TIGHT = [50.0, 50.5, 51.0, 51.5, 52.0]
#: A parent whose quartiles are 20/60 = 33 % of its median apart.
_WIDE = [40.0, 50.0, 60.0, 70.0, 80.0]


def test_a_median_worse_within_the_bound_is_no_regression():
    worse = [miss + 2.0 for miss in _TIGHT]  # +3.9 %, 0 of 5 won
    assert _verdicts(_TIGHT, worse)["miss_p50_ms"] == "no regression"


def test_a_median_worse_beyond_the_bound_is_a_regression():
    worse = [miss + 17.0 for miss in _TIGHT]  # +33 %
    verdicts = _verdicts(_TIGHT, worse, parent_ops=20.0, change_ops=14.0)
    assert verdicts == {"miss_p50_ms": "regressed", "ops_per_s": "regressed"}


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    # The change's median is better, yet the runs cannot tell; nor can
    # they when every change run is worse.
    better = [45.0, 55.0, 58.0, 65.0, 75.0]
    assert _verdicts(_WIDE, better)["miss_p50_ms"] == "unresolved"
    worse = [miss + 50.0 for miss in _WIDE]
    assert _verdicts(_WIDE, worse)["miss_p50_ms"] == "unresolved"


def test_every_change_run_beating_every_parent_run_resolves_a_wide_spread():
    better = [30.0, 32.0, 34.0, 36.0, 38.0]
    assert _verdicts(_WIDE, better)["miss_p50_ms"] == "no regression"
    assert paired.verdict(0.25, 1.0, [10.0, 20.0, 30.0], [31.0, 32.0, 40.0]) == (
        "no regression"
    )


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
