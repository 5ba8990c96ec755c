"""Tests for the experiment harness (runs, report, experiments)."""

import pytest

from repro.core import TransformersJoin
from repro.engine import SpatialWorkspace, pbsm_resolution
from repro.engine.report import RunReport
from repro.harness.experiments import EXPERIMENTS, main
from repro.harness.report import format_series, format_table, speedup
from repro.harness.runner import scale_counts

from tests.conftest import dataset_pair


class TestRunner:
    def test_a_run_produces_a_complete_record(self):
        a, b = dataset_pair("uniform", 500, 500, seed=101)
        rec = SpatialWorkspace().join(a, b, TransformersJoin())
        assert isinstance(rec, RunReport)
        assert rec.n_a == 500 and rec.n_b == 500
        assert rec.index_cost > 0
        assert rec.join_cost > 0
        assert rec.join_cost == pytest.approx(
            rec.join_io_cost + rec.join_cpu_cost
        )
        row = rec.row()
        assert row["algorithm"] == "TRANSFORMERS"
        assert row["pairs"] == rec.pairs_found

    def test_tests_metric_includes_metadata(self):
        """Figure 11's footnote: TRANSFORMERS' comparison counts include
        metadata comparisons."""
        a, b = dataset_pair("uniform", 500, 500, seed=102)
        rec = SpatialWorkspace().join(a, b, TransformersJoin())
        assert rec.intersection_tests == (
            rec.join_stats.intersection_tests
            + rec.join_stats.metadata_comparisons
        )

    def test_pbsm_resolution_monotone(self):
        assert pbsm_resolution(100) <= pbsm_resolution(100_000)
        assert pbsm_resolution(10) >= 2
        assert pbsm_resolution(10**9) <= 30

    def test_scale_counts_floors_at_ten(self):
        assert scale_counts([100, 5], 0.01) == [10, 10]


class TestReport:
    def test_format_table_alignment(self):
        out = format_table(
            [{"a": 1, "bb": 2.5}, {"a": 10, "bb": 0.25}], title="T"
        )
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_format_table_empty(self):
        assert "(empty)" in format_table([])

    def test_format_table_column_selection(self):
        out = format_table([{"a": 1, "b": 2}], columns=["b"])
        assert "a" not in out.splitlines()[0]

    def test_format_series(self):
        out = format_series("n", [10, 20], {"ALG": [1.0, 2.0]}, title="S")
        assert out.splitlines()[0] == "S"
        assert "ALG" in out

    def test_speedup(self):
        assert speedup(10.0, 5.0) == 2.0
        assert speedup(10.0, 0.0) == float("inf")


class TestExperiments:
    """Every table/figure entry point runs end-to-end at a tiny scale
    and yields the expected row structure.  Shape assertions live in the
    benchmarks; here we verify the machinery."""

    def test_registry_covers_all_artifacts(self):
        assert set(EXPERIMENTS) == {
            "fig10", "fig11", "table1", "fig12",
            "fig13_impact", "fig13_threshold", "fig14",
        }

    @pytest.mark.parametrize("name", ["fig11", "table1", "fig12"])
    def test_standard_experiments_tiny(self, name):
        rows = EXPERIMENTS[name](0.05)
        assert rows
        algorithms = {r["algorithm"] for r in rows}
        assert "TRANSFORMERS" in algorithms
        assert "PBSM" in algorithms
        for row in rows:
            assert row["join_cost"] > 0

    def test_fig13_impact_tiny(self):
        rows = EXPERIMENTS["fig13_impact"](0.05)
        assert {r["algorithm"] for r in rows} == {"TRANSFORMERS", "No TR"}

    def test_fig13_threshold_tiny(self):
        rows = EXPERIMENTS["fig13_threshold"](0.05)
        configs = {r["config"] for r in rows}
        assert configs == {"OverFit", "CostModelFit", "UnderFit"}
        workloads = {r["workload"] for r in rows}
        assert len(workloads) == 3

    def test_fig14_tiny(self):
        rows = EXPERIMENTS["fig14"](0.05)
        for row in rows:
            assert 0.0 <= row["overhead_share"] <= 1.0

    def test_cli_single_experiment(self, capsys):
        assert main(["table1", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out
        assert "TRANSFORMERS" in out

