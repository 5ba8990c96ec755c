"""Tests for the experiment harness (runner, report, experiments)."""

import pytest

from repro.core import TransformersJoin
from repro.engine.report import RunReport
from repro.harness.experiments import EXPERIMENTS, main
from repro.harness.report import format_series, format_table, speedup
from repro.harness.runner import (
    geometric_sizes,
    pbsm_resolution,
    run_pair,
    scale_counts,
)

from tests.conftest import dataset_pair


class TestRunner:
    def test_run_pair_produces_complete_record(self):
        a, b = dataset_pair("uniform", 500, 500, seed=101)
        rec = run_pair(TransformersJoin(), a, b)
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
        rec = run_pair(TransformersJoin(), a, b)
        assert rec.intersection_tests == (
            rec.join_stats.intersection_tests
            + rec.join_stats.metadata_comparisons
        )

    def test_pbsm_resolution_monotone(self):
        assert pbsm_resolution(100) <= pbsm_resolution(100_000)
        assert pbsm_resolution(10) >= 2
        assert pbsm_resolution(10**9) <= 30

    def test_geometric_sizes(self):
        sizes = geometric_sizes(100, 800, 4)
        assert sizes[0] == 100 and sizes[-1] == 800
        assert sizes == sorted(sizes)
        assert geometric_sizes(5, 100, 1) == [5]
        with pytest.raises(ValueError):
            geometric_sizes(1, 2, 0)

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


class TestServiceBackedExperiments:
    """REPRO_EXPERIMENT_SERVICE=1 must be a pure routing change."""

    def test_rows_match_default_path_and_repeats_hit_cache(self, monkeypatch):
        from repro.harness import experiments

        def strip_wall(rows):
            return [
                {k: v for k, v in row.items() if k != "join_wall_s"}
                for row in rows
            ]

        default_rows = experiments.table1(0.01)

        monkeypatch.setenv("REPRO_EXPERIMENT_SERVICE", "1")
        monkeypatch.setattr(experiments, "_SERVICE", None)
        service_rows = experiments.table1(0.01)
        assert strip_wall(service_rows) == strip_wall(default_rows)

        # A second identical sweep is served from the result cache —
        # deterministic fields unchanged, every join deflected.
        before = experiments._experiment_service().stats()
        repeat_rows = experiments.table1(0.01)
        assert strip_wall(repeat_rows) == strip_wall(default_rows)
        after = experiments._experiment_service().stats()
        assert after.cache_hits - before.cache_hits == len(default_rows)
        assert after.cache_misses == before.cache_misses

    def test_instance_algorithm_path(self, monkeypatch):
        """_run_one with pre-configured instances routes through the
        service too (fig14's TransformersJoin() runs)."""
        from repro.harness import experiments

        monkeypatch.setenv("REPRO_EXPERIMENT_SERVICE", "1")
        monkeypatch.setattr(experiments, "_SERVICE", None)
        rows = experiments.fig14(0.005)
        assert rows and all("overhead_share" in row for row in rows)
        stats = experiments._experiment_service().stats()
        assert stats.requests == len(rows)
        assert stats.failures == 0
