"""Tests for the engine's auto-planner and parameter resolution."""

import pytest

from repro.datagen import scaled_space, uniform_dataset
from repro.engine.planner import (
    EXPERIMENT_PAGE_SIZE,
    JoinPlan,
    pbsm_resolution,
    plan_join,
    shared_space,
)
from repro.joins import PBSMJoin

from tests.conftest import dataset_pair


def _ratio_pair(n_small: int, n_big: int):
    space = scaled_space(n_small + n_big)
    a = uniform_dataset(n_small, seed=1, name="small", space=space)
    b = uniform_dataset(
        n_big, seed=2, name="big", id_offset=10**9, space=space
    )
    return a, b


class TestAutoSelection:
    def test_balanced_uniform_picks_transformers(self):
        """The robust default wins on cost: no per-workload tuning."""
        a, b = dataset_pair("uniform", 400, 400, seed=21)
        plan = plan_join(a, b, "auto")
        assert plan.algorithm == "transformers"
        assert plan.requested == "auto"
        assert "estimated cost" in plan.reason

    def test_skewed_pair_within_threshold_stays_transformers(self):
        a, b = _ratio_pair(200, 200 * 8)
        assert plan_join(a, b, "auto").algorithm == "transformers"

    def test_cost_based_choice_is_symmetric(self):
        a, b = _ratio_pair(30, 30 * 100)
        assert (
            plan_join(a, b, "auto").algorithm
            == plan_join(b, a, "auto").algorithm
        )


class TestRobustDefault:
    def test_no_costable_candidate_plans_transformers(self):
        """With nothing to cost, auto keeps the paper's robust default
        even at a 100x cardinality contrast."""
        import dataclasses

        from repro.engine import registry

        a, b = _ratio_pair(30, 30 * 100)
        original = dict(registry._REGISTRY)
        for name, spec in original.items():
            registry._REGISTRY[name] = dataclasses.replace(
                spec, plannable=False
            )
        try:
            report = plan_join(a, b, "auto", explain=True)
        finally:
            registry._REGISTRY.update(original)
        assert report.algorithm == "transformers"
        assert report.reason.startswith("robust default")
        assert not report.stats_used
        assert report.candidates == ()


class TestExplicitSelection:
    def test_explicit_name_respected(self):
        a, b = dataset_pair("uniform", 200, 200, seed=22)
        plan = plan_join(a, b, "PBSM")
        assert plan.algorithm == "pbsm"
        assert plan.reason == "requested explicitly"

    def test_unknown_name_raises(self):
        a, b = dataset_pair("uniform", 100, 100, seed=23)
        with pytest.raises(ValueError, match="unknown algorithm"):
            plan_join(a, b, "voronoi")

    def test_create_builds_configured_instance(self):
        a, b = dataset_pair("uniform", 300, 300, seed=24)
        plan = plan_join(a, b, "pbsm")
        algo = plan.create()
        assert isinstance(algo, PBSMJoin)
        assert algo.resolution == pbsm_resolution(600)


class TestParameterResolution:
    def test_resolution_matches_heuristic(self):
        a, b = dataset_pair("uniform", 350, 250, seed=25)
        plan = plan_join(a, b, "pbsm", page_size=2048)
        assert plan.hints.parameters["resolution"] == (
            pbsm_resolution(600, 2048)
        )

    def test_parameter_override_wins(self):
        a, b = dataset_pair("uniform", 200, 200, seed=26)
        plan = plan_join(a, b, "pbsm", parameters={"resolution": 3})
        assert plan.create().resolution == 3

    def test_default_space_is_union_of_mbbs(self):
        a, b = dataset_pair("uniform", 200, 200, seed=27)
        plan = plan_join(a, b, "pbsm")
        assert plan.hints.space == shared_space(a, b)

    def test_space_override_respected(self):
        a, b = dataset_pair("uniform", 200, 200, seed=28)
        space = scaled_space(4000)
        plan = plan_join(a, b, "pbsm", space=space)
        assert plan.hints.space == space
        assert plan.create().space == space

    def test_hints_cardinalities(self):
        a, b = _ratio_pair(100, 300)
        hints = plan_join(a, b, "auto").hints
        assert (hints.n_a, hints.n_b, hints.n_total) == (100, 300, 400)
        assert hints.page_size == EXPERIMENT_PAGE_SIZE

    def test_plan_is_frozen(self):
        a, b = dataset_pair("uniform", 100, 100, seed=29)
        plan = plan_join(a, b, "auto")
        assert isinstance(plan, JoinPlan)
        with pytest.raises(AttributeError):
            plan.algorithm = "pbsm"


class TestHarnessBackCompat:
    """The storage defaults moved into the engine; the harness module
    keeps re-exporting them for existing callers."""

    def test_runner_reexports_engine_definitions(self):
        from repro.harness import runner

        assert runner.pbsm_resolution is pbsm_resolution
        assert runner.EXPERIMENT_PAGE_SIZE == EXPERIMENT_PAGE_SIZE
        assert runner.experiment_disk_model().page_size == (
            EXPERIMENT_PAGE_SIZE
        )
