"""Cost-based planning: the skew regression, the regret bound, reports.

Two pinned behaviours motivated the statistics layer:

* **Skew awareness** — a two-scalar cardinality-ratio rule plans a
  clustered pair and a uniform pair identically; at high cardinality
  contrast it routes *both* to GIPSY even where the measured totals
  favour TRANSFORMERS by ~3x.  On a Fig. 11-style clustered workload
  the cost-based planner must pick the cheaper-by-report plan, not
  GIPSY (and the report's ranking must agree with the measured
  outcome).
* **Bounded regret** — across the oracle corpus generators, the plan
  ``"auto"`` picks must never cost more than 1.5x the best costed
  candidate when actually executed.
"""

import pickle

import pytest

from repro.datagen import dense_cluster, scaled_space, uniform_cluster
from repro.engine import JoinPlan, SpatialWorkspace, plan_join
from tests.test_oracle_random import CASES

#: Maximum tolerated ratio between the executed cost of auto's choice
#: and the executed cost of the best costed candidate.
MAX_REGRET = 1.5


def _fig11_style_contrast_pair():
    """DenseCluster vs UniformCluster (Fig. 11 families) at a 96x
    cardinality contrast — clustered *and* skewed."""
    n_small, n_big = 60, 60 * 96
    space = scaled_space(n_small + n_big)
    a = dense_cluster(n_small, seed=21, name="dense", space=space)
    b = uniform_cluster(
        n_big, seed=22, name="unifclust", id_offset=10**9, space=space
    )
    return a, b


class TestSkewRegression:
    """The bug the subsystem fixes: planning blind to clustering."""

    def test_clustered_contrast_plans_to_the_cheaper_by_report_algorithm(
        self,
    ):
        a, b = _fig11_style_contrast_pair()
        report = plan_join(a, b, "auto", explain=True)
        assert isinstance(report, JoinPlan)
        assert report.stats_used
        # Not the directed crawl a contrast rule would pick...
        assert report.algorithm != "gipsy"
        # ...because the report itself prices the choice as cheaper.
        chosen = report.candidate(report.algorithm)
        gipsy = report.candidate("gipsy")
        assert chosen is not None and gipsy is not None
        assert chosen is report.candidates[0]
        assert chosen.total < gipsy.total

    def test_report_ranking_matches_measured_outcome(self):
        """The cheaper-by-report plan really is cheaper when executed."""
        a, b = _fig11_style_contrast_pair()
        report = plan_join(a, b, "auto", explain=True)
        executed_chosen = (
            SpatialWorkspace().join(a, b, algorithm=report.algorithm)
        )
        executed_gipsy = SpatialWorkspace().join(a, b, algorithm="gipsy")
        assert (
            executed_chosen.total_cost() < executed_gipsy.total_cost()
        )


def _corpus_pairs():
    """The oracle harness's non-empty cases (distribution + degenerate)."""
    return [
        (label, a, b)
        for label, a, b in CASES
        if len(a) > 0 and len(b) > 0
    ]


@pytest.mark.parametrize(
    "case",
    _corpus_pairs(),
    ids=[label for label, _, _ in _corpus_pairs()],
)
def test_auto_regret_bounded_on_oracle_corpus(case):
    """``"auto"`` never lands >1.5x above the best costed candidate."""
    label, a, b = case
    report = plan_join(a, b, "auto", explain=True)
    assert report.stats_used, f"stats planning did not run on {label}"
    assert len(report.candidates) >= 4  # the paper's comparison field
    executed = {
        candidate.algorithm: SpatialWorkspace()
        .join(a, b, algorithm=candidate.algorithm)
        .total_cost()
        for candidate in report.candidates
    }
    best = min(executed.values())
    chosen = executed[report.algorithm]
    assert chosen <= MAX_REGRET * best, (
        f"{label}: auto picked {report.algorithm} at {chosen:.0f}, "
        f"{chosen / best:.2f}x the best candidate ({best:.0f})"
    )


class TestCostedPlan:
    def test_explain_returns_ranked_plan(self):
        a, b = _fig11_style_contrast_pair()
        report = plan_join(a, b, "auto", explain=True)
        totals = [c.total for c in report.candidates]
        assert totals == sorted(totals)
        assert report.candidates[0].algorithm == report.algorithm
        assert report.est_pairs is not None
        assert report.est_tests is not None
        assert report.error_band is not None
        assert "estimated cost" in report.reason

    def test_auto_is_costed_with_or_without_explain(self):
        a, b = _fig11_style_contrast_pair()
        assert plan_join(a, b, "auto") == plan_join(
            a, b, "auto", explain=True
        )

    def test_explicit_call_without_explain_is_not_costed(self):
        a, b = _fig11_style_contrast_pair()
        plan = plan_join(a, b, "pbsm")
        assert plan.algorithm == "pbsm"
        assert not plan.stats_used
        assert plan.candidates == ()
        assert plan.est_pairs is None and plan.error_band is None

    def test_empty_side_is_not_costed(self):
        import numpy as np

        from repro.geometry.boxes import BoxArray
        from repro.joins.base import Dataset

        a, _ = _fig11_style_contrast_pair()
        empty = Dataset("e", np.empty(0, dtype=np.int64), BoxArray.empty(3))
        for left, right in ((a, empty), (empty, a), (empty, empty)):
            plan = plan_join(left, right, explain=True)
            assert plan.algorithm == "transformers"
            assert "empty" in plan.reason
            assert not plan.stats_used

    def test_plan_creates_the_chosen_algorithm(self):
        a, b = _fig11_style_contrast_pair()
        report = plan_join(a, b, "auto", explain=True)
        assert report.requested == "auto"
        assert report.hints.n_a == len(a)
        algo = report.create()
        assert algo.name.lower().replace("-", "") in report.algorithm.replace(
            "-", ""
        )

    def test_plan_pickles(self):
        a, b = _fig11_style_contrast_pair()
        report = plan_join(a, b, "auto", explain=True)
        restored = pickle.loads(pickle.dumps(report))
        assert restored.algorithm == report.algorithm
        assert restored.candidates == report.candidates

    def test_summary_is_json_friendly(self):
        import json

        a, b = _fig11_style_contrast_pair()
        report = plan_join(a, b, "auto", explain=True)
        encoded = json.dumps(report.summary())
        assert report.algorithm in encoded

    def test_explicit_request_with_explain_costs_the_field(self):
        a, b = _fig11_style_contrast_pair()
        report = plan_join(a, b, "rtree", explain=True)
        assert report.algorithm == "rtree"
        assert report.reason == "requested explicitly"
        assert len(report.candidates) >= 4
        assert report.candidate("rtree") is not None


class TestWorkspaceIntegration:
    def test_auto_join_carries_costed_plan(self):
        a, b = _fig11_style_contrast_pair()
        run = SpatialWorkspace().join(a, b)  # algorithm="auto"
        assert run.plan is not None
        assert run.plan.stats_used

    def test_explicit_join_is_not_costed_by_default(self):
        a, b = _fig11_style_contrast_pair()
        run = SpatialWorkspace().join(a, b, algorithm="transformers")
        assert run.plan is not None
        assert not run.plan.stats_used

    def test_sketches_are_cached_and_forgotten(self):
        ws = SpatialWorkspace()
        a, b = _fig11_style_contrast_pair()
        ws.join(a, b)
        assert ws.cached_sketch_count == 2
        first = ws.sketch_for(a)
        assert ws.sketch_for(a) is first  # cache hit, not a rebuild
        ws.forget(a)
        assert ws.cached_sketch_count == 1
        assert ws.sketch_for(a) is not first
        ws.drop_indexes()
        assert ws.cached_sketch_count == 0

    def test_sketch_cache_is_lru_bounded(self):
        from repro.datagen import uniform_dataset

        ws = SpatialWorkspace(max_cached_indexes=2)
        sets = [
            uniform_dataset(
                60, seed=40 + i, name=f"s{i}", id_offset=i * 10**6,
                space=scaled_space(60),
            )
            for i in range(3)
        ]
        for d in sets:
            ws.sketch_for(d)
        assert ws.cached_sketch_count == 2


class TestModelThreading:
    def test_planner_prices_with_the_workspace_disk_model(self):
        """An SSD-like disk (random == sequential) must change the
        candidate prices — the planner prices *this* workspace's
        hardware, not the experiment default's 20:1 ratio."""
        from repro.storage.disk import DiskModel

        a, b = _fig11_style_contrast_pair()
        default_ws = SpatialWorkspace()
        ssd_ws = SpatialWorkspace(
            disk_model=DiskModel(page_size=1024, random_read_cost=1.0)
        )
        default_report = default_ws.join(a, b).plan
        ssd_report = ssd_ws.join(a, b).plan
        # PBSM's all-random sweep gets dramatically cheaper on the SSD.
        assert (
            ssd_report.candidate("pbsm").join_io
            < default_report.candidate("pbsm").join_io / 5
        )

    def test_service_plan_prices_with_the_service_models(self):
        from repro.service import SpatialQueryService
        from repro.storage.disk import DiskModel

        a, b = _fig11_style_contrast_pair()
        ssd = SpatialQueryService(
            disk_model=DiskModel(page_size=1024, random_read_cost=1.0)
        )
        ssd.register("a", a)
        ssd.register("b", b)
        default = SpatialQueryService()
        default.register("a", a)
        default.register("b", b)
        assert (
            ssd.plan("a", "b").candidate("pbsm").join_io
            < default.plan("a", "b").candidate("pbsm").join_io / 5
        )


def _service_models():
    from repro.joins.base import CostModel
    from repro.storage.disk import DiskModel

    return {
        "default": {},
        "ssd": {"disk_model": DiskModel(page_size=1024, random_read_cost=1.0)},
        "slow_tests": {"cost_model": CostModel(intersection_test_cost=5.0)},
    }


@pytest.mark.parametrize("model", list(_service_models()))
@pytest.mark.parametrize(
    "case",
    _corpus_pairs(),
    ids=[label for label, _, _ in _corpus_pairs()],
)
def test_service_plan_agrees_with_what_a_miss_runs(case, model):
    """``plan()`` prices from the catalog's stored sketches; a miss
    plans afresh on the executor's workspace.  Both must reach the same
    decision on the same evidence."""
    from repro import JoinRequest, SpatialQueryService

    _, a, b = case
    service = SpatialQueryService(**_service_models()[model])
    service.register("a", a)
    service.register("b", b)
    explained = service.plan("a", "b")
    ran = service.submit(JoinRequest("a", "b")).report.plan
    assert ran is not None
    assert explained.algorithm == ran.algorithm
    assert explained.reason == ran.reason
    assert explained.hints.space == ran.hints.space
    assert explained.candidates == ran.candidates
    assert explained.est_pairs == ran.est_pairs
    assert explained.est_tests == ran.est_tests
