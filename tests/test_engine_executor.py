"""Tests for the join executor.

Covers the executor's contract: every request runs on the executor's
one long-lived workspace, reusing the indexes earlier requests built,
and answers exactly what a direct workspace join answers; a request
that fails raises, and the executor keeps serving the requests after
it.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.datagen import scaled_space, uniform_dataset
from repro.engine import (
    BatchExecutor,
    JoinRequest,
    SpatialWorkspace,
    available_algorithms,
    experiment_disk_model,
)
from repro.engine.executor import EXECUTOR_CACHED_INDEXES
from repro.joins.base import CostModel, Dataset, SpatialJoinAlgorithm
from repro.joins.pbsm import PBSMJoin

from tests.conftest import dataset_pair, oracle_pairs


class ExplodingJoin(SpatialJoinAlgorithm):
    """An algorithm whose join phase always raises."""

    name = "EXPLODE"

    def _build(self, disk, dataset, stats):
        return SimpleNamespace(disk=disk)

    def _join(self, index_a, index_b, stats):
        raise RuntimeError("synthetic join failure")


def _mixed_requests(n_requests: int = 6) -> list[JoinRequest]:
    a, b = dataset_pair("clustered", 220, 220, seed=3)
    algorithms = ["transformers", "pbsm", "rtree", "auto"]
    return [
        JoinRequest(a, b, algorithm=algorithms[i % len(algorithms)],
                    label=f"req{i}")
        for i in range(n_requests)
    ]


class TestRun:
    def test_each_run_equals_a_fresh_workspace_join(self):
        executor = BatchExecutor()
        requests = _mixed_requests()
        reports = [executor.run(request) for request in requests]
        for request, report in zip(requests, reports):
            direct = SpatialWorkspace().join(
                request.a, request.b, algorithm=request.algorithm
            )
            assert report.algorithm == direct.algorithm
            assert (
                report.result.pairs.tobytes()
                == direct.result.pairs.tobytes()
            )
            assert report.intersection_tests == direct.intersection_tests
        assert any(r.pairs_found > 0 for r in reports)

    @pytest.mark.parametrize("algorithm", available_algorithms() + ("auto",))
    def test_every_algorithm_matches_a_direct_join(self, algorithm):
        a, b = dataset_pair("contrast", 150, 150, seed=5)
        report = BatchExecutor().run(JoinRequest(a, b, algorithm))
        direct = SpatialWorkspace().join(a, b, algorithm=algorithm)
        assert report.algorithm == direct.algorithm
        assert report.result.pairs.tobytes() == direct.result.pairs.tobytes()
        assert report.intersection_tests == direct.intersection_tests
        assert report.join_io_cost == direct.join_io_cost
        assert report.pair_set() == oracle_pairs(a, b)

    @pytest.mark.parametrize("within", [0.25, 1.0])
    @pytest.mark.parametrize("algorithm", ["transformers", "pbsm"])
    def test_distance_join_matches_a_direct_join(self, algorithm, within):
        a, b = dataset_pair("clustered", 150, 150, seed=6)
        report = BatchExecutor().run(
            JoinRequest(a, b, algorithm, within=within)
        )
        direct = SpatialWorkspace().join(
            a, b, algorithm=algorithm, within=within
        )
        brute = SpatialWorkspace().join(a, b, algorithm="brute", within=within)
        assert report.result.pairs.tobytes() == direct.result.pairs.tobytes()
        assert report.pair_set() == brute.pair_set()
        assert oracle_pairs(a, b) <= report.pair_set()

    def test_repeated_requests_reuse_the_first_requests_indexes(self):
        """Request 2 onward builds nothing and answers like request 1."""
        a, b = dataset_pair("uniform", 150, 150, seed=7)
        executor = BatchExecutor()
        first, *later = [
            executor.run(JoinRequest(a, b, "transformers")) for _ in range(3)
        ]
        assert not first.reused_a and not first.reused_b
        assert first.index_pages_written_a > 0
        assert first.index_pages_written_b > 0
        for report in later:
            assert report.reused_a and report.reused_b
            assert report.index_pages_written_a == 0
            assert report.index_pages_written_b == 0
            assert report.result.pairs.tobytes() == first.result.pairs.tobytes()
            assert report.intersection_tests == first.intersection_tests
        # The reverse pairing reuses the same two indexes.
        again = executor.run(JoinRequest(b, a, "transformers"))
        assert again.reused_a and again.reused_b
        assert executor.workspace.cached_index_count == 2

    def test_a_run_answers_with_the_workspace_report(self):
        """``run`` returns the report the executor's workspace made, with
        the request's planner inputs applied."""
        a, b = dataset_pair("uniform", 120, 120, seed=9)
        executor = BatchExecutor()
        report = executor.run(
            JoinRequest(a, b, "pbsm", parameters={"resolution": 4})
        )
        direct = SpatialWorkspace().join(
            a, b, algorithm="pbsm", parameters={"resolution": 4}
        )
        assert report.result.pairs.tobytes() == direct.result.pairs.tobytes()
        assert report.intersection_tests == direct.intersection_tests
        assert report.total_cost(executor.workspace.cost_model) == (
            direct.total_cost()
        )


class TestModels:
    """An executor's workspace prices with the default disk and cost
    models and holds at most :data:`EXECUTOR_CACHED_INDEXES` indexes."""

    def test_runs_price_with_the_default_models(self):
        a, b = dataset_pair("contrast", 150, 150, seed=5)
        executor = BatchExecutor()
        assert executor.workspace.disk.model == experiment_disk_model()
        assert executor.workspace.cost_model == CostModel()
        report = executor.run(JoinRequest(a, b, "pbsm"))
        direct = SpatialWorkspace().join(a, b, algorithm="pbsm")
        assert report.join_io_cost == direct.join_io_cost
        assert report.join_io_cost > 0.0
        assert report.join_cpu_cost == direct.join_cpu_cost
        assert report.total_cost(CostModel()) == direct.total_cost()

    def test_index_cache_stops_at_the_executor_bound(self):
        space = scaled_space(40)
        datasets = [
            uniform_dataset(
                40, seed=60 + i, name=f"d{i}", id_offset=i * 10**6,
                space=space,
            )
            for i in range(EXECUTOR_CACHED_INDEXES + 2)
        ]
        executor = BatchExecutor()
        for left, right in zip(datasets[::2], datasets[1::2]):
            report = executor.run(JoinRequest(left, right, "transformers"))
            assert not report.reused_a and not report.reused_b
        assert executor.workspace.cached_index_count == EXECUTOR_CACHED_INDEXES
        # The oldest pair was evicted: joining it again rebuilds both.
        again = executor.run(
            JoinRequest(datasets[0], datasets[1], "transformers")
        )
        assert not again.reused_a and not again.reused_b


class TestDescribe:
    @pytest.mark.parametrize(
        "kwargs, expected",
        [
            ({"label": "mine"}, "mine"),
            ({}, "pbsm(A, B)"),
            ({"algorithm": PBSMJoin(resolution=4)}, "PBSM(A, B)"),
            ({"within": 0.5}, "pbsm(A, B) within=0.5"),
            ({"a": "left", "b": "right"}, "pbsm(left, right)"),
        ],
        ids=["label", "registry-name", "instance", "within", "catalog-names"],
    )
    def test_describe(self, kwargs, expected):
        a, b = dataset_pair("uniform", 20, 20, seed=1)
        fields = {"a": a, "b": b, "algorithm": "pbsm", **kwargs}
        request = JoinRequest(**fields)
        assert request.describe() == expected


class TestFailureIsolation:
    """A failing request raises; the executor serves the next one."""

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_failure_position_does_not_matter(self, position):
        a, b = dataset_pair("uniform", 100, 100, seed=3)
        requests = [
            JoinRequest(a, b, "transformers", label=f"ok-{i}")
            for i in range(3)
        ]
        requests[position] = JoinRequest(a, b, ExplodingJoin(), label="boom")
        executor = BatchExecutor()
        oracle = oracle_pairs(a, b)
        for i, request in enumerate(requests):
            if i == position:
                with pytest.raises(RuntimeError, match="synthetic"):
                    executor.run(request)
            else:
                assert executor.run(request).pair_set() == oracle

    def test_crash_fails_only_that_request(self):
        a, b = dataset_pair("uniform", 150, 150, seed=1)
        executor = BatchExecutor()
        first = executor.run(JoinRequest(a, b, "transformers"))
        with pytest.raises(RuntimeError, match="synthetic join failure"):
            executor.run(JoinRequest(a, b, ExplodingJoin(), label="boom"))
        after = executor.run(JoinRequest(a, b, "transformers"))
        assert first.pair_set() == after.pair_set() == oracle_pairs(a, b)
        # The failed join lost nothing the workspace had cached.
        assert after.reused_a and after.reused_b

    def test_instance_algorithm_with_space_fails_loudly(self):
        """space/parameters are planner inputs; combining them with a
        pre-configured instance is an error, not a silent no-op."""
        a, b = dataset_pair("uniform", 80, 80, seed=10)
        with pytest.raises(ValueError, match="planner inputs"):
            BatchExecutor().run(
                JoinRequest(a, b, PBSMJoin(resolution=4),
                            space=a.boxes.mbb())
            )

    def test_invalid_algorithm_name_is_isolated_too(self):
        a, b = dataset_pair("uniform", 80, 80, seed=2)
        executor = BatchExecutor()
        with pytest.raises(ValueError, match="no-such-join"):
            executor.run(JoinRequest(a, b, "no-such-join"))
        assert executor.run(JoinRequest(a, b, "brute")).pair_set() == (
            oracle_pairs(a, b)
        )

    def test_unresolved_catalog_name_fails_that_request(self):
        """Names are a service-tier input; reaching the executor
        unresolved is this request's TypeError."""
        a, b = dataset_pair("uniform", 80, 80, seed=4)
        executor = BatchExecutor()
        with pytest.raises(TypeError, match="unresolved"):
            executor.run(JoinRequest("a", b, "brute"))
        assert executor.run(JoinRequest(a, b, "brute")).pair_set() == (
            oracle_pairs(a, b)
        )


class TestWorkspaceIntegration:
    def test_empty_side_short_circuits(self):
        from repro.geometry.boxes import BoxArray

        a, _ = dataset_pair("uniform", 50, 50, seed=8)
        empty = Dataset("E", np.empty(0, dtype=np.int64), BoxArray.empty(3))
        report = SpatialWorkspace().join(a, empty, algorithm="rtree")
        assert report.pairs_found == 0
        assert report.pair_set() == set()
