"""Tests for the batch executor.

Covers the executor's contract: every request runs on the executor's
one long-lived workspace, reusing the indexes earlier requests built,
and answers exactly what a direct workspace join answers; one
request's failure never takes down the batch, and the batch report's
aggregates hold on empty and failing batches too.
"""

import dataclasses

import numpy as np
import pytest

from repro.engine import (
    BatchExecutor,
    BatchReport,
    JoinRequest,
    SpatialWorkspace,
    available_algorithms,
)
from repro.joins.base import (
    CostModel,
    Dataset,
    JoinStats,
    SpatialJoinAlgorithm,
)
from repro.joins.pbsm import PBSMJoin
from repro.storage.disk import DiskModel

from tests.conftest import dataset_pair, oracle_pairs


class ExplodingJoin(SpatialJoinAlgorithm):
    """An algorithm whose join phase always raises."""

    name = "EXPLODE"

    def build_index(self, disk, dataset):
        return dataset, JoinStats(algorithm=self.name, phase="index")

    def join(self, index_a, index_b):
        raise RuntimeError("synthetic join failure")


def _mixed_requests(n_requests: int = 6) -> list[JoinRequest]:
    a, b = dataset_pair("clustered", 220, 220, seed=3)
    algorithms = ["transformers", "pbsm", "rtree", "auto"]
    return [
        JoinRequest(a, b, algorithm=algorithms[i % len(algorithms)],
                    label=f"req{i}")
        for i in range(n_requests)
    ]


class TestBatch:
    def test_batch_equals_fresh_workspace_request_for_request(self):
        requests = _mixed_requests()
        batch = BatchExecutor().run(requests)
        batch.raise_failures()
        assert [o.index for o in batch.outcomes] == list(range(len(requests)))
        for request, report in zip(requests, batch.reports):
            direct = SpatialWorkspace().join(
                request.a, request.b, algorithm=request.algorithm
            )
            assert report.algorithm == direct.algorithm
            assert (
                report.result.pairs.tobytes()
                == direct.result.pairs.tobytes()
            )
            assert report.intersection_tests == direct.intersection_tests
        assert any(r.pairs_found > 0 for r in batch.reports)

    def test_batch_report_aggregates(self):
        requests = _mixed_requests(6)
        batch = BatchExecutor().run(requests)
        batch.raise_failures()
        assert batch.total_pairs == sum(r.pairs_found for r in batch.reports)
        assert batch.total_io_cost >= 0.0
        assert batch.total_cost > 0.0
        per_algo = batch.by_algorithm()
        assert sum(int(v["runs"]) for v in per_algo.values()) == 6
        assert set(per_algo) >= {"TRANSFORMERS", "PBSM"}
        summary = batch.summary()
        assert summary["requests"] == 6
        assert summary["failed"] == 0
        assert summary["pairs"] == batch.total_pairs

    @pytest.mark.parametrize("algorithm", available_algorithms() + ("auto",))
    def test_every_algorithm_matches_a_direct_join(self, algorithm):
        a, b = dataset_pair("contrast", 150, 150, seed=5)
        batch = BatchExecutor().run([JoinRequest(a, b, algorithm)])
        batch.raise_failures()
        (report,) = batch.reports
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
        batch = BatchExecutor().run(
            [JoinRequest(a, b, algorithm, within=within)]
        )
        batch.raise_failures()
        (report,) = batch.reports
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
        batch = executor.run(
            [JoinRequest(a, b, "transformers") for _ in range(3)]
        )
        batch.raise_failures()
        first, *later = batch.reports
        assert not first.reused_a and not first.reused_b
        assert first.index_pages_written_a > 0
        assert first.index_pages_written_b > 0
        for report in later:
            assert report.reused_a and report.reused_b
            assert report.index_pages_written_a == 0
            assert report.index_pages_written_b == 0
            assert report.result.pairs.tobytes() == first.result.pairs.tobytes()
            assert report.intersection_tests == first.intersection_tests
        # The reuse spans batches: the executor keeps its workspace.
        (again,) = executor.run([JoinRequest(b, a, "transformers")]).reports
        assert again.reused_a and again.reused_b
        assert executor.workspace.cached_index_count == 2

    def test_run_accepts_any_iterable(self):
        a, b = dataset_pair("uniform", 80, 80, seed=8)
        batch = BatchExecutor().run(
            JoinRequest(a, b, algo) for algo in ("brute", "pbsm")
        )
        assert [o.index for o in batch.outcomes] == [0, 1]
        assert [r.algorithm for r in batch.reports] == ["BRUTE", "PBSM"]


class TestModels:
    """``disk_model`` / ``cost_model`` reach the executor's workspace."""

    def test_disk_model_is_forwarded(self):
        a, b = dataset_pair("contrast", 150, 150, seed=5)
        model = DiskModel()
        slow = dataclasses.replace(
            model,
            seq_read_cost=model.seq_read_cost * 3,
            random_read_cost=model.random_read_cost * 3,
        )
        request = JoinRequest(a, b, "pbsm")
        base = BatchExecutor(disk_model=model).run([request]).reports[0]
        tripled = BatchExecutor(disk_model=slow).run([request]).reports[0]
        direct = SpatialWorkspace(disk_model=model).join(
            a, b, algorithm="pbsm"
        )
        assert base.join_io_cost == direct.join_io_cost
        assert base.join_io_cost > 0.0
        assert tripled.join_io_cost == pytest.approx(3 * base.join_io_cost)
        assert tripled.pair_set() == base.pair_set()

    def test_cost_model_is_forwarded_and_reported(self):
        a, b = dataset_pair("contrast", 150, 150, seed=5)
        model = CostModel()
        dear = dataclasses.replace(
            model, intersection_test_cost=model.intersection_test_cost * 4
        )
        request = JoinRequest(a, b, "pbsm")
        base = BatchExecutor(cost_model=model).run([request])
        costly = BatchExecutor(cost_model=dear).run([request])
        assert costly.cost_model is dear
        assert costly.total_cpu_cost > base.total_cpu_cost
        assert costly.total_io_cost == base.total_io_cost
        assert costly.total_cost == pytest.approx(
            costly.reports[0].total_cost(dear)
        )
        assert costly.total_pairs == base.total_pairs


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
        if "a" not in kwargs:
            outcome = BatchExecutor().run([request]).outcomes[0]
            assert outcome.label == expected


class TestFailureIsolation:
    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_failure_position_does_not_matter(self, position):
        a, b = dataset_pair("uniform", 100, 100, seed=3)
        requests = [
            JoinRequest(a, b, "transformers", label=f"ok-{i}")
            for i in range(3)
        ]
        requests[position] = JoinRequest(a, b, ExplodingJoin(), label="boom")
        batch = BatchExecutor().run(requests)
        assert [o.index for o in batch.outcomes] == [0, 1, 2]
        assert [o.ok for o in batch.outcomes] == [
            i != position for i in range(3)
        ]
        assert [o.label for o in batch.failures] == ["boom"]
        oracle = oracle_pairs(a, b)
        assert all(r.pair_set() == oracle for r in batch.reports)

    def test_failed_outcome_is_timed_and_counted(self):
        a, b = dataset_pair("uniform", 80, 80, seed=5)
        batch = BatchExecutor().run(
            [
                JoinRequest(a, b, ExplodingJoin(), label="boom"),
                JoinRequest(a, b, "no-such-join", label="typo"),
                JoinRequest(a, b, "brute", label="fine"),
            ]
        )
        assert all(o.wall_seconds > 0.0 for o in batch.outcomes)
        assert batch.summary()["failed"] == 2
        with pytest.raises(RuntimeError) as info:
            batch.raise_failures()
        message = str(info.value)
        assert message.startswith("2 of 3 batch requests failed")
        assert "request 0 (boom): RuntimeError" in message
        assert "request 1 (typo): ValueError" in message
        assert "fine" not in message

    def test_crash_fails_only_that_request(self):
        a, b = dataset_pair("uniform", 150, 150, seed=1)
        requests = [
            JoinRequest(a, b, "transformers", label="ok-0"),
            JoinRequest(a, b, ExplodingJoin(), label="boom"),
            JoinRequest(a, b, "pbsm", label="ok-2"),
        ]
        batch = BatchExecutor().run(requests)
        assert not batch.ok
        assert [o.ok for o in batch.outcomes] == [True, False, True]
        failed = batch.outcomes[1]
        assert failed.error_type == "RuntimeError"
        assert "synthetic join failure" in failed.error
        assert batch.outcomes[0].report.pair_set() == oracle_pairs(a, b)
        with pytest.raises(RuntimeError, match="boom"):
            batch.raise_failures()

    def test_instance_algorithm_with_space_fails_loudly(self):
        """space/parameters are planner inputs; combining them with a
        pre-configured instance is an error, not a silent no-op."""
        a, b = dataset_pair("uniform", 80, 80, seed=10)
        batch = BatchExecutor().run(
            [JoinRequest(a, b, PBSMJoin(resolution=4),
                         space=a.boxes.mbb())]
        )
        assert not batch.ok
        assert batch.outcomes[0].error_type == "ValueError"
        assert "planner inputs" in batch.outcomes[0].error

    def test_invalid_algorithm_name_is_isolated_too(self):
        a, b = dataset_pair("uniform", 80, 80, seed=2)
        batch = BatchExecutor().run(
            [JoinRequest(a, b, "no-such-join"), JoinRequest(a, b, "brute")]
        )
        assert [o.ok for o in batch.outcomes] == [False, True]
        assert batch.outcomes[0].error_type == "ValueError"

    def test_unresolved_catalog_name_fails_that_request(self):
        """Names are a service-tier input; reaching the executor
        unresolved is this request's TypeError, not a batch abort."""
        a, b = dataset_pair("uniform", 80, 80, seed=4)
        batch = BatchExecutor().run(
            [JoinRequest("a", b, "brute"), JoinRequest(a, b, "brute")]
        )
        assert [o.ok for o in batch.outcomes] == [False, True]
        assert batch.outcomes[0].error_type == "TypeError"
        assert "unresolved" in batch.outcomes[0].error


class TestWorkspaceIntegration:
    def test_empty_side_short_circuits(self):
        from repro.geometry.boxes import BoxArray

        a, _ = dataset_pair("uniform", 50, 50, seed=8)
        empty = Dataset("E", np.empty(0, dtype=np.int64), BoxArray.empty(3))
        report = SpatialWorkspace().join(a, empty, algorithm="rtree")
        assert report.pairs_found == 0
        assert report.pair_set() == set()


class TestDegenerateBatchReports:
    """Edge cases: empty and failing batches aggregate without error."""

    def test_empty_batch_report(self):
        report = BatchReport(outcomes=[])
        assert report.ok
        assert report.total_pairs == 0
        assert report.by_algorithm() == {}
        assert report.latency_percentiles() == {}
        summary = report.summary()
        assert summary["requests"] == 0
        assert summary["failed"] == 0

    def test_empty_batch_through_executor(self):
        report = BatchExecutor().run([])
        assert report.ok
        assert report.summary()["requests"] == 0

    def test_latency_percentiles_exclude_failures(self):
        a, b = dataset_pair("uniform", 60, 60, seed=11)
        batch = BatchExecutor().run(
            [
                JoinRequest(a, b, "transformers"),
                JoinRequest(a, b, "no-such-algorithm"),
            ]
        )
        assert len(batch.failures) == 1
        percentiles = batch.latency_percentiles()
        assert set(percentiles) == {"TRANSFORMERS"}
        row = percentiles["TRANSFORMERS"]
        assert row["count"] == 1
        assert 0.0 < row["p50_s"] <= row["p99_s"]
