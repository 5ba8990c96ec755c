"""Tests for the engine's algorithm registry."""

import numpy as np
import pytest

from repro.core import TransformersJoin
from repro.engine.planner import PlanHints, plan_join
from repro.engine.registry import (
    algorithm_spec,
    available_algorithms,
    create_algorithm,
    spec_for_instance,
)
from repro.engine.workspace import SpatialWorkspace
from repro.joins import (
    BruteForceJoin,
    GipsyJoin,
    IndexedNestedLoopJoin,
    PBSMJoin,
    SynchronizedRTreeJoin,
)
from repro.joins.base import Dataset

from tests.conftest import dataset_pair, make_disk, oracle_pairs

ALL_NAMES = (
    "brute", "gipsy", "nested-loop", "pbsm", "rtree", "transformers",
)


class TestRegistryContents:
    def test_available_algorithms_complete_and_sorted(self):
        assert available_algorithms() == ALL_NAMES

    def test_unknown_name_lists_alternatives(self):
        with pytest.raises(ValueError, match="transformers"):
            algorithm_spec("quadtree")

    def test_lookup_is_case_and_space_insensitive(self):
        assert algorithm_spec("  PBSM ").name == "pbsm"

    def test_pbsm_index_is_pair_level(self):
        """PBSM's shared grid depends on both inputs (Section VII-C1),
        so its index must not be reused across partners."""
        assert not algorithm_spec("pbsm").reusable_index
        assert algorithm_spec("transformers").reusable_index

    def test_brute_not_plannable(self):
        assert not algorithm_spec("brute").plannable
        assert algorithm_spec("gipsy").plannable

    def test_every_plannable_algorithm_is_costed(self):
        """``"auto"`` ranks every plannable built-in: none lacks an
        ``estimate_join_cost`` hook and is built only to be skipped."""
        a, b = dataset_pair("uniform", 300, 300, seed=13)
        report = plan_join(a, b, "auto", explain=True)
        plannable = {n for n in ALL_NAMES if algorithm_spec(n).plannable}
        assert {c.algorithm for c in report.candidates} == plannable

    @pytest.mark.parametrize(
        "name, cls",
        [
            ("brute", BruteForceJoin),
            ("gipsy", GipsyJoin),
            ("nested-loop", IndexedNestedLoopJoin),
            ("pbsm", PBSMJoin),
            ("rtree", SynchronizedRTreeJoin),
            ("transformers", TransformersJoin),
        ],
    )
    def test_each_name_builds_its_class(self, name, cls):
        """Each row of the table builds its own class, and an instance
        of it maps back to that row."""
        a, b = dataset_pair("uniform", 50, 50, seed=15)
        algo = create_algorithm(name, plan_join(a, b, name).hints)
        assert type(algo) is cls
        assert spec_for_instance(algo) is algorithm_spec(name)

    def test_spec_for_instance_matches_display_names(self):
        assert spec_for_instance(TransformersJoin()).name == "transformers"
        assert spec_for_instance(SynchronizedRTreeJoin()).name == "rtree"
        assert spec_for_instance(GipsyJoin()).name == "gipsy"
        assert spec_for_instance(object()) is None


class TestRoundTrip:
    """Every registered name constructs an algorithm that joins
    correctly through the workspace path."""

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_name_constructs_and_joins(self, name):
        a, b = dataset_pair("contrast", 250, 250, seed=11)
        report = SpatialWorkspace().join(a, b, algorithm=name)
        assert report.pair_set() == oracle_pairs(a, b)

    def test_create_algorithm_forwards_hints(self):
        a, b = dataset_pair("uniform", 300, 300, seed=12)
        plan = plan_join(a, b, "pbsm", parameters={"resolution": 7})
        algo = plan.create()
        assert isinstance(algo, PBSMJoin)
        assert algo.resolution == 7
        assert algo.space == plan.hints.space


class TestBruteForceTwoPhase:
    def test_build_index_writes_nothing(self):
        a, b = dataset_pair("uniform", 100, 100, seed=14)
        disk = make_disk()
        brute = BruteForceJoin()
        handle, stats = brute.build_index(disk, a)
        assert handle is a
        assert disk.stats.pages_written == 0
        assert stats.pages_written == 0

    def test_matches_raw_brute_force(self):
        """The registry-built two-phase join against an independent
        per-pair ``Box.intersects`` loop: sorted, unique ``(id_a, id_b)``
        rows and one intersection test per element pair."""
        a, b = dataset_pair("clustered", 120, 120, seed=15)
        # Rows out of id order, so a join that skips its sort shows.
        perm = np.random.default_rng(15).permutation(len(a))
        a = Dataset(a.name, a.ids[perm], a.boxes.take(perm))
        disk = make_disk()
        brute = create_algorithm(
            "brute", PlanHints(space=None, n_a=len(a), n_b=len(b))
        )
        ia, _ = brute.build_index(disk, a)
        ib, _ = brute.build_index(disk, b)
        result = brute.join(ia, ib)
        expected = sorted(
            (int(a.ids[i]), int(b.ids[j]))
            for i in range(len(a))
            for j in range(len(b))
            if a.boxes.box(i).intersects(b.boxes.box(j))
        )
        assert expected
        assert [tuple(pair) for pair in result.pairs.tolist()] == expected
        assert result.stats.intersection_tests == len(a) * len(b)

    def test_hints_param_defaults(self):
        hints = PlanHints(space=None, n_a=10, n_b=10)
        assert hints.param("missing", 42) == 42
        assert hints.n_total == 20
        algo = create_algorithm("brute", hints)
        assert isinstance(algo, BruteForceJoin)
