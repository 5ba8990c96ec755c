"""Tests for the engine's algorithm registry."""

import pytest

from repro.core import TransformersJoin
from repro.engine.planner import PlanHints, plan_join
from repro.engine.registry import (
    OracleJoin,
    algorithm_spec,
    available_algorithms,
    create_algorithm,
    register_algorithm,
    spec_for_instance,
)
from repro.engine.workspace import SpatialWorkspace
from repro.joins import (
    BruteForceJoin,
    GipsyJoin,
    PBSMJoin,
    SynchronizedRTreeJoin,
)

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


class TestRegistration:
    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_algorithm("pbsm", lambda hints: PBSMJoin())

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            register_algorithm("  ", lambda hints: PBSMJoin())

    def test_custom_registration_usable_via_workspace(self):
        from repro.engine import registry

        @register_algorithm("oracle-alias", description="test-only")
        def _make(hints):
            return OracleJoin()

        try:
            a, b = dataset_pair("uniform", 150, 150, seed=13)
            report = SpatialWorkspace().join(a, b, algorithm="oracle-alias")
            assert report.pair_set() == oracle_pairs(a, b)
        finally:
            del registry._REGISTRY["oracle-alias"]
        assert "oracle-alias" not in available_algorithms()


class TestOracleAdapter:
    def test_build_index_writes_nothing(self):
        a, b = dataset_pair("uniform", 100, 100, seed=14)
        disk = make_disk()
        adapter = OracleJoin()
        handle, stats = adapter.build_index(disk, a)
        assert handle is a
        assert disk.stats.pages_written == 0
        assert stats.pages_written == 0

    def test_matches_raw_brute_force(self):
        a, b = dataset_pair("clustered", 120, 120, seed=15)
        disk = make_disk()
        adapter = OracleJoin()
        ia, _ = adapter.build_index(disk, a)
        ib, _ = adapter.build_index(disk, b)
        assert adapter.join(ia, ib).pair_set() == (
            BruteForceJoin().join(a, b).pair_set()
        )

    def test_hints_param_defaults(self):
        hints = PlanHints(space=None, n_a=10, n_b=10)
        assert hints.param("missing", 42) == 42
        assert hints.n_total == 20
        algo = create_algorithm("brute", hints)
        assert isinstance(algo, OracleJoin)
