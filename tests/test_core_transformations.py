"""Tests for the transformation cost model and threshold controller."""

import dataclasses

import pytest

from repro.core.config import TransformersConfig
from repro.core.transformations import Decision, ThresholdController
from repro.joins.base import CostModel


def controller(config=None, n_su=16, n_so=18):
    return ThresholdController(config or TransformersConfig(), n_su, n_so)


class TestConfig:
    def test_defaults_match_paper(self):
        c = TransformersConfig()
        assert c.t_su_init == 8.0   # 2^3 volume ratio (Section VII-D2)
        assert c.t_so_init == 27.0  # 3^3 volume ratio

    def test_validation(self):
        with pytest.raises(ValueError):
            TransformersConfig(t_su_init=0)
        with pytest.raises(ValueError):
            TransformersConfig(threshold_floor=0)
        with pytest.raises(ValueError):
            TransformersConfig(threshold_ceiling=1.0, threshold_floor=2.0)
        with pytest.raises(ValueError):
            TransformersConfig(buffer_pages=0)
        with pytest.raises(ValueError):
            TransformersConfig(metadata_buffer_pages=0)

    def test_named_configurations(self):
        assert not TransformersConfig.no_transformations().enable_transformations
        over = TransformersConfig.overfit()
        assert over.t_su_init == 1.5 and not over.adaptive_thresholds
        under = TransformersConfig.underfit()
        assert under.t_su_init == 1.0e6

    @pytest.mark.parametrize(
        "field, value",
        [
            ("t_su_init", -1.0),
            ("t_so_init", 0.0),
            ("t_so_init", -27.0),
            ("threshold_floor", -8.0),
            ("buffer_pages", -1),
            ("metadata_buffer_pages", -512),
        ],
    )
    def test_rejects_invalid_field(self, field, value):
        with pytest.raises(ValueError):
            TransformersConfig(**{field: value})

    @pytest.mark.parametrize(
        "overrides",
        [
            {"threshold_floor": 5.0, "threshold_ceiling": 5.0},
            {"buffer_pages": 1},
            {"metadata_buffer_pages": 1},
        ],
        ids=["ceiling_equals_floor", "one_buffer_page", "one_metadata_page"],
    )
    def test_accepts_boundary_values(self, overrides):
        config = TransformersConfig(**overrides)
        for field, value in overrides.items():
            assert getattr(config, field) == value

    def test_is_frozen(self):
        config = TransformersConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.buffer_pages = 1  # type: ignore[misc]

    @pytest.mark.parametrize(
        "preset, changed",
        [
            ("no_transformations", {"enable_transformations": False}),
            (
                "overfit",
                {
                    "t_su_init": 1.5,
                    "t_so_init": 1.5,
                    "adaptive_thresholds": False,
                    "threshold_floor": 1.0,
                },
            ),
            (
                "underfit",
                {
                    "t_su_init": 1.0e6,
                    "t_so_init": 1.0e6,
                    "adaptive_thresholds": False,
                },
            ),
        ],
    )
    def test_named_configuration_changes_only_its_fields(self, preset, changed):
        config = getattr(TransformersConfig, preset)()
        assert config == dataclasses.replace(TransformersConfig(), **changed)


class TestDecisions:
    def test_balanced_ratio_no_transformation(self):
        c = controller()
        assert c.decide_node(1.0).action == "none"

    def test_guide_much_sparser_splits(self):
        c = controller()
        assert c.decide_node(10.0).action == "split"

    def test_follower_much_sparser_switches_roles(self):
        c = controller()
        assert c.decide_node(0.05).action == "role"

    def test_role_threshold_is_reciprocal(self):
        """Equation 5: role switch iff Vg/Vf <= 1/tsu."""
        c = controller()
        eps = 1e-9
        assert c.decide_node(1.0 / c.t_su - eps).action == "role"
        assert c.decide_node(1.0 / c.t_su + eps).action == "none"

    def test_allow_role_false_suppresses_switch(self):
        c = controller()
        assert c.decide_node(0.05, allow_role=False).action == "none"

    def test_unit_split_uses_tso(self):
        c = controller()
        assert c.decide_unit(30.0).action == "split"
        assert c.decide_unit(20.0).action == "none"

    def test_disabled_transformations_always_none(self):
        c = controller(TransformersConfig.no_transformations())
        for ratio in (0.001, 1.0, 1000.0):
            assert c.decide_node(ratio).action == "none"
            assert c.decide_unit(ratio).action == "none"

    def test_decision_records_ratio(self):
        d = controller().decide_node(42.0)
        assert isinstance(d, Decision)
        assert d.ratio == 42.0


class TestRuntimeEstimation:
    def test_no_update_before_first_transformation(self):
        c = controller()
        c.record_exploration(10.0, 100)
        c.record_data_read(100.0, 10)
        c.update_thresholds()
        assert c.t_su == 8.0  # untouched

    def test_no_update_without_measurements(self):
        c = controller()
        c.note_transformation()
        c.update_thresholds()
        assert c.t_su == 8.0

    def test_update_applies_equation_4(self):
        cfg = TransformersConfig(threshold_floor=0.0001, cost_model=CostModel())
        c = controller(cfg, n_su=16, n_so=18)
        c.note_transformation()
        c.record_exploration(50.0, 10)      # Tae = 5
        c.record_data_read(200.0, 100)      # Tio = 2
        c.record_filter_fraction(0.5)       # moves the EMA towards 0.5
        c.update_thresholds()
        cflt = c.cflt
        tcomp = cfg.cost_model.intersection_test_cost
        expected_tsu = 5.0 / (cflt * (2.0 + 18 * tcomp))
        assert c.t_su == pytest.approx(expected_tsu)
        # Equation 8: tso = tsu * nSO / nSU.
        assert c.t_so == pytest.approx(expected_tsu * 18 / 16)

    def test_update_clamped_to_floor_and_ceiling(self):
        cfg = TransformersConfig(threshold_floor=2.0, threshold_ceiling=100.0)
        c = controller(cfg)
        c.note_transformation()
        c.record_exploration(0.001, 1000)  # tiny Tae -> tiny raw tsu
        c.record_data_read(500.0, 50)
        c.update_thresholds()
        assert c.t_su == 2.0
        c2 = controller(cfg)
        c2.note_transformation()
        c2.record_exploration(1e9, 1)      # huge Tae -> huge raw tsu
        c2.record_data_read(500.0, 50)
        c2.update_thresholds()
        assert c2.t_su == 100.0

    def test_static_config_never_updates(self):
        c = controller(TransformersConfig.overfit())
        c.note_transformation()
        c.record_exploration(50.0, 10)
        c.record_data_read(200.0, 100)
        c.update_thresholds()
        assert c.t_su == 1.5

    def test_cflt_ema_moves_towards_observations(self):
        c = controller()
        start = c.cflt
        for _ in range(20):
            c.record_filter_fraction(1.0)
        assert c.cflt > start
        assert c.cflt <= 1.0

    def test_cflt_clamps_inputs(self):
        c = controller()
        c.record_filter_fraction(7.0)
        assert c.cflt <= 1.0
        c.record_filter_fraction(-3.0)
        assert c.cflt >= 0.0

    def test_estimates_exposed(self):
        c = controller()
        assert c.tae is None and c.tio is None
        c.record_exploration(10.0, 4)
        c.record_data_read(30.0, 3)
        assert c.tae == pytest.approx(2.5)
        assert c.tio == pytest.approx(10.0)

    def test_rejects_bad_capacities(self):
        with pytest.raises(ValueError):
            ThresholdController(TransformersConfig(), 0, 18)
