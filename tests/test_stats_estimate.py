"""Estimate accuracy: the documented error band, on the oracle corpus.

The selectivity estimate is only useful if its error is *bounded and
documented*: these tests assert ``estimate_pairs`` stays within
:data:`~repro.stats.estimate.ESTIMATE_ERROR_BAND` (4x, smoothed for
tiny true counts) of the brute-force truth across the same seeded
uniform/clustered/skewed generators the oracle harness uses, and that
the band is recorded in every costed :class:`~repro.engine.JoinPlan`.
"""

import numpy as np
import pytest

from repro.datagen import (
    dense_cluster,
    massive_cluster,
    scaled_space,
    uniform_cluster,
    uniform_dataset,
)
from repro.engine import plan_join
from repro.geometry.boxes import BoxArray
from repro.joins.base import Dataset
from repro.joins.brute import brute_force_pairs
from repro.stats import (
    ESTIMATE_ERROR_BAND,
    build_sketch,
    estimate_pairs,
    within_error_band,
)

#: The oracle harness's distribution families and mixes
#: (``tests/test_oracle_random.py``), re-seeded here at slightly larger
#: sizes so true pair counts are meaningful.
_GENERATORS = {
    "uniform": uniform_dataset,
    "dense": dense_cluster,
    "uclust": uniform_cluster,
    "massive": massive_cluster,
}

_CASES = [
    ("uniform", "uniform", 400, 400),
    ("uniform", "uniform", 100, 800),
    ("uniform", "dense", 400, 400),
    ("dense", "dense", 300, 300),
    ("dense", "uclust", 400, 400),
    ("uclust", "uclust", 350, 350),
    ("uclust", "massive", 250, 450),
    ("massive", "uniform", 400, 200),
    ("massive", "massive", 250, 250),
    ("massive", "dense", 200, 600),
    ("uniform", "massive", 120, 700),
    ("uniform", "dense", 700, 80),
    ("dense", "uniform", 80, 700),
]


def _pair(kind_a, kind_b, n_a, n_b, seed):
    space = scaled_space(n_a + n_b)
    a = _GENERATORS[kind_a](n_a, seed=seed * 2 + 1, name="A", space=space)
    b = _GENERATORS[kind_b](
        n_b, seed=seed * 2 + 2, name="B", id_offset=10**9, space=space
    )
    return a, b


@pytest.mark.parametrize(
    "case",
    _CASES,
    ids=[f"{ka}{na}-vs-{kb}{nb}" for ka, kb, na, nb in _CASES],
)
def test_estimate_within_documented_band(case):
    """4x band on every uniform/clustered/skewed corpus family."""
    kind_a, kind_b, n_a, n_b = case
    a, b = _pair(kind_a, kind_b, n_a, n_b, seed=20160516 % 1000)
    actual = len(brute_force_pairs(a, b))
    estimate = estimate_pairs(build_sketch(a), build_sketch(b))
    assert within_error_band(estimate, actual), (
        f"estimate {estimate:.1f} outside the {ESTIMATE_ERROR_BAND}x band "
        f"of true count {actual}"
    )


def test_band_is_recorded_in_the_plan():
    """The accuracy contract travels with every costed plan."""
    a, b = _pair("dense", "uclust", 300, 300, seed=7)
    report = plan_join(a, b, "auto", explain=True)
    assert report.stats_used
    assert report.error_band == ESTIMATE_ERROR_BAND
    assert report.est_pairs is not None
    actual = len(brute_force_pairs(a, b))
    assert within_error_band(report.est_pairs, actual, report.error_band)


class TestEstimateProperties:
    def test_estimate_never_exceeds_cross_product(self):
        """All-overlapping boxes: density spikes must clamp at |A|x|B|."""
        center = np.full((30, 3), 10.0)
        a = Dataset(
            "ovA", np.arange(30), BoxArray(center - 1.5, center + 1.5)
        )
        b = Dataset(
            "ovB",
            np.arange(10**9, 10**9 + 30),
            BoxArray(center - 1.0, center + 1.0),
        )
        est = estimate_pairs(build_sketch(a), build_sketch(b))
        assert 0.0 < est <= 900.0

    def test_empty_side_estimates_zero(self):
        full = uniform_dataset(100, seed=1, name="f", space=scaled_space(200))
        empty = Dataset(
            "e", np.empty(0, dtype=np.int64), BoxArray.empty(3)
        )
        se, sf = build_sketch(empty), build_sketch(full)
        assert estimate_pairs(se, sf) == 0.0
        assert estimate_pairs(sf, se) == 0.0
        assert estimate_pairs(se, se) == 0.0

    def test_disjoint_datasets_estimate_near_zero(self):
        lo = np.zeros((50, 3))
        a = Dataset("left", np.arange(50), BoxArray(lo, lo + 1.0))
        b = Dataset(
            "right",
            np.arange(10**9, 10**9 + 50),
            BoxArray(lo + 500.0, lo + 501.0),
        )
        assert estimate_pairs(build_sketch(a), build_sketch(b)) < 1.0

    def test_estimate_is_symmetric(self):
        a, b = _pair("dense", "uniform", 200, 300, seed=3)
        sa, sb = build_sketch(a), build_sketch(b)
        assert estimate_pairs(sa, sb) == pytest.approx(
            estimate_pairs(sb, sa), rel=1e-9
        )

