"""Tests for the distance-join reduction."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import TransformersJoin
from repro.geometry import boxes as boxes_module
from repro.joins import base as base_module
from repro.engine import SpatialWorkspace
from repro.joins import PBSMJoin, enlarged_dataset
from repro.storage import page as page_module

from tests.conftest import dataset_pair


def brute_distance_pairs(a, b, distance):
    """Oracle: pairs within Chebyshev ``distance`` (per-axis gaps <= d).

    The enlargement reduction implements the L∞ predicate (see
    repro.joins.distance); the oracle computes it directly from the
    per-axis gaps.
    """
    out = set()
    for i in range(len(a)):
        q_lo = a.boxes.lo[i]
        q_hi = a.boxes.hi[i]
        below = np.maximum(q_lo - b.boxes.hi, 0.0)
        above = np.maximum(b.boxes.lo - q_hi, 0.0)
        gaps = np.maximum(below, above).max(axis=1)
        for j in np.nonzero(gaps <= distance)[0]:
            out.add((int(a.ids[i]), int(b.ids[j])))
    return out


class TestEnlargedDataset:
    def test_the_ids_are_copied_once_into_an_array_of_their_own(self, monkeypatch):
        """A spy on ``frozen`` (every module that constructs with it)
        sees no copy: the one copy is frozen before ``Dataset`` gets it."""
        a, _ = dataset_pair("uniform", 50, 10)
        copies, real = [], boxes_module.frozen

        def spy(array, given):
            out = real(array, given)
            if out is not array:
                copies.append(array)
            return out

        for module in (boxes_module, page_module, base_module):
            monkeypatch.setattr(module, "frozen", spy)
        grown = enlarged_dataset(a, 2.5)
        assert copies == []
        assert not grown.ids.flags.writeable and grown.ids.base is None
        others = (a.ids, a.boxes.lo, a.boxes.hi, grown.boxes.lo, grown.boxes.hi)
        assert not any(np.shares_memory(grown.ids, other) for other in others)
        assert np.array_equal(grown.ids, a.ids)

    def test_preserves_ids_and_fingerprinted_name(self):
        a, _ = dataset_pair("uniform", 50, 10)
        grown = enlarged_dataset(a, 2.5)
        assert np.array_equal(grown.ids, a.ids)
        # Derived names carry the predicate for humans plus a content
        # fingerprint for identity — distinct sources can no longer
        # collide on the f"{name}+{distance}" scheme.
        assert f"{a.name}+2.5#" in grown.name
        assert np.allclose(grown.boxes.lo, a.boxes.lo - 2.5)

    def test_name_cannot_collide_across_distinct_sources(self):
        a, _ = dataset_pair("uniform", 50, 10)
        other, _ = dataset_pair("uniform", 50, 10, seed=99)
        same_named = type(a)(name=a.name, ids=other.ids, boxes=other.boxes)
        assert enlarged_dataset(a, 1.0).name != (
            enlarged_dataset(same_named, 1.0).name
        )

    def test_zero_distance_is_identity(self):
        # Growing by zero changes no geometry: same object, same name,
        # same fingerprint — so every id()/content-keyed cache treats
        # the "grown" dataset and the original as one.
        a, _ = dataset_pair("uniform", 50, 10)
        grown = enlarged_dataset(a, 0.0)
        assert grown is a
        assert np.array_equal(grown.boxes.lo, a.boxes.lo)

    def test_rejects_negative(self):
        a, _ = dataset_pair("uniform", 50, 10)
        with pytest.raises(ValueError):
            enlarged_dataset(a, -1.0)


class TestDistanceJoin:
    @pytest.mark.parametrize("distance", [0.0, 0.5, 2.0])
    def test_matches_brute_force(self, distance):
        a, b = dataset_pair("uniform", 400, 600, seed=17)
        result = SpatialWorkspace().join(
            a, b, algorithm=TransformersJoin(), within=distance
        ).result
        assert result.pair_set() == brute_distance_pairs(a, b, distance)

    def test_works_with_any_algorithm(self):
        a, b = dataset_pair("contrast", 300, 600, seed=18)
        space = a.boxes.mbb().union(b.boxes.mbb()).enlarged(1.0)
        tr = SpatialWorkspace().join(
            a, b, algorithm=TransformersJoin(), within=1.0
        ).result
        pbsm = SpatialWorkspace().join(
            a, b, algorithm=PBSMJoin(space=space, resolution=4), within=1.0
        ).result
        assert tr.pair_set() == pbsm.pair_set()

    def test_monotone_in_distance(self):
        a, b = dataset_pair("uniform", 400, 400, seed=19)
        previous: set = set()
        for d in (0.0, 0.5, 1.5, 3.0):
            got = SpatialWorkspace().join(
                a, b, algorithm=TransformersJoin(), within=d
            ).pair_set()
            assert previous <= got
            previous = got

    @settings(max_examples=6, deadline=None)
    @given(st.floats(0.0, 3.0, allow_nan=False), st.integers(0, 1000))
    def test_property(self, distance, seed):
        a, b = dataset_pair("uniform", 200, 300, seed=seed)
        result = SpatialWorkspace().join(
            a, b, algorithm=TransformersJoin(), within=distance
        ).result
        assert result.pair_set() == brute_distance_pairs(a, b, distance)

    def test_emits_no_deprecation_warning(self):
        """Regression: the distance path once tripped a
        DeprecationWarning of the library's own."""
        import warnings

        a, b = dataset_pair("uniform", 200, 300, seed=23)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            result = SpatialWorkspace().join(
                a, b, algorithm=TransformersJoin(), within=1.0
            ).result
        assert result.pair_set() == brute_distance_pairs(a, b, 1.0)
