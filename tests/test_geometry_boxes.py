"""Unit and property tests for :mod:`repro.geometry.boxes`."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.geometry.box import Box
from repro.geometry.boxes import BoxArray


def box_arrays(max_n: int = 24, ndim: int = 3):
    """Hypothesis strategy for non-empty BoxArrays."""
    coord = st.floats(-50, 50, allow_nan=False, allow_infinity=False, width=32)

    @st.composite
    def build(draw):
        n = draw(st.integers(1, max_n))
        a = np.array(
            draw(
                st.lists(
                    st.tuples(*([coord] * ndim)), min_size=n, max_size=n
                )
            )
        )
        b = np.array(
            draw(
                st.lists(
                    st.tuples(*([coord] * ndim)), min_size=n, max_size=n
                )
            )
        )
        return BoxArray(np.minimum(a, b), np.maximum(a, b))

    return build()


def _sample(n=5, ndim=3, seed=0):
    rng = np.random.default_rng(seed)
    lo = rng.uniform(0, 10, size=(n, ndim))
    hi = lo + rng.uniform(0, 2, size=(n, ndim))
    return BoxArray(lo, hi)


class TestConstruction:
    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            BoxArray(np.zeros((2, 3)), np.zeros((3, 3)))

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            BoxArray(np.zeros(3), np.zeros(3))

    def test_rejects_inverted(self):
        with pytest.raises(ValueError):
            BoxArray(np.ones((1, 2)), np.zeros((1, 2)))

    def test_rejects_zero_ndim(self):
        with pytest.raises(ValueError):
            BoxArray(np.zeros((2, 0)), np.zeros((2, 0)))

    def test_immutable_attributes(self):
        ba = _sample()
        with pytest.raises(AttributeError):
            ba.lo = np.zeros((1, 3))

    def test_arrays_readonly(self):
        ba = _sample()
        with pytest.raises(ValueError):
            ba.lo[0, 0] = 99.0

    def test_from_boxes(self):
        ba = BoxArray.from_boxes([Box((0, 0), (1, 1)), Box((2, 2), (3, 3))])
        assert len(ba) == 2
        assert ba.box(1) == Box((2, 2), (3, 3))

    def test_from_boxes_empty_raises(self):
        with pytest.raises(ValueError):
            BoxArray.from_boxes([])

    def test_from_boxes_mixed_dims_raises(self):
        with pytest.raises(ValueError):
            BoxArray.from_boxes([Box((0, 0), (1, 1)), Box((0,), (1,))])

    def test_empty(self):
        ba = BoxArray.empty(3)
        assert len(ba) == 0
        assert ba.ndim == 3

    def test_concatenate(self):
        a, b = _sample(3, seed=1), _sample(4, seed=2)
        cat = BoxArray.concatenate([a, b])
        assert len(cat) == 7
        assert cat.box(3) == b.box(0)

    def test_concatenate_skips_empties(self):
        a = _sample(3)
        cat = BoxArray.concatenate([BoxArray.empty(3), a])
        assert len(cat) == 3

    def test_concatenate_all_empty_raises(self):
        with pytest.raises(ValueError):
            BoxArray.concatenate([BoxArray.empty(3)])

    def test_concatenate_dim_mismatch(self):
        with pytest.raises(ValueError):
            BoxArray.concatenate([_sample(2, ndim=3), _sample(2, ndim=2)])


class TestSequenceBehaviour:
    def test_len_iter_box(self):
        ba = _sample(4)
        assert len(list(ba)) == 4
        assert list(ba)[2] == ba.box(2)

    def test_take_preserves_order(self):
        ba = _sample(6)
        sub = ba.take([4, 1])
        assert sub.box(0) == ba.box(4)
        assert sub.box(1) == ba.box(1)


class TestSplit:
    def test_parts_are_read_only_views_of_the_source(self):
        ba = _sample(7)
        parts = ba.split([0, 3, 3, 7])
        assert [len(p) for p in parts] == [3, 0, 4]
        for part, start in zip(parts, (0, 3, 3)):
            assert isinstance(part, BoxArray)
            assert not part.lo.flags.writeable
            assert not part.hi.flags.writeable
            if len(part):  # an empty slice has no bytes to share
                assert np.shares_memory(part.lo, ba.lo)
                assert np.shares_memory(part.hi, ba.hi)
                assert part.box(0) == ba.box(start)
        with pytest.raises(ValueError):
            parts[0].lo[0, 0] = 99.0
        with pytest.raises(AttributeError):
            parts[0].lo = ba.lo

    def test_offsets_need_not_cover_the_array(self):
        ba = _sample(6)
        (middle,) = ba.split([2, 5])
        assert np.array_equal(middle.lo, ba.lo[2:5])

    def test_pickle_round_trip(self):
        import pickle

        part = _sample(6).split([1, 4])[0]
        back = pickle.loads(pickle.dumps(part))
        assert np.array_equal(back.lo, part.lo)
        assert np.array_equal(back.hi, part.hi)

    @pytest.mark.parametrize(
        "offsets", [[0, 4, 2], [-1, 3], [0, 8], [], [[0, 2]]]
    )
    def test_bad_offsets_raise(self, offsets):
        with pytest.raises(ValueError):
            _sample(7).split(offsets)


class TestBulkGeometry:
    def test_centers_match_scalar(self):
        ba = _sample(5)
        for i in range(5):
            assert tuple(ba.centers()[i]) == pytest.approx(ba.box(i).center)

    def test_volumes_match_scalar(self):
        ba = _sample(5)
        for i in range(5):
            assert ba.volumes()[i] == pytest.approx(ba.box(i).volume())

    def test_mbb_covers_all(self):
        ba = _sample(9)
        mbb = ba.mbb()
        for box in ba:
            assert mbb.contains(box)

    def test_mbb_empty_raises(self):
        with pytest.raises(ValueError):
            BoxArray.empty(2).mbb()

    def test_intersects_box_matches_scalar(self):
        ba = _sample(16, seed=5)
        query = Box((2, 2, 2), (6, 6, 6))
        mask = ba.intersects_box(query)
        for i, box in enumerate(ba):
            assert mask[i] == box.intersects(query)

    def test_contained_in_box_matches_scalar(self):
        ba = _sample(16, seed=6)
        query = Box((0, 0, 0), (8, 8, 8))
        mask = ba.contained_in_box(query)
        for i, box in enumerate(ba):
            assert mask[i] == query.contains(box)

    def test_min_distance_matches_scalar(self):
        ba = _sample(10, seed=7)
        query = Box((20, 20, 20), (21, 21, 21))
        dist = ba.min_distance_to_box(query)
        for i, box in enumerate(ba):
            assert dist[i] == pytest.approx(box.min_distance(query))

    def test_dim_mismatch_raises(self):
        ba = _sample(3, ndim=3)
        q = Box((0, 0), (1, 1))
        with pytest.raises(ValueError):
            ba.intersects_box(q)
        with pytest.raises(ValueError):
            ba.contained_in_box(q)
        with pytest.raises(ValueError):
            ba.min_distance_to_box(q)


class TestPairwise:
    def test_pairwise_empty(self):
        a = BoxArray.empty(3)
        b = _sample(3)
        assert a.pairwise_intersections(b).shape == (0, 2)
        assert b.pairwise_intersections(a).shape == (0, 2)

    def test_pairwise_chunking_consistent(self):
        a, b = _sample(30, seed=8), _sample(30, seed=9)
        full = {tuple(p) for p in a.pairwise_intersections(b, chunk=1000)}
        small = {tuple(p) for p in a.pairwise_intersections(b, chunk=7)}
        assert full == small

    @settings(max_examples=40, deadline=None)
    @given(box_arrays(max_n=12), box_arrays(max_n=12))
    def test_pairwise_matches_nested_loop(self, a, b):
        expected = {
            (i, j)
            for i in range(len(a))
            for j in range(len(b))
            if a.box(i).intersects(b.box(j))
        }
        got = {tuple(p) for p in a.pairwise_intersections(b)}
        assert got == expected

    @settings(max_examples=25, deadline=None)
    @given(box_arrays(max_n=10))
    def test_self_join_contains_diagonal(self, a):
        got = {tuple(p) for p in a.pairwise_intersections(a)}
        for i in range(len(a)):
            assert (i, i) in got
