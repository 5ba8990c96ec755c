"""Unit and property tests for the Hilbert curve implementation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.geometry.box import Box
from repro.geometry.hilbert import (
    _ARRAY_MIN_POINTS,
    _lattice_to_index,
    hilbert_index,
    hilbert_index_batch,
    hilbert_point,
    quantize,
)


class TestScalar:
    def test_origin_is_zero(self):
        for ndim in (1, 2, 3, 4):
            assert hilbert_index((0,) * ndim, bits=3) == 0

    def test_known_2d_order_1(self):
        # The first-order 2-D curve visits (0,0),(0,1),(1,1),(1,0).
        walk = [hilbert_point(i, bits=1, ndim=2) for i in range(4)]
        assert walk == [(0, 0), (0, 1), (1, 1), (1, 0)]

    def test_rejects_out_of_range_coordinate(self):
        with pytest.raises(ValueError):
            hilbert_index((4, 0), bits=2)

    def test_rejects_bad_bits(self):
        with pytest.raises(ValueError):
            hilbert_index((0, 0), bits=0)

    def test_point_rejects_out_of_range_index(self):
        with pytest.raises(ValueError):
            hilbert_point(16, bits=2, ndim=2)

    def test_point_rejects_bad_ndim(self):
        with pytest.raises(ValueError):
            hilbert_point(0, bits=2, ndim=0)


class TestCurveProperties:
    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 4),
        st.integers(1, 4),
        st.data(),
    )
    def test_roundtrip(self, bits, ndim, data):
        coords = tuple(
            data.draw(st.integers(0, (1 << bits) - 1)) for _ in range(ndim)
        )
        index = hilbert_index(coords, bits)
        assert hilbert_point(index, bits, ndim) == coords

    @pytest.mark.parametrize("ndim,bits", [(2, 3), (3, 2), (4, 1)])
    def test_bijective_on_full_grid(self, ndim, bits):
        total = 1 << (bits * ndim)
        seen = {hilbert_point(i, bits, ndim) for i in range(total)}
        assert len(seen) == total

    @pytest.mark.parametrize("ndim,bits", [(2, 3), (3, 2)])
    def test_adjacent_indices_are_grid_neighbors(self, ndim, bits):
        """The defining Hilbert property: consecutive curve positions
        are at L1 distance exactly 1 on the lattice."""
        total = 1 << (bits * ndim)
        prev = hilbert_point(0, bits, ndim)
        for i in range(1, total):
            cur = hilbert_point(i, bits, ndim)
            l1 = sum(abs(a - b) for a, b in zip(prev, cur))
            assert l1 == 1, f"break between {i-1} and {i}"
            prev = cur


class TestQuantize:
    def test_maps_corners(self):
        space = Box((0, 0, 0), (10, 10, 10))
        pts = np.array([[0.0, 0, 0], [10, 10, 10], [5, 5, 5]])
        lattice = quantize(pts, space, bits=3)
        assert lattice[0].tolist() == [0, 0, 0]
        assert lattice[1].tolist() == [7, 7, 7]  # clamped to last cell
        assert lattice[2].tolist() == [4, 4, 4]

    def test_clamps_out_of_space_points(self):
        space = Box((0, 0), (1, 1))
        lattice = quantize(np.array([[-5.0, 99.0]]), space, bits=4)
        assert lattice[0].tolist() == [0, 15]

    def test_degenerate_axis(self):
        space = Box((0, 0), (1, 0))  # zero extent on axis 1
        lattice = quantize(np.array([[0.5, 0.0]]), space, bits=2)
        assert lattice[0, 1] == 0

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            quantize(np.zeros((3,)), Box((0, 0), (1, 1)), bits=2)


class TestBatch:
    def test_matches_scalar_path(self):
        space = Box((0, 0, 0), (8, 8, 8))
        rng = np.random.default_rng(3)
        pts = rng.uniform(0, 8, size=(40, 3))
        keys = hilbert_index_batch(pts, space, bits=4)
        lattice = quantize(pts, space, bits=4)
        for i in range(len(pts)):
            assert keys[i] == hilbert_index(
                [int(v) for v in lattice[i]], bits=4
            )

    @pytest.mark.parametrize("n", [2, 48, 10_000])
    @pytest.mark.parametrize(
        "ndim, bits", [(d, b) for d in (2, 3) for b in range(1, 63 // d + 1)]
    )
    def test_array_transform_equals_the_scalar_one(self, ndim, bits, n):
        """Every key of the array form equals the scalar transform's, up
        to the widest ``bits`` that fits, whichever form the batch takes."""
        rng = np.random.default_rng(bits * 10 + ndim)
        lattice = rng.integers(0, 1 << bits, size=(n, ndim))
        # The lattice's corners, where every bit of a word is set or clear.
        lattice[:2] = [[0] * ndim, [(1 << bits) - 1] * ndim]
        space = Box((0.0,) * ndim, (float(1 << bits),) * ndim)
        keys = hilbert_index_batch(lattice + 0.5, space, bits=bits)
        assert keys.dtype == np.int64 and keys.shape == (n,)
        assert keys.tolist() == _lattice_to_index(lattice, bits).tolist()
        sample = range(n) if n <= 48 else rng.integers(0, n, 500).tolist()
        for i in sample:
            assert int(keys[i]) == hilbert_index(lattice[i].tolist(), bits)

    @pytest.mark.parametrize("ndim", [2, 3])
    @pytest.mark.parametrize("bits", [1, 2, 3, 4])
    def test_bit_sliced_keys_of_the_whole_lattice(self, ndim, bits):
        """Every lattice point at once, in one bit-sliced batch, gets the
        scalar transform's key (and the keys are a permutation)."""
        axes = np.arange(1 << bits)
        lattice = np.stack(np.meshgrid(*[axes] * ndim, indexing="ij"), -1)
        lattice = lattice.reshape(-1, ndim)
        keys = _lattice_to_index(lattice, bits)
        assert keys.tolist() == [hilbert_index(row, bits) for row in lattice.tolist()]
        assert sorted(keys.tolist()) == list(range(len(lattice)))

    @pytest.mark.parametrize("ndim", [2, 3])
    def test_bit_sliced_keys_of_random_points(self, ndim):
        """10 000 seeded points at the index's ``bits`` = 10."""
        lattice = np.random.default_rng(ndim).integers(0, 1 << 10, size=(10_000, ndim))
        keys = _lattice_to_index(lattice, 10)
        assert keys.dtype == np.int64
        assert keys.tolist() == [hilbert_index(row, 10) for row in lattice.tolist()]

    @pytest.mark.parametrize(
        "k", [1, 2, _ARRAY_MIN_POINTS - 1, _ARRAY_MIN_POINTS, 40]
    )
    def test_small_batches_equal_rows_of_a_large_one(self, k):
        """Both sides of the scalar / array cut give the same keys."""
        space = Box((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
        pts = np.random.default_rng(9).uniform(0, 1, size=(60, 3))
        many = hilbert_index_batch(pts, space, bits=12)
        few = hilbert_index_batch(pts[5 : 5 + k], space, bits=12)
        assert few.dtype == np.int64 and few.tolist() == many[5 : 5 + k].tolist()

    def test_rejects_overflowing_bits(self):
        space = Box((0,) * 3, (1,) * 3)
        with pytest.raises(ValueError):
            hilbert_index_batch(np.zeros((1, 3)), space, bits=22)

    def test_locality_beats_random_order(self):
        """Hilbert keys of nearby points should be closer (on average)
        than those of a shuffled pairing — a weak but meaningful
        locality check justifying the B+-tree start lookup."""
        space = Box((0, 0, 0), (100, 100, 100))
        rng = np.random.default_rng(7)
        pts = rng.uniform(0, 100, size=(200, 3))
        keys = hilbert_index_batch(pts, space, bits=8)
        near = pts + rng.uniform(0, 1.0, size=pts.shape)
        near_keys = hilbert_index_batch(
            np.clip(near, 0, 100), space, bits=8
        )
        near_gap = np.abs(keys - near_keys).mean()
        shuffled_gap = np.abs(keys - rng.permutation(near_keys)).mean()
        assert near_gap < shuffled_gap / 4
