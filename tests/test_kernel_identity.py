"""Byte-identity of the in-memory kernel and its building blocks.

``grid_hash_join`` feeds every TRANSFORMERS and PBSM result, and pair
*order* leaks into ``np.unique``-free consumers, so a rewrite of the
kernel must reproduce the pair array byte for byte — order and dtype
included — plus the ``tests`` counter.  ``GOLDEN`` was recorded at
commit cb6828b (stable sort + two binary searches per probe row,
``np.all(..., axis=1)`` overlap tests).  To re-record after an
*intended* change, run ``PYTHONPATH=src:. python
tests/test_kernel_identity.py`` and paste the output over ``GOLDEN``.

The second half pins the one overlap primitive against the reduction it
replaced, and keeps the slow idioms from coming back.
"""

import ast
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.datagen import (
    dense_cluster,
    massive_cluster,
    scaled_space,
    uniform_dataset,
)
from repro.geometry.boxes import BoxArray
from repro.index.grid import UniformGrid
from repro.joins import grid_hash
from repro.joins.grid_hash import (
    grid_hash_join,
    grid_hash_join_per_segment,
    grid_hash_join_segments,
)
from repro.vectorize import (
    all_columns,
    boxes_overlap,
    column_max,
    column_min,
    column_product,
    columns,
)

from tests.test_vectorization_equivalence import (
    assert_meets_specification,
    grid_hash_tests,
)


def _flat(boxes: BoxArray, axes: slice) -> BoxArray:
    return BoxArray(boxes.lo[:, axes], boxes.hi[:, axes])


def _plate(boxes: BoxArray) -> BoxArray:
    """The boxes squashed onto the plane z = 5 (a zero-extent axis)."""
    lo, hi = boxes.lo.copy(), boxes.hi.copy()
    lo[:, 2] = hi[:, 2] = 5.0
    return BoxArray(lo, hi)


def _kernel_cases() -> dict[str, tuple[BoxArray, BoxArray]]:
    space = scaled_space(1_000)
    uni_a = uniform_dataset(400, seed=3, space=space).boxes
    uni_b = uniform_dataset(600, seed=4, space=space).boxes
    massive = massive_cluster(500, seed=5, space=space).boxes
    dense = dense_cluster(300, seed=6, space=space).boxes
    return {
        "uniform_3d": (uni_a, uni_b),
        "massive_3d": (massive, uni_b),
        "uniform_2d": (_flat(uni_a, slice(0, 2)), _flat(uni_b, slice(0, 2))),
        "dense_2d": (_flat(dense, slice(1, 3)), _flat(uni_a, slice(1, 3))),
        "flat_axis": (_plate(uni_a), _plate(uni_b)),
        "single_build": (
            BoxArray.from_boxes([uni_a.take(range(20)).mbb()]), uni_b
        ),
    }


def _sha(array: np.ndarray) -> str:
    return hashlib.sha256(array.tobytes()).hexdigest()


def observe_kernel(case: str) -> dict[str, object]:
    pairs, tests = grid_hash_join(*_kernel_cases()[case])
    return {
        "pairs_sha256": _sha(pairs),
        "dtype": str(pairs.dtype),
        "shape": list(pairs.shape),
        "tests": tests,
    }


def observe_assignment(case: str) -> dict[str, object]:
    build, probe = _kernel_cases()[case]
    grid = UniformGrid(build.mbb().union(probe.mbb()), 7)
    cells, members = grid.assign_entries(probe)
    return {
        "cells_sha256": _sha(cells),
        "members_sha256": _sha(members),
        "dtypes": [str(cells.dtype), str(members.dtype)],
        "rows": len(cells),
    }


ASSIGNMENT_CASES = ("uniform_3d", "dense_2d", "flat_axis")

GOLDEN = json.loads(
    """
{
 "assignment": {
  "dense_2d": {
   "cells_sha256": "e05a52c9ae8a6d3fbb5d5a578d86fa42a5b3f4c8c45cc41dd8fb7ee1bd34e38a",
   "dtypes": [
    "int64",
    "int64"
   ],
   "members_sha256": "a27dbec07c713fb18f23e2757e7582891c9e965c1be61ef6e58d2d267bcda50a",
   "rows": 518
  },
  "flat_axis": {
   "cells_sha256": "a252e0ad10fa0882aa61d9391b5af747d2327817b02483649992787bd56f30b9",
   "dtypes": [
    "int64",
    "int64"
   ],
   "members_sha256": "822cbb419fbf6b91514eaa79196ed82ec0cb7cd4a3a7affbf81219a6ee7eb778",
   "rows": 801
  },
  "uniform_3d": {
   "cells_sha256": "c138cbd59c96748291855746ebdfe5e655c29e545dbaefc67023642f9f52f801",
   "dtypes": [
    "int64",
    "int64"
   ],
   "members_sha256": "5393ee1ba02f07410db955cef0c98d78a0350007f07229b0b45dcf3672a729cd",
   "rows": 949
  }
 },
 "kernel": {
  "dense_2d": {
   "dtype": "int64",
   "pairs_sha256": "fe289f5cf38eebe0d38f6e621f8e3e750e83a90e7604610b77237a242797786b",
   "shape": [
    377,
    2
   ],
   "tests": 1741
  },
  "flat_axis": {
   "dtype": "int64",
   "pairs_sha256": "85c6bdd6614be4fce6161b009857009fafe934224cd9c98455bb9d53f9c9169e",
   "shape": [
    840,
    2
   ],
   "tests": 8267
  },
  "massive_3d": {
   "dtype": "int64",
   "pairs_sha256": "bd10657fe521cc039df98bdb8f785933094d4f6e2bfc17fbdbc67f832aeee0b0",
   "shape": [
    64,
    2
   ],
   "tests": 1940
  },
  "single_build": {
   "dtype": "int64",
   "pairs_sha256": "de3713b893d63e6235d0ac350906603846d5cc335e70e993615417847f3a5a27",
   "shape": [
    412,
    2
   ],
   "tests": 600
  },
  "uniform_2d": {
   "dtype": "int64",
   "pairs_sha256": "918d117531a8d2dcd48d9598b6afa56d891ceb7fa6588617472f05fa7326389e",
   "shape": [
    840,
    2
   ],
   "tests": 3675
  },
  "uniform_3d": {
   "dtype": "int64",
   "pairs_sha256": "bfcaac92bccf9f615862b1380c33070e9145a84d6fc2e3272200a445889351a1",
   "shape": [
    45,
    2
   ],
   "tests": 1501
  }
 }
}
"""
)


@pytest.mark.parametrize("case", sorted(_kernel_cases()))
def test_kernel_output_is_byte_identical_to_the_recorded_one(case):
    assert observe_kernel(case) == GOLDEN["kernel"][case]


@pytest.mark.parametrize("case", ASSIGNMENT_CASES)
def test_assignment_rows_are_byte_identical_to_the_recorded_ones(case):
    assert observe_assignment(case) == GOLDEN["assignment"][case]


class TestBucketLookUp:
    """Directory and binary-search buckets are one kernel."""

    @staticmethod
    def run(monkeypatch, build, probe, resolution):
        directories = []
        bincount = np.bincount

        def spy(*args, **kwargs):
            directories.append(kwargs["minlength"])
            return bincount(*args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(grid_hash.np, "bincount", spy)
            output = grid_hash_join(build, probe, resolution)
        assert_meets_specification(
            output, build, probe, grid_hash_tests(build, probe, resolution)
        )
        return directories

    def test_default_resolution_addresses_a_directory(self, monkeypatch):
        build, probe = _kernel_cases()["uniform_3d"]
        directories = self.run(monkeypatch, build, probe, None)
        # One entry per cell, and O(len(build)) of them.
        assert len(directories) == 1
        assert directories[0] <= 8 * len(build)

    def test_a_grid_far_finer_than_the_input_is_searched(self, monkeypatch):
        build, probe = _kernel_cases()["uniform_3d"]
        build, probe = build.take(range(30)), probe.take(range(30))
        # 64**3 cells for 60 boxes: no directory is allocated.
        assert self.run(monkeypatch, build, probe, 64) == []

    def test_up_to_4d_the_default_resolution_always_fits_a_directory(self):
        """Cells per assignment row at the default resolution, at its
        worst: ``n`` build boxes and one probe box, one row each.  Only
        an explicit resolution passes the guard up to 4-D; in 5-D two
        points against one already do (32 cells for 3 rows)."""
        limit = grid_hash._DIRECTORY_CELLS_PER_ROW
        peaks = {
            ndim: max(
                grid_hash.default_resolution(n, ndim) ** ndim / (n + 1)
                for n in range(1, 300_001)
            )
            for ndim in (1, 2, 3, 4)
        }
        assert {d: round(p, 2) for d, p in peaks.items()} == {
            1: 0.98,
            2: 1.5,
            3: 2.7,
            4: 5.33,
        }
        assert max(peaks.values()) <= limit
        assert grid_hash.default_resolution(2, 5) ** 5 / 3 > limit


# ----------------------------------------------------------------------
# The segmented kernel
# ----------------------------------------------------------------------
@st.composite
def _segment_sets(draw):
    """Segments on a lattice (touching faces are common), each at its
    own place and scale, optionally one box wide or flat on an axis."""
    ndim = draw(st.integers(1, 4))
    flat_axis = draw(st.one_of(st.none(), st.integers(0, ndim - 1)))
    sides = ([], []), ([], [])
    sizes = [], []
    for _ in range(draw(st.integers(1, 6))):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        scale = draw(st.sampled_from([0.125, 1.0, 3.0, 4096.0]))
        origin = rng.integers(-4, 5, size=ndim) * scale
        one_box = draw(st.booleans())
        for side, (los, his) in enumerate(sides):
            n = 1 if one_box and side == 0 else draw(st.integers(1, 24))
            lo = origin + rng.integers(0, 9, size=(n, ndim)) * scale
            hi = lo + rng.integers(0, 4, size=(n, ndim)) * scale
            if flat_axis is not None:
                lo[:, flat_axis] = hi[:, flat_axis] = 2.0
            los.append(lo)
            his.append(hi)
            sizes[side].append(n)
    (b_lo, b_hi), (p_lo, p_hi) = sides
    return (
        BoxArray(np.concatenate(b_lo), np.concatenate(b_hi)),
        BoxArray(np.concatenate(p_lo), np.concatenate(p_hi)),
        np.cumsum([0] + sizes[0]),
        np.cumsum([0] + sizes[1]),
    )


def _assert_same_arrays(got, expected):
    for g, e in zip(got, expected, strict=True):
        assert g.dtype == e.dtype
        assert g.shape == e.shape
        assert g.tobytes() == e.tobytes()


def _cells_per_box(boxes, other, build_rows):
    """Cells each box is assigned to on the grid its segment gets."""
    grid = UniformGrid(
        boxes.mbb().union(other.mbb()),
        grid_hash.default_resolution(build_rows, boxes.ndim),
    )
    return np.bincount(grid.assign_entries(boxes)[1])


def _lattice_segments(ndim, build_sizes, probe_sizes, extent):
    """Segments of boxes ``extent(rng, n)`` wide with lattice corners."""
    rng = np.random.default_rng(ndim)
    sides = []
    for sizes in (build_sizes, probe_sizes):
        n = sum(sizes)
        lo = rng.integers(0, 12, size=(n, ndim)).astype(np.float64)
        sides.append(BoxArray(lo, lo + extent(rng, (n, ndim))))
    return (
        *sides,
        np.cumsum([0, *build_sizes]),
        np.cumsum([0, *probe_sizes]),
    )


def _each_segment(segment_set):
    build, probe, bo, po = segment_set
    return zip(build.split(bo), probe.split(po))


def _cell_count_extreme(extent, holds):
    """Boxes ``extent`` wide whose cells-per-box counts all ``holds``."""

    def case(ndim):
        segment_set = _lattice_segments(
            ndim, [27, 64, 8], [40, 9, 30], lambda rng, shape: extent
        )

        def check(segment_set, pairs, segments, tests):
            for build, probe in _each_segment(segment_set):
                assert holds(_cells_per_box(build, probe, len(build)))
                assert holds(_cells_per_box(probe, build, len(build)))
            assert len(pairs)

        return segment_set, check

    return case


def _nothing_survives_axis_0(ndim):
    """Build and probe boxes share cells and are disjoint on axis 0 (a
    far probe box stretches each grid, so axis 0 has one crowded cell)."""
    build, probe, bo, po = _lattice_segments(
        ndim, [16, 9, 30], [20, 12, 7], lambda rng, shape: rng.random(shape)
    )
    b_lo, b_hi = build.lo.copy(), build.hi.copy()
    p_lo, p_hi = probe.lo.copy(), probe.hi.copy()
    b_lo[:, 0], b_hi[:, 0] = 0.0, 1.0
    p_lo[:, 0], p_hi[:, 0] = 2.0, 3.0
    p_lo[po[:-1], 0], p_hi[po[:-1], 0] = 900.0, 901.0
    segment_set = BoxArray(b_lo, b_hi), BoxArray(p_lo, p_hi), bo, po

    def check(segment_set, pairs, segments, tests):
        assert tests.min() > 0 and pairs.shape == (0, 2)

    return segment_set, check


def _everything_survives_every_axis(ndim):
    """Every box is its segment's whole extent: each candidate passes
    each axis and only the reference point thins the duplicates."""
    build, probe, bo, po = _lattice_segments(
        ndim, [8, 27, 3], [5, 4, 9], lambda rng, shape: 0.0
    )
    one = np.ones_like
    segment_set = (
        BoxArray(0.0 * build.lo, 6.0 * one(build.hi)),
        BoxArray(0.0 * probe.lo, 6.0 * one(probe.hi)),
        bo,
        po,
    )

    def check(segment_set, pairs, segments, tests):
        sizes = np.diff(bo) * np.diff(po)
        assert np.array_equal(np.bincount(segments), sizes)
        assert (tests > sizes)[np.diff(bo) > 3].all()

    return segment_set, check


_EXTREMES = {
    # Points: the mixed-radix counter is 0 on every assignment row.
    "all_single_cell": _cell_count_extreme(0.0, lambda n: n.max() == 1),
    # Every box is wider than a cell of its grid: no row is skipped.
    "all_multi_cell": _cell_count_extreme(12.0, lambda n: n.min() > 1),
    "nothing_survives_axis_0": _nothing_survives_axis_0,
    "everything_survives_every_axis": _everything_survives_every_axis,
}


class TestSegmentedKernel:
    @settings(max_examples=300, deadline=None)
    @given(_segment_sets())
    def test_equals_one_grid_hash_join_per_segment_byte_for_byte(
        self, segment_set
    ):
        """Pair bytes, dtype, order, segments and per-segment tests."""
        _assert_same_arrays(
            grid_hash_join_segments(*segment_set),
            grid_hash_join_per_segment(*segment_set),
        )

    @settings(max_examples=100, deadline=None)
    @given(_segment_sets())
    def test_each_segment_meets_the_specification(self, segment_set):
        """Each segment's pairs are its nested-loop answer, none twice,
        and its ``tests`` the closed form on the segment's own grid."""
        _, _, bo, po = segment_set
        pairs, segments, tests = grid_hash_join_segments(*segment_set)
        for s, (b, p) in enumerate(_each_segment(segment_set)):
            local = pairs[segments == s] - (bo[s], po[s])
            assert_meets_specification(
                (local, int(tests[s])), b, p, grid_hash_tests(b, p)
            )

    @pytest.mark.parametrize(
        "launch", [grid_hash_join_segments, grid_hash_join_per_segment]
    )
    def test_the_recorded_cases_as_segments_of_one_launch(self, launch):
        """Segments of very different size and extent: each one's rows
        are the bytes recorded for ``grid_hash_join`` on it alone."""
        names = ("uniform_3d", "massive_3d", "single_build", "uniform_3d")
        cases = [_kernel_cases()[name] for name in names]
        build_offsets = np.cumsum([0] + [len(b) for b, _ in cases])
        probe_offsets = np.cumsum([0] + [len(p) for _, p in cases])
        pairs, segments, tests = launch(
            BoxArray.concatenate([b for b, _ in cases]),
            BoxArray.concatenate([p for _, p in cases]),
            build_offsets,
            probe_offsets,
        )
        assert np.all(np.diff(segments) >= 0)
        for s, name in enumerate(names):
            local = pairs[segments == s] - (build_offsets[s], probe_offsets[s])
            assert {
                "pairs_sha256": _sha(local),
                "dtype": str(local.dtype),
                "shape": list(local.shape),
                "tests": int(tests[s]),
            } == GOLDEN["kernel"][name]

    def test_grids_too_fine_for_a_directory_go_segment_by_segment(
        self, monkeypatch
    ):
        """Five dimensions, two points against one per segment: 32 cells
        each for three assignment rows.  The per-segment loop owns the
        one guard."""
        points = np.random.default_rng(7).integers(0, 6, size=(12, 5))
        build = BoxArray(points, points)
        probe = build.take(range(0, 12, 2))
        offsets = np.arange(0, 13, 2), np.arange(7)
        calls = []
        fallback = grid_hash.grid_hash_join_per_segment
        monkeypatch.setattr(
            grid_hash,
            "grid_hash_join_per_segment",
            lambda *args: calls.append(1) or fallback(*args),
        )
        monkeypatch.setattr(
            grid_hash.np,
            "bincount",
            lambda *args, **kwargs: pytest.fail("a directory was built"),
        )
        pairs, segments, tests = grid_hash_join_segments(build, probe, *offsets)
        assert calls == [1]
        # Every probe point is its segment's first build point.
        own = np.column_stack((np.arange(0, 12, 2), np.arange(6)))
        assert set(map(tuple, own)) <= set(map(tuple, pairs))
        assert (pairs[:, 0] // 2 == segments).all()
        assert (pairs[:, 1] == segments).all()
        assert len(tests) == 6 and set(tests.tolist()) <= {1, 2}

    @pytest.mark.parametrize("ndim", [1, 2, 3])
    @pytest.mark.parametrize("name", sorted(_EXTREMES))
    def test_the_extremes_of_decode_and_compaction_equal_the_per_segment_joins(
        self, name, ndim
    ):
        segment_set, check = _EXTREMES[name](ndim)
        got = grid_hash_join_segments(*segment_set)
        _assert_same_arrays(
            got, grid_hash_join_per_segment(*segment_set)
        )
        check(segment_set, *got)

    def test_one_dimension(self):
        rng = np.random.default_rng(11)
        lo = rng.integers(0, 40, size=(90, 1)).astype(np.float64)
        build = BoxArray(lo, lo + rng.integers(0, 6, size=(90, 1)))
        probe = build.take(rng.permutation(90)[:70])
        segment_set = build, probe, [0, 1, 30, 90], [0, 25, 26, 70]
        pairs, segments, tests = grid_hash_join_segments(*segment_set)
        _assert_same_arrays(
            (pairs, segments, tests),
            grid_hash_join_per_segment(*segment_set),
        )
        assert len(pairs) and tests.min() > 0

    def test_block_edges_never_reorder_pairs(self, monkeypatch):
        """Seven candidate tests per block instead of 16 384: the same
        bytes as one block, and as the recorded digests."""
        rng = np.random.default_rng(5)
        lo = rng.integers(0, 12, size=(120, 3)).astype(np.float64)
        build = BoxArray(lo, lo + rng.integers(0, 5, size=(120, 3)))
        probe = build.take(rng.permutation(120)[:100])
        segment_set = build, probe, [0, 40, 41, 120], [0, 30, 70, 100]
        expected = grid_hash_join_per_segment(*segment_set)
        assert len(expected[0]) > 7
        monkeypatch.setattr(grid_hash, "_CANDIDATE_BLOCK", 7)
        _assert_same_arrays(grid_hash_join_segments(*segment_set), expected)
        self.test_the_recorded_cases_as_segments_of_one_launch(
            grid_hash_join_segments
        )

    @pytest.mark.parametrize(
        "build_offsets, probe_offsets",
        [
            ([1, 4, 8], [0, 3, 6]),  # does not start at 0
            ([0, 4, 7], [0, 3, 6]),  # does not cover the input
            ([0, 4, 8], [0, 3, 9]),  # runs past the input
            ([0, 5, 4, 8], [0, 2, 3, 6]),  # descends
            ([0, 4, 4, 8], [0, 2, 3, 6]),  # an empty build segment
            ([0, 4, 6, 8], [0, 3, 3, 6]),  # an empty probe segment
            ([0, 4, 8], [0, 6]),  # different segment counts
            ([0], [0]),  # no segment
            ([[0, 8]], [[0, 6]]),  # not one-dimensional
        ],
    )
    def test_offsets_that_do_not_partition_the_inputs_raise(
        self, build_offsets, probe_offsets
    ):
        build, probe = _kernel_cases()["uniform_3d"]
        build, probe = build.take(range(8)), probe.take(range(6))
        with pytest.raises(ValueError, match="offsets"):
            grid_hash_join_segments(build, probe, build_offsets, probe_offsets)

    def test_dimensionality_mismatch_raises(self):
        build, probe = _kernel_cases()["uniform_3d"]
        with pytest.raises(ValueError, match="dimensionality"):
            grid_hash_join_segments(
                build, _flat(probe, slice(0, 2)), [0, len(build)], [0, len(probe)]
            )


# ----------------------------------------------------------------------
# The overlap primitive
# ----------------------------------------------------------------------
def _reduction(a_lo, a_hi, b_lo, b_hi):
    return np.all((a_lo <= b_hi) & (a_hi >= b_lo), axis=-1)


#: A small lattice, so touching faces and equal bounds are common.
_coordinate = st.one_of(
    st.integers(-3, 3).map(float), st.just(float("nan"))
)


@st.composite
def _broadcast_operands(draw):
    ndim = draw(st.integers(1, 4))
    n, m = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    shapes = draw(
        st.sampled_from(
            [
                ((n, ndim), (ndim,)),
                ((ndim,), (m, ndim)),
                ((n, ndim), (n, ndim)),
                ((n, 1, ndim), (1, m, ndim)),
            ]
        )
    )

    def operand(shape):
        size = int(np.prod(shape))
        values = draw(st.lists(_coordinate, min_size=size, max_size=size))
        return np.array(values, dtype=np.float64).reshape(shape)

    return tuple(operand(shapes[k // 2]) for k in range(4))


class TestBoxesOverlap:
    @settings(max_examples=300, deadline=None)
    @given(_broadcast_operands())
    def test_equals_the_short_axis_reduction(self, operands):
        a_lo, a_hi, b_lo, b_hi = operands
        expected = _reduction(a_lo, a_hi, b_lo, b_hi)
        got = boxes_overlap(a_lo, a_hi, b_lo, b_hi)
        assert got.dtype == np.bool_
        assert got.shape == expected.shape
        assert np.array_equal(got, expected)

    def test_touching_faces_intersect_and_nan_never_does(self):
        lo = np.array([[0.0, 0.0], [2.0, 0.0], [np.nan, 0.0]])
        hi = np.array([[1.0, 1.0], [3.0, 1.0], [1.0, 1.0]])
        hit = boxes_overlap(lo, hi, np.array([1.0, 1.0]), np.array([2.0, 2.0]))
        assert hit.tolist() == [True, True, False]

    def test_an_empty_coordinate_axis_intersects(self):
        # What the plane sweep hands over for 1-D boxes (axes 1..).
        empty = np.empty((4, 0))
        assert boxes_overlap(empty, empty, empty, empty).tolist() == [True] * 4

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(0, 6),
        st.integers(1, 4),
        st.integers(0, 2**32 - 1),
    )
    def test_column_helpers_equal_the_reductions(self, n, ndim, seed):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=(n, ndim)) * 10.0
        assert (
            column_product(values).tobytes()
            == np.prod(values, axis=1).tobytes()
        )
        mask = values > 0.0
        assert np.array_equal(all_columns(mask), np.all(mask, axis=1))


# ----------------------------------------------------------------------
# Bounds over contiguous columns
# ----------------------------------------------------------------------
@st.composite
def _bound_inputs(draw):
    """Lattice values (ties are common) with one special value strewn
    in — NaN by whole rows — in one of four memory layouts."""
    n, ndim = draw(st.integers(1, 300)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.integers(-3, 4, size=(n, ndim)).astype(np.float64)
    special = draw(
        st.sampled_from([None, np.inf, -np.inf, np.nan, -0.0, "0"])
    )
    if special == "0":  # zeros of both signs in one column
        values[rng.random((n, ndim)) < 0.5] = 0.0
        values[rng.random((n, ndim)) < 0.3] = -0.0
    elif special is not None and np.isnan(special):
        values[rng.random(n) < 0.2] = np.nan
    elif special is not None:
        values[rng.random((n, ndim)) < 0.2] = special
    layout = draw(st.sampled_from(["C", "F", "strided", "read-only"]))
    if layout == "F":
        values = np.asfortranarray(values)
    elif layout == "strided":
        wide = np.full((2 * n, 2 * ndim), 99.0)
        wide[::2, ::2] = values
        values = wide[::2, ::2]
        assert not values.flags.c_contiguous or values.size == 1
    elif layout == "read-only":
        values.setflags(write=False)
    return values


class TestColumnBounds:
    @settings(max_examples=300, deadline=None)
    @given(_bound_inputs())
    def test_equal_the_axis_0_reductions_bit_for_bit(self, values):
        zero = values == 0.0
        both_zeros = (zero & np.signbit(values)).any(axis=0) & (
            zero & ~np.signbit(values)
        ).any(axis=0)
        for helper, reduction in ((column_min, np.min), (column_max, np.max)):
            got, expected = helper(values), reduction(values, axis=0)
            assert got.dtype == expected.dtype
            assert got.shape == expected.shape
            # The one exception: where 0.0 and -0.0 tie for the extremum
            # NumPy leaves the sign to its SIMD path, on either form
            # (datagen never emits -0.0), so those compare with ==.
            tied = both_zeros & (expected == 0.0)
            assert np.array_equal(got[tied], expected[tied])
            assert got[~tied].tobytes() == expected[~tied].tobytes()
        assert columns(values).flags.c_contiguous
        assert np.array_equal(columns(values), values.T, equal_nan=True)

    def test_nan_propagates_as_in_the_reduction(self):
        values = np.array([[1.0, np.nan], [np.nan, np.nan], [3.0, np.nan]])
        for helper in (column_min, column_max):
            assert np.isnan(helper(values)).tolist() == [True, True]
            assert np.isnan(helper(values[::2])).tolist() == [False, True]

    @pytest.mark.parametrize("helper", [column_min, column_max])
    def test_no_rows_raise_as_the_reduction_does(self, helper):
        empty = np.empty((0, 3))
        with pytest.raises(ValueError, match="zero-size"):
            empty.min(axis=0)
        with pytest.raises(ValueError, match="zero-size"):
            helper(empty)


# ----------------------------------------------------------------------
# The slow idioms stay out
# ----------------------------------------------------------------------
def _short_axis_reductions(path: Path) -> list[str]:
    """``np.all/any/prod(..., axis=k)`` with k != 0, in any function."""
    found = []
    tree = ast.parse(path.read_text())
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("all", "any", "prod")
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "np"
            ):
                continue
            for keyword in node.keywords:
                if keyword.arg == "axis" and not (
                    isinstance(keyword.value, ast.Constant)
                    and keyword.value.value == 0
                ):
                    found.append(f"{path.name}:{node.lineno} in {func.name}")
    return found


def test_no_short_axis_reduction_in_the_kernel_packages():
    root = Path(repro.__file__).parent
    offenders = [
        hit
        for package in ("core", "joins", "index", "geometry")
        for path in sorted((root / package).glob("*.py"))
        for hit in _short_axis_reductions(path)
    ]
    assert offenders == []


if __name__ == "__main__":
    print(
        json.dumps(
            {
                "kernel": {
                    case: observe_kernel(case) for case in _kernel_cases()
                },
                "assignment": {
                    case: observe_assignment(case)
                    for case in ASSIGNMENT_CASES
                },
            },
            indent=1,
            sort_keys=True,
        )
    )
