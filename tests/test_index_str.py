"""Tests for Sort-Tile-Recursive packing (plain and with bounds)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import TransformersJoin
from repro.geometry.box import Box
from repro.geometry.boxes import BoxArray
from repro.index.str_pack import (
    str_partition,
    str_partition_with_bounds,
    str_tile_count,
    str_tiling,
)
from repro.joins import GipsyJoin, IndexedNestedLoopJoin, SynchronizedRTreeJoin
from repro.joins.base import Dataset

from tests.conftest import dataset_pair, make_disk


def points(n, ndim=3, seed=0, side=100.0):
    rng = np.random.default_rng(seed)
    return rng.uniform(0, side, size=(n, ndim))


class TestStrPartition:
    def test_empty_input(self):
        assert str_partition(np.empty((0, 3)), 5) == []

    def test_single_tile_when_under_capacity(self):
        tiles = str_partition(points(4), capacity=10)
        assert len(tiles) == 1
        assert sorted(tiles[0].tolist()) == [0, 1, 2, 3]

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            str_partition(points(4), 0)

    def test_rejects_1d_input(self):
        with pytest.raises(ValueError):
            str_partition(np.zeros(5), 2)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 200), st.integers(1, 20), st.integers(0, 10_000))
    def test_partition_is_exact_cover(self, n, capacity, seed):
        """Every point lands in exactly one tile, no tile overflows."""
        tiles = str_partition(points(n, seed=seed), capacity)
        seen = np.concatenate(tiles)
        assert len(seen) == n
        assert len(np.unique(seen)) == n
        assert all(len(t) <= capacity for t in tiles)

    def test_tile_count_near_optimal(self):
        n, capacity = 1000, 16
        tiles = str_partition(points(n, seed=1), capacity)
        # STR may leave partially filled tiles at slab edges, but not
        # explode: allow 60% slack over the optimum.
        assert str_tile_count(n, capacity) <= len(tiles) <= 1.6 * (n / capacity)

    def test_spatial_locality(self):
        """Tiles should be far tighter than random groupings."""
        pts = points(2000, seed=2)
        tiles = str_partition(pts, 20)
        def spread(groups):
            return np.mean([
                np.prod(pts[g].max(axis=0) - pts[g].min(axis=0))
                for g in groups if len(g) > 1
            ])
        rng = np.random.default_rng(0)
        shuffled = rng.permutation(2000)
        random_groups = [shuffled[i : i + 20] for i in range(0, 2000, 20)]
        assert spread(tiles) < spread(random_groups) / 10

    def test_tile_count_helper(self):
        assert str_tile_count(0, 5) == 0
        assert str_tile_count(10, 5) == 2
        assert str_tile_count(11, 5) == 3
        with pytest.raises(ValueError):
            str_tile_count(5, 0)


SPACE = Box((0.0, 0.0, 0.0), (100.0, 100.0, 100.0))


class TestStrPartitionWithBounds:
    def test_empty(self):
        tiles, bounds = str_partition_with_bounds(np.empty((0, 3)), 4, SPACE)
        assert tiles == [] and bounds == []

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            str_partition_with_bounds(points(4, ndim=2), 2, SPACE)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 150), st.integers(1, 16), st.integers(0, 9999))
    def test_centers_inside_their_partition(self, n, capacity, seed):
        pts = points(n, seed=seed)
        tiles, bounds = str_partition_with_bounds(pts, capacity, SPACE)
        for tile, bound in zip(tiles, bounds):
            for idx in tile:
                assert bound.contains_point(tuple(pts[idx]))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 150), st.integers(1, 16), st.integers(0, 9999))
    def test_bounds_tile_space_without_gaps(self, n, capacity, seed):
        """The partition MBBs must cover the space exactly (volumes sum
        to the space volume and every random probe point is covered) —
        the property TRANSFORMERS' navigation correctness rests on."""
        pts = points(n, seed=seed)
        tiles, bounds = str_partition_with_bounds(pts, capacity, SPACE)
        total = sum(b.volume() for b in bounds)
        assert total == pytest.approx(SPACE.volume(), rel=1e-9)
        rng = np.random.default_rng(seed + 1)
        for probe in rng.uniform(0, 100, size=(20, 3)):
            assert any(b.contains_point(tuple(probe)) for b in bounds)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 150), st.integers(1, 10), st.integers(0, 9999))
    def test_partition_interiors_disjoint(self, n, capacity, seed):
        """Random probe points must lie in exactly one partition except
        for boundary coincidences (measure zero for random probes)."""
        pts = points(n, seed=seed)
        _, bounds = str_partition_with_bounds(pts, capacity, SPACE)
        rng = np.random.default_rng(seed + 2)
        for probe in rng.uniform(0.001, 99.999, size=(15, 3)):
            hits = sum(b.contains_point(tuple(probe)) for b in bounds)
            assert hits == 1

    def test_tiles_match_plain_partition_semantics(self):
        pts = points(300, seed=3)
        tiles, _ = str_partition_with_bounds(pts, 16, SPACE)
        seen = np.concatenate(tiles)
        assert len(np.unique(seen)) == 300
        assert all(len(t) <= 16 for t in tiles)


# ----------------------------------------------------------------------
# The textbook recursion the level-at-a-time ``str_tiling`` replaced:
# one stable argsort per slab, one Box per tile.  Kept as the reference
# the production tiles and bounds are compared against, bit for bit.
# ----------------------------------------------------------------------
def str_recursive(centers, capacity, space):
    tiles, bounds = [], []
    if len(centers):
        _recurse(
            np.arange(len(centers), dtype=np.intp), centers, capacity, 0,
            list(space.lo), list(space.hi), tiles, bounds,
        )
    return tiles, bounds


def _recurse(indices, centers, capacity, axis, region_lo, region_hi,
             out_tiles, out_bounds):
    n = len(indices)
    ndim = centers.shape[1]
    if n <= capacity:
        out_tiles.append(indices)
        out_bounds.append(Box(tuple(region_lo), tuple(region_hi)))
        return
    order = indices[np.argsort(centers[indices, axis], kind="stable")]
    num_tiles = math.ceil(n / capacity)
    if axis == ndim - 1:
        slab_size = capacity
    else:
        slabs = max(1, math.ceil(num_tiles ** (1.0 / (ndim - axis))))
        slab_size = math.ceil(n / slabs)
    starts = list(range(0, n, slab_size))
    sorted_coords = centers[order, axis]
    for s, start in enumerate(starts):
        chunk = order[start : start + slab_size]
        lo = list(region_lo)
        hi = list(region_hi)
        if s > 0:
            lo[axis] = (sorted_coords[start - 1] + sorted_coords[start]) / 2.0
        if s + 1 < len(starts):
            nxt = starts[s + 1]
            hi[axis] = (sorted_coords[nxt - 1] + sorted_coords[nxt]) / 2.0
        if axis == ndim - 1:
            out_tiles.append(chunk)
            out_bounds.append(Box(tuple(lo), tuple(hi)))
        else:
            _recurse(chunk, centers, capacity, axis + 1, lo, hi,
                     out_tiles, out_bounds)


def assert_same_tiling(pts, capacity):
    space = Box((0.0,) * pts.shape[1], (100.0,) * pts.shape[1])
    want_tiles, want_bounds = str_recursive(pts, capacity, space)
    tiles, bounds = str_partition_with_bounds(pts, capacity, space)
    assert len(tiles) == len(want_tiles)
    for tile, want in zip(tiles, want_tiles):
        assert tile.dtype == want.dtype
        assert tile.tolist() == want.tolist()
    assert bounds == want_bounds
    plain = str_partition(pts, capacity)
    assert [t.tolist() for t in plain] == [t.tolist() for t in want_tiles]


class TestLevelwiseEqualsRecursive:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 400),
        st.integers(1, 40),
        st.integers(1, 4),
        st.booleans(),
        st.integers(0, 9999),
    )
    def test_tiles_and_bounds(self, n, capacity, ndim, lattice, seed):
        """Any size (n = 0 and n <= capacity included), 1-D to 4-D, and
        — on the lattice — heavily duplicated coordinates, where only a
        stable sort reproduces the recursion's tie order."""
        pts = points(n, ndim=ndim, seed=seed)
        if lattice:
            pts = np.floor(pts / 25.0) * 25.0
        assert_same_tiling(pts, capacity)

    @pytest.mark.parametrize("ndim", [2, 3])
    @pytest.mark.parametrize("capacity", [1, 3, 16])
    def test_tie_heavy_inputs(self, ndim, capacity):
        """Coincident and duplicated centres tie on every axis, so only
        the stable per-slab order reproduces the recursion — on axes
        where every slab splits (sorted by coordinate alone) and on axes
        where some already fit (keyed by position)."""
        coincident = np.full((200, ndim), 42.0)
        duplicated = np.repeat(points(60, ndim=ndim, seed=capacity), 5, axis=0)
        shuffled = duplicated[np.random.default_rng(capacity).permutation(300)]
        # Two slabs of capacity + 1 and capacity: the second fits.
        partial = np.full((2 * capacity + 1, ndim), 7.0)
        for pts in (coincident, duplicated, shuffled, partial):
            assert_same_tiling(pts, capacity)

    def test_more_slabs_than_a_byte_counts(self):
        """Slab ids are sorted in the narrowest integer type that holds
        them; > 255 slabs on one level takes the 16-bit one."""
        pts = points(30_000, ndim=3, seed=8)
        assert len(str_tiling(pts, 2)[1]) - 1 > 255**1.5
        assert_same_tiling(pts, 2)

    def test_array_form_agrees_with_the_list_form(self):
        pts = points(500, ndim=2, seed=4)
        space = Box((0.0, 0.0), (100.0, 100.0))
        order, offsets, lo, hi = str_tiling(pts, 7, space)
        tiles, bounds = str_partition_with_bounds(pts, 7, space)
        assert [order[a:b].tolist() for a, b in zip(offsets, offsets[1:])] == [
            t.tolist() for t in tiles
        ]
        assert [Box(a, b) for a, b in zip(lo, hi)] == bounds

    def test_space_not_containing_the_centres_is_rejected(self):
        pts = points(50, seed=2) + 500.0
        with pytest.raises(ValueError):
            str_tiling(pts, 4, SPACE)


class TestOneElementPageLayout:
    """TRANSFORMERS' space units, GIPSY's partitions, INL's sequential
    file and the R-tree's leaves are the same STR element pages: one
    dataset, each structure on a fresh disk, the same ids and boxes in
    the same pages in the same order."""

    @pytest.mark.parametrize("kind, ndim", [("clustered", 3), ("massive", 2)])
    def test_every_index_writes_the_same_pages(self, kind, ndim):
        a, _ = dataset_pair(kind, 1700, 10, seed=41)
        a = Dataset(a.name, a.ids, BoxArray(a.boxes.lo[:, :ndim], a.boxes.hi[:, :ndim]))

        def contents(algorithm, page_ids_of):
            disk = make_disk()
            index, _ = algorithm.build_index(disk, a)
            pages = [disk.peek(int(p)) for p in page_ids_of(index)]
            return [
                (p.ids.tobytes(), p.boxes.lo.tobytes(), p.boxes.hi.tobytes())
                for p in pages
            ]

        units = contents(TransformersJoin(), lambda i: i.units.element_page_ids)
        assert len(units) > 10
        assert contents(GipsyJoin(), lambda i: i.element_page_ids) == units
        assert contents(IndexedNestedLoopJoin(), lambda i: i.file.page_ids) == units
        assert contents(SynchronizedRTreeJoin(), lambda i: i.leaf_pages) == units
