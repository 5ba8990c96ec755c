"""Tests for the TRANSFORMERS index structure (Section IV invariants)."""

import numpy as np
import pytest

from repro.core import indexing
from repro.core.join import TransformersJoin
from repro.datagen import (
    dense_cluster,
    massive_cluster,
    scaled_space,
    uniform_cluster,
    uniform_dataset,
)
from repro.geometry.box import Box
from repro.geometry.boxes import BoxArray
from repro.joins.grid_hash import grid_hash_join
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskModel, SimulatedDisk

from tests.conftest import counted_constructions, dataset_pair, make_disk


def build(kind="clustered", n=1500, seed=41):
    a, _ = dataset_pair(kind, n, 10, seed=seed)
    disk = make_disk()
    index, stats = TransformersJoin().build_index(disk, a)
    return a, disk, index, stats


class TestHierarchy:
    def test_every_element_in_exactly_one_unit(self):
        a, disk, index, _ = build()
        seen: list[int] = []
        for page_id in index.units.element_page_ids:
            seen.extend(disk.peek(int(page_id)).ids.tolist())
        assert sorted(seen) == sorted(a.ids.tolist())

    def test_every_unit_in_exactly_one_node(self):
        _, _, index, _ = build()
        seen = np.concatenate(index.nodes.units)
        assert sorted(seen.tolist()) == list(range(index.num_units))

    def test_parent_node_consistent(self):
        _, _, index, _ = build()
        for k, members in enumerate(index.nodes.units):
            assert np.all(index.units.parent_node[members] == k)

    def test_unit_page_mbb_tight(self):
        a, disk, index, _ = build(seed=42)
        for t in range(index.num_units):
            page = disk.peek(int(index.units.element_page_ids[t]))
            mbb = page.boxes.mbb()
            assert np.allclose(index.units.page_lo[t], mbb.lo)
            assert np.allclose(index.units.page_hi[t], mbb.hi)

    def test_node_mbb_covers_member_units(self):
        _, _, index, _ = build(seed=43)
        for k, members in enumerate(index.nodes.units):
            assert np.all(
                index.nodes.mbb_lo[k] <= index.units.page_lo[members] + 1e-12
            )
            assert np.all(
                index.nodes.mbb_hi[k] >= index.units.page_hi[members] - 1e-12
            )

    def test_node_element_counts(self):
        _, _, index, _ = build(seed=44)
        assert index.nodes.element_counts.sum() == index.num_elements

    def test_capacities_exposed(self):
        _, _, index, _ = build()
        assert index.elements_per_unit >= 1
        assert index.units_per_node >= 2
        assert np.all(index.units.counts <= index.elements_per_unit)
        assert all(
            len(m) <= index.units_per_node for m in index.nodes.units
        )


class TestPartitionTiling:
    def test_node_partitions_tile_space(self):
        a, _, index, _ = build(seed=45)
        space = a.boxes.mbb()
        vol = sum(
            float(np.prod(index.nodes.part_hi[k] - index.nodes.part_lo[k]))
            for k in range(index.num_nodes)
        )
        assert vol == pytest.approx(space.volume(), rel=1e-9)

    def test_unit_partitions_tile_space(self):
        a, _, index, _ = build(seed=46)
        space = a.boxes.mbb()
        vol = float(
            np.prod(index.units.part_hi - index.units.part_lo, axis=1).sum()
        )
        assert vol == pytest.approx(space.volume(), rel=1e-9)

    def test_node_slack_bounds_overhang(self):
        _, _, index, _ = build(seed=47)
        overhang_lo = np.maximum(
            index.nodes.part_lo - index.nodes.mbb_lo, 0.0
        ).max(axis=0)
        overhang_hi = np.maximum(
            index.nodes.mbb_hi - index.nodes.part_hi, 0.0
        ).max(axis=0)
        assert np.all(index.node_slack >= overhang_lo - 1e-12)
        assert np.all(index.node_slack >= overhang_hi - 1e-12)


class TestConnectivity:
    def test_neighbors_symmetric_and_irreflexive(self):
        _, _, index, _ = build(seed=48)
        for k, ns in enumerate(index.nodes.neighbors):
            assert k not in set(ns.tolist())
            for j in ns:
                assert k in index.nodes.neighbors[int(j)]

    def test_touching_partitions_are_neighbors(self):
        _, _, index, _ = build(seed=49)
        n = index.num_nodes
        for i in range(n):
            for j in range(i + 1, n):
                touches = np.all(
                    (index.nodes.part_lo[i] <= index.nodes.part_hi[j])
                    & (index.nodes.part_hi[i] >= index.nodes.part_lo[j])
                )
                if touches:
                    assert j in set(index.nodes.neighbors[i].tolist())


def grid_hash_neighbors(part_lo, part_hi):
    """The connectivity graph as a grid-hash self-join of the node
    partition boxes, off-diagonal pairs sorted by (node, neighbour):
    the reference for the build's cross test."""
    boxes = BoxArray(part_lo, part_hi)
    pair_idx, _ = grid_hash_join(boxes, boxes)
    links = pair_idx[pair_idx[:, 0] != pair_idx[:, 1]].astype(np.intp)
    links = links[np.lexsort((links[:, 1], links[:, 0]))]
    return np.split(
        links[:, 1],
        np.searchsorted(links[:, 0], np.arange(1, len(part_lo))),
    )


def assert_neighbors_match_reference(index):
    want = grid_hash_neighbors(index.nodes.part_lo, index.nodes.part_hi)
    got = index.nodes.neighbors
    assert len(got) == len(want) == index.num_nodes
    for node, (g, w) in enumerate(zip(got, want)):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), node


GENERATORS = [uniform_dataset, dense_cluster, uniform_cluster, massive_cluster]


class TestConnectivityEqualsGridHashSelfJoin:
    """The neighbour lists come from one cross test of the node boxes;
    they equal the grid-hash self-join formulation byte for byte."""

    @pytest.mark.parametrize("page_size", [512, 1024, 4096])
    @pytest.mark.parametrize("n", [5, 3_000, 12_000, 40_000])
    @pytest.mark.parametrize("gen", GENERATORS, ids=lambda g: g.__name__)
    def test_every_generator_size_and_page_size(self, gen, n, page_size):
        data = gen(n, seed=n + page_size, name="A", space=scaled_space(2 * n))
        disk = SimulatedDisk(DiskModel(page_size=page_size))
        index, _ = TransformersJoin().build_index(disk, data)
        if n == 5:
            assert index.num_nodes == 1
        if (n, page_size) == (40_000, 512):
            # Large enough that the cross test runs in row blocks.
            assert index.num_nodes**2 > indexing._CROSS_CELLS
        assert_neighbors_match_reference(index)

    @pytest.mark.parametrize("cells", [1, 7, 1 << 30])
    def test_row_blocks_do_not_change_the_lists(self, monkeypatch, cells):
        monkeypatch.setattr(indexing, "_CROSS_CELLS", cells)
        _, _, index, _ = build(kind="massive", n=6_000, seed=52)
        assert index.num_nodes > 8
        assert_neighbors_match_reference(index)


class TestBTree:
    def test_btree_indexes_all_nodes(self):
        _, disk, index, _ = build(seed=50)
        pool = BufferPool(disk, 512)
        values = sorted(v for _, v in index.btree.items(pool))
        assert values == list(range(index.num_nodes))

    def test_build_stats_report_structure(self):
        _, _, index, stats = build(seed=51)
        assert stats.extras["space_units"] == index.num_units
        assert stats.extras["space_nodes"] == index.num_nodes
        assert stats.pages_written > 0
        assert stats.phase == "index"


class TestBulkAllocation:
    def test_pages_equal_those_of_the_allocate_loop(self, monkeypatch):
        """The descriptor and meta-page runs are allocated in bulk: page
        ids, payloads and disk stats equal one ``allocate`` per page."""
        a, disk, index, _ = build()

        def loop(self, payloads):
            return [self.allocate(payload) for payload in payloads]

        monkeypatch.setattr(SimulatedDisk, "allocate_many", loop)
        ref_disk = make_disk()
        ref, _ = TransformersJoin().build_index(ref_disk, a)
        for name in ("desc_page_ids", "meta_page_ids"):
            got, want = getattr(index.nodes, name), getattr(ref.nodes, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert disk.stats == ref_disk.stats
        assert [disk.peek(k) for k in index.nodes.meta_page_ids] == [
            ref_disk.peek(k) for k in ref.nodes.meta_page_ids
        ]


class TestInterpreterWork:
    """The build is struct-of-arrays: the permuted run is validated
    once and split into pages that are views of it, so no constructor
    runs per space unit.  Counted, not timed."""

    @staticmethod
    def constructions(monkeypatch, n):
        a, _ = dataset_pair("uniform", n, 10, seed=44)
        disk = make_disk()
        with counted_constructions(monkeypatch, Box, BoxArray) as calls:
            index, _ = TransformersJoin().build_index(disk, a)
        return calls[Box], calls[BoxArray], index.num_units

    def test_constructions_do_not_grow_with_the_unit_count(self, monkeypatch):
        small = self.constructions(monkeypatch, 2_000)
        large = self.constructions(monkeypatch, 8_000)
        assert large[2] >= 3 * small[2]  # the sizes do differ
        assert large[:2] == small[:2]
        assert small[0] <= 4 and small[1] <= 6
