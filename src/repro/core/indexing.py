"""TRANSFORMERS indexing (paper Section IV).

Builds, for one dataset, the three-level hierarchical organisation:

* **level 2** — spatial elements, packed into page-sized STR tiles;
* **level 1** — *space units*: one disk page of elements plus a
  descriptor (page MBB, partition MBB, page pointer);
* **level 0** — *space nodes*: groups of space units (as many as one
  descriptor page can summarise), with node MBB, gap-free node
  partition bounds and the neighbour lists that form the connectivity
  graph.

Connectivity is computed "by performing a spatial self-join on the
space node MBBs" — we run it on the gap-free node *partition* bounds
so face-adjacent nodes always link up (the paper introduces partition
MBBs for precisely this no-gaps navigation guarantee).  Space units
inherit the neighbourhood information from their parent node.  The
self-join is one cross test of the node boxes with themselves, diagonal
cleared; ``nonzero`` lists the hits row-major, so every node's
neighbours come out ascending.  A serve-sized index has 12–48 nodes,
where a grid hash join's ≈ 30 NumPy calls cost 200–360 µs per build
and the cross test 33–80 µs; its O(nodes²) cells are no new cost
class, since the join's exploration tables already hold (nodes_a x
nodes_b), and beyond ``_CROSS_CELLS`` they are tested in blocks of
rows.  (GIPSY links page tiles, hundreds of them, not nodes, and keeps
the grid hash join.)

Finally the Hilbert values of all node centres are indexed with a
B+-tree so the adaptive walk can pick a start descriptor near any
pivot (Section V, "Adaptive Walk").

Index build cost is charged to the simulated disk like every other
algorithm: element pages, descriptor pages and B+-tree pages are all
allocated through it.

The build is struct-of-arrays and *permutes once*: STR hands back one
permutation of the elements (tiles are consecutive runs of it) and the
partition bounds as arrays; ids and boxes are gathered into that order
a single time, every unit's page MBB comes from one
``minimum/maximum.reduceat`` over the runs, and the permuted run is
validated once and split into element pages that are views of it.  The
node level repeats the pattern over the unit table.  Pages are
allocated in tile order and members/neighbours are listed ascending, so
page ids, descriptors and the connectivity graph are what a
tile-at-a-time build produces — which is what keeps every page-read and
comparison counter of the join unchanged.
"""

from __future__ import annotations

import time

import numpy as np

from repro._types import FloatArray, IntArray

from repro.geometry.box import Box
from repro.geometry.boxes import BoxArray
from repro.geometry.hilbert import hilbert_index_batch
from repro.index.bplustree import BPlusTree
from repro.index.str_pack import str_tiling
from repro.joins.base import Dataset, JoinStats
from repro.core.descriptors import (
    DESCRIPTOR_SIZE,
    NodeDescriptorBlock,
    UnitDescriptorBlock,
)
from repro.storage.disk import SimulatedDisk
from repro.storage.page import ElementPage, element_page_capacity
from repro.vectorize import boxes_overlap, columns

#: Cells of the node cross test computed at a time: all of them while
#: (nodes x nodes) stays below it, else blocks of rows.
_CROSS_CELLS = 1 << 16


class TransformersIndex:
    """The per-dataset index TRANSFORMERS joins over.

    Unlike PBSM's grid partitions, this structure depends only on its
    own dataset — "An index built on one dataset can therefore be
    reused when joining with any other dataset" (Section VII-C1); the
    index-reuse example demonstrates it.
    """

    def __init__(
        self,
        disk: SimulatedDisk,
        dataset_name: str,
        num_elements: int,
        units: UnitDescriptorBlock,
        nodes: NodeDescriptorBlock,
        btree: BPlusTree,
        elements_per_unit: int,
        units_per_node: int,
        space: "Box",
        btree_bits: int,
        node_slack: FloatArray,
    ) -> None:
        self.disk = disk
        self.dataset_name = dataset_name
        self.num_elements = num_elements
        self.units = units
        self.nodes = nodes
        self.btree = btree
        #: Spatial extent the Hilbert keys were quantised over.
        self.space = space
        #: Hilbert lattice resolution used for the B+-tree keys.
        self.btree_bits = btree_bits
        #: Per-axis upper bound on how far any node's tight MBB
        #: overhangs its partition bounds.  Walk/crawl enlarge the
        #: pivot by this slack so that navigating the (gap-free)
        #: partition tiling provably reaches every node whose MBB can
        #: intersect the pivot — the completeness guarantee of the
        #: adaptive exploration.
        self.node_slack = node_slack
        #: nSO in the cost model: elements per (full) space unit.
        self.elements_per_unit = elements_per_unit
        #: nSU in the cost model: space units per (full) space node.
        self.units_per_node = units_per_node

    @property
    def num_units(self) -> int:
        """Number of space units (level 1)."""
        return len(self.units)

    @property
    def num_nodes(self) -> int:
        """Number of space nodes (level 0)."""
        return len(self.nodes)


def build_transformers_index(
    disk: SimulatedDisk,
    dataset: Dataset,
    algorithm_name: str = "TRANSFORMERS",
) -> tuple[TransformersIndex, JoinStats]:
    """Index one dataset (see module docstring for the structure)."""
    start = time.perf_counter()
    io_before = disk.stats.snapshot()
    ndim = dataset.ndim
    space = dataset.boxes.mbb()
    elements_per_unit = element_page_capacity(disk.model.page_size, ndim)
    units_per_node = max(2, disk.model.page_size // DESCRIPTOR_SIZE)

    # ------------------------------------------------------------------
    # Level 1: space units (element pages + descriptors).  The dataset
    # is permuted into STR tile order once; every page is a slice of it.
    # ------------------------------------------------------------------
    order, offsets, u_part_lo, u_part_hi = str_tiling(
        dataset.boxes.centers(), elements_per_unit, space
    )
    n_units = len(offsets) - 1
    ids = dataset.ids[order]
    lo = dataset.boxes.lo[order]
    hi = dataset.boxes.hi[order]
    u_page_lo = columns(np.minimum.reduceat(columns(lo), offsets[:-1], axis=1))
    u_page_hi = columns(np.maximum.reduceat(columns(hi), offsets[:-1], axis=1))
    u_counts = np.diff(offsets).astype(np.int64)
    u_element_pages = np.array(
        disk.allocate_many(ElementPage.split(ids, BoxArray(lo, hi), offsets)),
        dtype=np.int64,
    )

    # ------------------------------------------------------------------
    # Level 0: space nodes (groups of units, gap-free node bounds).
    # Sorting the units by (node, unit id) lines every node's members
    # up as one ascending run.
    # ------------------------------------------------------------------
    unit_centers = (u_part_lo + u_part_hi) / 2.0
    n_order, n_offsets, n_part_lo, n_part_hi = str_tiling(
        unit_centers, units_per_node, space
    )
    n_nodes = len(n_offsets) - 1
    u_parent = np.empty(n_units, dtype=np.intp)
    u_parent[n_order] = np.repeat(
        np.arange(n_nodes, dtype=np.intp), np.diff(n_offsets)
    )
    members = np.argsort(u_parent, kind="stable")
    node_units: list[IntArray] = np.split(members, n_offsets[1:-1])
    n_mbb_lo = np.minimum.reduceat(u_page_lo[members], n_offsets[:-1], axis=0)
    n_mbb_hi = np.maximum.reduceat(u_page_hi[members], n_offsets[:-1], axis=0)
    element_counts = np.add.reduceat(u_counts[members], n_offsets[:-1])
    # One descriptor page per node, holding its unit descriptors.
    desc_page_ids = np.array(
        disk.allocate_many(("unit-descriptors", k) for k in range(n_nodes)),
        dtype=np.int64,
    )

    # ------------------------------------------------------------------
    # Connectivity: self-join on the node partition bounds (gap-free),
    # giving each node the ascending list of its adjacent/overlapping
    # nodes.
    # ------------------------------------------------------------------
    node, neighbor = _self_join(n_part_lo, n_part_hi)
    neighbors: list[IntArray] = np.split(
        neighbor, np.searchsorted(node, np.arange(1, n_nodes))
    )

    # Node descriptors themselves live on a run of metadata pages.
    per_meta_page = max(1, disk.model.page_size // DESCRIPTOR_SIZE)
    meta_page_of = np.arange(n_nodes, dtype=np.intp) // per_meta_page
    n_meta = int(meta_page_of.max()) + 1 if n_nodes else 0
    meta_page_ids = np.array(
        disk.allocate_many(("node-descriptors", m) for m in range(n_meta)),
        dtype=np.int64,
    )

    # ------------------------------------------------------------------
    # B+-tree over Hilbert values of node centres (walk start lookup).
    # ------------------------------------------------------------------
    node_centers = (n_part_lo + n_part_hi) / 2.0
    btree_bits = 10
    hkeys = hilbert_index_batch(node_centers, space, bits=btree_bits)
    btree = BPlusTree.bulk_load(
        disk, [(int(hkeys[k]), k) for k in range(n_nodes)]
    )

    units = UnitDescriptorBlock(
        page_lo=u_page_lo,
        page_hi=u_page_hi,
        part_lo=u_part_lo,
        part_hi=u_part_hi,
        element_page_ids=u_element_pages,
        parent_node=u_parent,
        counts=u_counts,
    )
    nodes = NodeDescriptorBlock(
        mbb_lo=n_mbb_lo,
        mbb_hi=n_mbb_hi,
        part_lo=n_part_lo,
        part_hi=n_part_hi,
        units=node_units,
        neighbors=neighbors,
        desc_page_ids=desc_page_ids,
        meta_page_of=meta_page_of,
        meta_page_ids=meta_page_ids,
        element_counts=element_counts,
    )
    # How far node MBBs overhang their partition bounds (see the
    # TransformersIndex.node_slack docstring).
    if n_nodes:
        overhang_lo = np.maximum(n_part_lo - n_mbb_lo, 0.0).max(axis=0)
        overhang_hi = np.maximum(n_mbb_hi - n_part_hi, 0.0).max(axis=0)
        node_slack = np.maximum(overhang_lo, overhang_hi)
    else:
        node_slack = np.zeros(ndim)
    index = TransformersIndex(
        disk=disk,
        dataset_name=dataset.name,
        num_elements=len(dataset),
        units=units,
        nodes=nodes,
        btree=btree,
        elements_per_unit=elements_per_unit,
        units_per_node=units_per_node,
        space=space,
        btree_bits=btree_bits,
        node_slack=node_slack,
    )
    stats = JoinStats(algorithm=algorithm_name, phase="index")
    stats.absorb_io(disk.stats.delta(io_before))
    stats.wall_seconds = time.perf_counter() - start
    stats.extras["space_units"] = float(n_units)
    stats.extras["space_nodes"] = float(n_nodes)
    return index, stats


def _self_join(lo: FloatArray, hi: FloatArray) -> tuple[IntArray, IntArray]:
    """``(i, j)``, ascending, for every pair of distinct boxes that meet:
    the cross test of the boxes with themselves, diagonal cleared, in
    blocks of rows beyond ``_CROSS_CELLS`` cells."""
    n = len(lo)
    rows = max(1, _CROSS_CELLS // max(n, 1))
    found_i, found_j = [], []
    for first in range(0, max(n, 1), rows):
        hits = boxes_overlap(
            lo[first : first + rows, None], hi[first : first + rows, None],
            lo[None], hi[None],
        )
        own = np.arange(len(hits))
        hits[own, own + first] = False
        i, j = np.nonzero(hits)
        found_i.append(i + first)
        found_j.append(j)
    return np.concatenate(found_i), np.concatenate(found_j)
