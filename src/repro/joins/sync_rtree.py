"""Synchronized R-tree traversal join (Brinkhoff, Kriegel & Seeger, SIGMOD '93).

The classic data-oriented partitioning join: both datasets are indexed
with an R-tree (bulk-loaded with STR, paper Section VII-A), and the
join descends the two trees in lockstep, recursing into every pair of
child subtrees whose MBBs intersect.  At the leaf level the element
sets are joined with an in-memory plane sweep.

Its weakness — the reason the paper's Figure 1 shows it dominated
everywhere — is *structural overlap*: sibling MBBs overlap, so many
(node_a, node_b) pairs intersect without containing any result pairs,
inflating both page reads and comparisons ("The R-TREE join suffers
from overlap at tree level and therefore performs on average 21 times
more comparisons", Section VII-C3).
"""

from __future__ import annotations

import time

import numpy as np

from repro.index.rtree import RTree
from repro.joins.base import (
    CostBreakdown,
    CostProfile,
    Dataset,
    JoinResult,
    JoinStats,
    SpatialJoinAlgorithm,
    canonical_pairs,
)
from repro.joins.plane_sweep import plane_sweep_join
from repro.storage.buffer import BufferPool
from repro.storage.disk import SimulatedDisk
from repro.storage.page import ElementPage


class SynchronizedRTreeJoin(SpatialJoinAlgorithm):
    """Join two STR bulk-loaded R-trees by synchronized traversal.

    Parameters
    ----------
    buffer_pages:
        Capacity of each tree's buffer pool during the join.  The upper
        tree levels fit in the pool, so inner-node re-reads are cheap,
        while leaf reads dominate the I/O — matching the behaviour of a
        real system with a warm directory and cold data.
    """

    name = "R-TREE"

    def __init__(self, buffer_pages: int = 256) -> None:
        if buffer_pages < 1:
            raise ValueError("buffer_pages must be >= 1")
        self.buffer_pages = buffer_pages

    # ------------------------------------------------------------------
    # Index phase
    # ------------------------------------------------------------------
    def build_index(
        self, disk: SimulatedDisk, dataset: Dataset
    ) -> tuple[RTree, JoinStats]:
        """Bulk-load an R-tree over the dataset."""
        start = time.perf_counter()
        io_before = disk.stats.snapshot()
        tree = RTree.bulk_load(disk, dataset.ids, dataset.boxes)
        stats = JoinStats(algorithm=self.name, phase="index")
        stats.absorb_io(disk.stats.delta(io_before))
        stats.wall_seconds = time.perf_counter() - start
        stats.extras["height"] = float(tree.height)
        stats.extras["leaf_pages"] = float(len(tree.leaf_pages))
        return tree, stats

    def estimate_join_cost(self, profile: CostProfile) -> CostBreakdown:
        """Predicted cost (calibrated on the pinned uniform suite).

        Structural overlap makes the synchronized descent visit far
        more node pairs than results justify: the pinned runs measure
        ≈1.2 reads per data page, almost all random, and the traversal
        covers a large share of both trees even when one side is tiny
        (a small MBB still intersects subtrees everywhere it sits).
        Comparison counts are inflated ~1.8× over the leaf-level
        collision estimate by those node-pair tests.
        """
        index_io = 1.2 * profile.pages_total * profile.write_cost
        covered = 0.4 * profile.pages_total + 0.6 * profile.active_pages_total
        blend = (
            0.3 * profile.seq_read_cost + 1.18 * profile.random_read_cost
        )
        join_io = blend * covered
        leaf_side = profile.partition_side(profile.page_capacity)
        est_tests = 1.8 * profile.collision(leaf_side)
        join_cpu = est_tests * profile.intersection_test_cost
        return CostBreakdown(
            index_io=index_io,
            join_io=join_io,
            join_cpu=join_cpu,
            est_tests=est_tests,
        )

    # ------------------------------------------------------------------
    # Join phase
    # ------------------------------------------------------------------
    def join(self, index_a: RTree, index_b: RTree) -> JoinResult:
        """Depth-first synchronized traversal of the two trees."""
        a, b = index_a, index_b
        if a.disk is not b.disk:
            raise ValueError("both trees must live on the same disk")
        disk = a.disk
        start = time.perf_counter()
        io_before = disk.stats.snapshot()
        stats = JoinStats(algorithm=self.name, phase="join")
        pool_a = BufferPool(disk, self.buffer_pages)
        pool_b = BufferPool(disk, self.buffer_pages)

        out: list[np.ndarray] = []
        stack: list[tuple[int, int]] = [(a.root_page, b.root_page)]
        while stack:
            page_a, page_b = stack.pop()
            node_a = a.read_node(pool_a, page_a)
            node_b = b.read_node(pool_b, page_b)
            a_is_leaf = isinstance(node_a, ElementPage)
            b_is_leaf = isinstance(node_b, ElementPage)
            if a_is_leaf and b_is_leaf:
                pairs_idx, tests = plane_sweep_join(node_a.boxes, node_b.boxes)
                stats.intersection_tests += tests
                if pairs_idx.size:
                    out.append(
                        np.column_stack(
                            (
                                node_a.ids[pairs_idx[:, 0]],
                                node_b.ids[pairs_idx[:, 1]],
                            )
                        )
                    )
            elif a_is_leaf:
                # Descend only the deeper tree: test the leaf's MBB
                # against b's children.
                leaf_mbb = node_a.boxes.mbb()
                mask = node_b.child_boxes.intersects_box(leaf_mbb)
                stats.metadata_comparisons += len(node_b)
                for i in np.nonzero(mask)[0]:
                    stack.append((page_a, node_b.children[int(i)]))
            elif b_is_leaf:
                leaf_mbb = node_b.boxes.mbb()
                mask = node_a.child_boxes.intersects_box(leaf_mbb)
                stats.metadata_comparisons += len(node_a)
                for i in np.nonzero(mask)[0]:
                    stack.append((node_a.children[int(i)], page_b))
            else:
                # Both internal: every intersecting child pair recurses.
                pairs_idx = node_a.child_boxes.pairwise_intersections(
                    node_b.child_boxes
                )
                stats.metadata_comparisons += len(node_a) * len(node_b)
                for ia, ib in pairs_idx:
                    stack.append(
                        (node_a.children[int(ia)], node_b.children[int(ib)])
                    )

        pairs = (
            canonical_pairs(np.concatenate(out))
            if out
            else np.empty((0, 2), dtype=np.int64)
        )
        stats.pairs_found = len(pairs)
        stats.absorb_io(disk.stats.delta(io_before))
        stats.wall_seconds = time.perf_counter() - start
        stats.extras["buffer_hits"] = float(pool_a.hits + pool_b.hits)
        return JoinResult(pairs=pairs, stats=stats)
