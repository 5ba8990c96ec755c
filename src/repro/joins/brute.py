"""Brute-force nested-loop join — the correctness oracle.

Every other algorithm in the repository is tested (including
property-based tests) against this one: the filter step of a spatial
join has exactly one correct answer, the set of id pairs whose MBBs
intersect, and this module computes it by exhaustive comparison.

It is also a legitimate (terrible) baseline: O(|A|·|B|) comparisons
with both datasets scanned sequentially.
"""

from __future__ import annotations

import time

import numpy as np

from repro.joins.base import Dataset, JoinResult, JoinStats, SpatialJoinAlgorithm
from repro.storage.disk import SimulatedDisk


def brute_force_pairs(a: Dataset, b: Dataset) -> np.ndarray:
    """All ``(id_a, id_b)`` with intersecting MBBs, sorted, deduplicated."""
    idx = a.boxes.pairwise_intersections(b.boxes)
    if idx.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    pairs = np.column_stack((a.ids[idx[:, 0]], b.ids[idx[:, 1]]))
    return np.unique(pairs, axis=0)


class BruteForceJoin(SpatialJoinAlgorithm):
    """Oracle join with the standard result/stats shape.

    The oracle has no index: :meth:`build_index` hands the dataset
    itself back as the handle (zero pages written), so :meth:`join`
    takes :class:`~repro.joins.base.Dataset` objects directly.  It
    keeps its own :meth:`join`: its pairs are the reference every other
    algorithm's canonical pairs are compared with, so they never pass
    through :func:`~repro.joins.base.canonical_pairs`.
    """

    name = "BRUTE"

    def _build(
        self, disk: SimulatedDisk, dataset: Dataset, stats: JoinStats
    ) -> Dataset:
        """The dataset itself; nothing is written."""
        return dataset

    def join(self, a: Dataset, b: Dataset) -> JoinResult:
        """Exhaustively compare every pair of elements."""
        start = time.perf_counter()
        pairs = brute_force_pairs(a, b)
        stats = JoinStats(
            algorithm=self.name,
            phase="join",
            pairs_found=len(pairs),
            intersection_tests=len(a) * len(b),
            wall_seconds=time.perf_counter() - start,
        )
        return JoinResult(pairs=pairs, stats=stats)
