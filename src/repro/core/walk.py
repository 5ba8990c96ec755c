"""Adaptive Walk — Algorithm 1 of the paper.

Given a pivot (a box from the guide dataset) and a start descriptor in
the follower dataset, the walk moves through the follower's node
connectivity graph, always towards the descriptor whose partition MBB
is closest to the pivot, until it finds one that intersects the pivot
— or until it can no longer get closer, which (because the partition
MBBs tile the dataset's space without gaps) proves that no follower
partition intersects the pivot.

The no-local-minima property the termination rule relies on: if the
closest descriptor's partition has positive distance to the pivot box,
the straight segment from its closest point to the pivot immediately
leaves that partition into an adjacent one containing strictly closer
points; adjacency is inclusive (touching counts), so that partition is
in the neighbour list.  Hence greedy descent either reaches distance
zero or the pivot intersects nothing.

A node's distance to the pivot depends on the two boxes alone, not on
the path that reached the node, so it is computed ahead of the walk:
:func:`partition_distances` fills one row per pivot — the join fills a
(guide nodes x follower nodes) table once per direction, a range query
its one row — and :func:`adaptive_walk` only looks its row up.  The
walk's visits, metadata comparisons and descriptor reads are those of
a walk that measures every neighbour as it meets it
(``tests/test_core_walk_crawl.py`` keeps that form as the reference).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro._types import FloatArray

from repro.core.indexing import TransformersIndex
from repro.joins.base import JoinStats
from repro.storage.buffer import BufferPool


def partition_distances(
    index: TransformersIndex, q_lo: FloatArray, q_hi: FloatArray
) -> FloatArray:
    """The Euclidean gap between a query box and each node's partition
    MBB: a ``(num_nodes,)`` row for one ``(d,)`` box, a ``(len(q_lo),
    num_nodes)`` table for a ``(k, d)`` stack of boxes.
    """
    below = np.maximum(q_lo[..., None, :] - index.nodes.part_hi, 0.0)
    above = np.maximum(index.nodes.part_lo - q_hi[..., None, :], 0.0)
    gap = np.maximum(below, above)
    table: FloatArray = np.sqrt(np.sum(gap * gap, axis=-1))
    return table


def touch_node_meta(
    index: TransformersIndex, node: int, pool: BufferPool
) -> None:
    """Charge the read of the metadata page holding ``node``'s descriptor."""
    pool.read(int(index.nodes.meta_page_ids[index.nodes.meta_page_of[node]]))


def adaptive_walk(
    index: TransformersIndex,
    start: int,
    distance: Sequence[float],
    stats: JoinStats,
    pool: BufferPool,
) -> int | None:
    """Walk the node graph of ``index`` towards the query box.

    Parameters
    ----------
    index:
        The follower dataset's index.
    start:
        Node to start from (previous walk position, or a B+-tree hit).
    distance:
        Each node's distance to the query box: a row of
        :func:`partition_distances` for the pivot box enlarged by the
        follower's maximum element extent (see :mod:`repro.core.crawl`
        for why).
    stats:
        Metadata comparisons are counted here.
    pool:
        Buffer pool through which descriptor reads are charged.

    Returns
    -------
    The first node whose partition MBB intersects the box, or ``None``
    when provably no node does.
    """
    if index.num_nodes == 0:
        return None
    neighbors = index.nodes.neighbors
    current = int(start)
    touch_node_meta(index, current, pool)
    stats.metadata_comparisons += 1
    current_dist = distance[current]
    while current_dist > 0.0:
        best = -1
        best_dist = current_dist
        around = neighbors[current].tolist()
        stats.metadata_comparisons += len(around)
        for nb in around:
            d = distance[nb]
            if d < best_dist:
                best = nb
                best_dist = d
        if best < 0:
            # Moving away from the pivot: Algorithm 1's termination —
            # the pivot "does not intersect with any element of
            # follower".
            return None
        touch_node_meta(index, best, pool)
        current = best
        current_dist = best_dist
    return current
