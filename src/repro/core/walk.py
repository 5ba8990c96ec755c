"""Adaptive Walk — Algorithm 1 of the paper.

Given a pivot (a box from the guide dataset) and a start descriptor in
the follower dataset, the walk moves through the follower's descriptor
graph (:class:`~repro.core.descriptors.DescriptorGraph`), always
towards the descriptor whose partition MBB is closest to the pivot,
until it finds one that intersects the pivot — or until it can no
longer get closer, which (because the partition MBBs tile the
dataset's space without gaps) proves that no follower partition
intersects the pivot.  GIPSY's walk from one outer element to the next
is this walk over its graph of element pages (Algorithm 1 generalises
it).

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
(guide nodes x follower nodes) table once per direction, GIPSY one
(elements x pages) table per outer page, a range query its one row —
and :func:`adaptive_walk` only looks its row up.  The walk's visits,
metadata comparisons and descriptor reads are those of a walk that
measures every neighbour as it meets it
(``tests/test_core_walk_crawl.py`` keeps that form as the reference);
the metadata pages of the visited nodes are read in one
:meth:`~repro.storage.buffer.BufferPool.read_many` when the walk stops,
in visit order — nothing else reads between, so the pool and the disk
see the sequence a read per visit makes.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro._types import FloatArray

from repro.core.descriptors import DescriptorGraph
from repro.joins.base import JoinStats
from repro.storage.buffer import BufferPool


def partition_distances(
    graph: DescriptorGraph, q_lo: FloatArray, q_hi: FloatArray
) -> FloatArray:
    """The Euclidean gap between a query box and each node's partition
    MBB: a ``(len(graph),)`` row for one ``(d,)`` box, a ``(len(q_lo),
    len(graph))`` table for a ``(k, d)`` stack of boxes.
    """
    below = np.maximum(q_lo[..., None, :] - graph.part_hi, 0.0)
    above = np.maximum(graph.part_lo - q_hi[..., None, :], 0.0)
    gap = np.maximum(below, above)
    table: FloatArray = np.sqrt(np.sum(gap * gap, axis=-1))
    return table


def adaptive_walk(
    graph: DescriptorGraph,
    start: int,
    distance: Sequence[float],
    stats: JoinStats,
    pool: BufferPool,
) -> int | None:
    """Walk ``graph`` towards the query box.

    Parameters
    ----------
    graph:
        The follower dataset's descriptor graph: TRANSFORMERS' space
        nodes, or GIPSY's element pages.
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
    if len(graph) == 0:
        return None
    neighbors = graph.neighbors
    current = int(start)
    found: int | None = current
    path = [current]
    comparisons = 1
    current_dist = distance[current]
    while current_dist > 0.0:
        best = -1
        best_dist = current_dist
        around = neighbors[current].tolist()
        comparisons += len(around)
        for nb in around:
            d = distance[nb]
            if d < best_dist:
                best = nb
                best_dist = d
        if best < 0:
            # Moving away from the pivot: Algorithm 1's termination —
            # the pivot "does not intersect with any element of
            # follower".
            found = None
            break
        path.append(best)
        found = current = best
        current_dist = best_dist
    stats.metadata_comparisons += comparisons
    pool.read_many(map(graph.meta_pages.__getitem__, path))
    return found
