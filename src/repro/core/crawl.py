"""Adaptive Crawling: candidate-set collection around an intersection.

Once the walk lands on a follower node intersecting the pivot, the
crawl phase "recursively visits all neighbors until no more elements
intersecting with p can be found" (Section V), producing the candidate
set for the in-memory join.

Two boxes play a role, mirroring the paper's page-MBB/partition-MBB
distinction:

* **expansion** follows neighbours whose *partition* MBB intersects the
  pivot box *enlarged by the follower's maximum element extent*.  The
  enlargement guarantees completeness: an element can overhang its
  partition (partitions split between element *centres*) by at most
  one element extent, so every node whose tight MBB could intersect
  the pivot has its partition inside the enlarged box, and the set of
  partitions intersecting an axis-aligned box is face-connected — the
  breadth-first expansion cannot be cut off;
* **inclusion** in the candidate set requires the node's tight *node
  MBB* (the union of its units' page MBBs) to intersect the pivot box
  itself, keeping the candidate set small.

Both tests depend only on the node and the pivot, not on the path taken
to the node, so the crawl is *tables, then traverse*:
:func:`crawl_masks` answers "include?" and "expand?" for every (pivot,
node) pair of a stack of pivots in two reductions — the join stacks
every guide node of one direction and computes its tables once, a range
query stacks its one box — and :func:`adaptive_crawl` takes one pivot's
rows and only looks booleans up.  The traversal itself is the
element-at-a-time one — same stack discipline, one logical metadata
comparison per visited node and per tested neighbour, one descriptor
read per visit — so candidates come back in the same visit order, and
the comparison counter and the buffer pool see exactly what a
per-candidate implementation would show them
(``tests/test_core_walk_crawl.py`` keeps that implementation as the
reference).  :func:`candidate_units` is batched the same way: the
descriptor pages are read node by node, the page-MBB filter runs once
over all their units.
"""

from __future__ import annotations

from collections.abc import Container, Sequence

import numpy as np

from repro._types import BoolArray, FloatArray, IntArray

from repro.core.indexing import TransformersIndex
from repro.core.walk import touch_node_meta
from repro.joins.base import JoinStats
from repro.storage.buffer import BufferPool
from repro.vectorize import boxes_overlap


def crawl_masks(
    index: TransformersIndex,
    e_lo: FloatArray,
    e_hi: FloatArray,
    g_lo: FloatArray,
    g_hi: FloatArray,
) -> tuple[BoolArray, BoolArray]:
    """``(include, expand)``: does each node's tight MBB meet the pivot
    box ``e``, does its partition MBB meet the enlarged box ``g``?

    One ``(d,)`` pivot gives two ``(num_nodes,)`` rows; a ``(k, d)``
    stack of pivots (rows of the four bound arrays) gives two
    ``(k, num_nodes)`` tables, row ``k`` for pivot ``k``.
    """
    nodes = index.nodes
    include = boxes_overlap(
        nodes.mbb_lo, nodes.mbb_hi, e_lo[..., None, :], e_hi[..., None, :]
    )
    expand = boxes_overlap(
        nodes.part_lo, nodes.part_hi, g_lo[..., None, :], g_hi[..., None, :]
    )
    return include, expand


def adaptive_crawl(
    index: TransformersIndex,
    start: int,
    include: Sequence[bool],
    expand: Sequence[bool],
    stats: JoinStats,
    pool: BufferPool,
    skip: Container[int] = frozenset(),
) -> list[int]:
    """Collect candidate follower nodes around ``start``.

    Parameters
    ----------
    include, expand:
        One pivot's rows of :func:`crawl_masks`: does each node's MBB
        meet the pivot box, does its partition meet the pivot box
        enlarged by the follower's max element extent?
    skip:
        Nodes to leave out of the candidate set (already-checked nodes
        whose result pairs were reported when *they* were pivots —
        the to-do-list optimisation of Algorithm 2).  Skipped nodes are
        still expanded *through*, so the crawl's connectivity is not
        broken by holes of checked nodes.

    Returns candidate node indices in visit order.
    """
    neighbors = index.nodes.neighbors
    candidates: list[int] = []
    seen = {int(start)}
    queue = [int(start)]
    while queue:
        node = queue.pop()
        touch_node_meta(index, node, pool)
        stats.metadata_comparisons += 1
        if node not in skip and include[node]:
            candidates.append(node)
        for nb in neighbors[node].tolist():
            if nb in seen:
                continue
            stats.metadata_comparisons += 1
            if expand[nb]:
                seen.add(nb)
                queue.append(nb)
    return candidates


def candidate_units(
    index: TransformersIndex,
    nodes: list[int],
    q_lo: FloatArray,
    q_hi: FloatArray,
    stats: JoinStats,
    pool: BufferPool,
) -> IntArray:
    """Units of the given nodes whose page MBB intersects the query box.

    Reads each node's unit-descriptor page (charged through the pool)
    and filters its units' page MBBs — the "filters elements before the
    in-memory join" step of Section V.
    """
    if not nodes:
        return np.empty(0, dtype=np.intp)
    for node in nodes:
        pool.read(int(index.nodes.desc_page_ids[node]))
    members = np.concatenate([index.nodes.units[node] for node in nodes])
    stats.metadata_comparisons += len(members)
    hit = boxes_overlap(
        np.take(index.units.page_lo, members, axis=0),
        np.take(index.units.page_hi, members, axis=0),
        q_lo,
        q_hi,
    )
    return members[hit]
