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
to the node, so the crawl is *mask, then traverse*: two reductions over
the whole node table answer "include?" and "expand?" for every node of
the follower at once, and the stack traversal that follows only looks
booleans up.  The traversal itself is the element-at-a-time one — same
stack discipline, one logical metadata comparison per visited node and
per tested neighbour, one descriptor read per visit — so candidates
come back in the same visit order, and the comparison counter and the
buffer pool see exactly what a per-candidate implementation would show
them (``tests/test_core_walk_crawl.py`` keeps that implementation as
the reference).  :func:`candidate_units` is batched the same way: the
descriptor pages are read node by node, the page-MBB filter runs once
over all their units.
"""

from __future__ import annotations

from collections.abc import Container

import numpy as np

from repro._types import FloatArray, IntArray

from repro.core.indexing import TransformersIndex
from repro.core.walk import touch_node_meta
from repro.joins.base import JoinStats
from repro.storage.buffer import BufferPool
from repro.vectorize import boxes_overlap


def adaptive_crawl(
    index: TransformersIndex,
    start: int,
    e_lo: FloatArray,
    e_hi: FloatArray,
    g_lo: FloatArray,
    g_hi: FloatArray,
    stats: JoinStats,
    pool: BufferPool,
    skip: Container[int] = frozenset(),
) -> list[int]:
    """Collect candidate follower nodes around ``start``.

    Parameters
    ----------
    e_lo, e_hi:
        The pivot box (tight).
    g_lo, g_hi:
        The pivot box enlarged by the follower's max element extent.
    skip:
        Nodes to leave out of the candidate set (already-checked nodes
        whose result pairs were reported when *they* were pivots —
        the to-do-list optimisation of Algorithm 2).  Skipped nodes are
        still expanded *through*, so the crawl's connectivity is not
        broken by holes of checked nodes.

    Returns candidate node indices in visit order.
    """
    nodes = index.nodes
    include = boxes_overlap(nodes.mbb_lo, nodes.mbb_hi, e_lo, e_hi).tolist()
    expand = boxes_overlap(nodes.part_lo, nodes.part_hi, g_lo, g_hi).tolist()
    candidates: list[int] = []
    seen = {int(start)}
    queue = [int(start)]
    while queue:
        node = queue.pop()
        touch_node_meta(index, node, pool)
        stats.metadata_comparisons += 1
        if node not in skip and include[node]:
            candidates.append(node)
        for nb in nodes.neighbors[node].tolist():
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
