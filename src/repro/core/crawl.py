"""Adaptive Crawling: candidate-set collection around an intersection.

Once the walk lands on a follower node intersecting the pivot, the
crawl phase "recursively visits all neighbors until no more elements
intersecting with p can be found" (Section V), producing the candidate
set for the in-memory join.  It crawls any
:class:`~repro.core.descriptors.DescriptorGraph`: TRANSFORMERS' space
nodes, and GIPSY's element pages around one outer element.

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
reference).  The visits' metadata pages are read in one
:meth:`~repro.storage.buffer.BufferPool.read_many` once the crawl ends,
in visit order: nothing reads in between, so that is the sequence of a
read per visit.  :func:`candidate_units` is batched the same way: its
nodes' descriptor pages are read in one run, in node order, and its
page-MBB filter is one call over all their units: the join looks them
up in the pivot's row of :func:`unit_masks` (computed for every guide
node with the crawl's tables), a range query tests them against its
box.
"""

from __future__ import annotations

from collections.abc import Callable, Container, Sequence

import numpy as np

from repro._types import BoolArray, FloatArray, IntArray

from repro.core.descriptors import DescriptorGraph, UnitDescriptorBlock
from repro.core.indexing import TransformersIndex
from repro.joins.base import JoinStats
from repro.storage.buffer import BufferPool
from repro.vectorize import boxes_overlap


def crawl_masks(
    graph: DescriptorGraph,
    e_lo: FloatArray,
    e_hi: FloatArray,
    g_lo: FloatArray,
    g_hi: FloatArray,
) -> tuple[BoolArray, BoolArray]:
    """``(include, expand)``: does each node's tight MBB meet the pivot
    box ``e``, does its partition MBB meet the enlarged box ``g``?

    One ``(d,)`` pivot gives two ``(len(graph),)`` rows; a ``(k, d)``
    stack of pivots (rows of the four bound arrays) gives two
    ``(k, len(graph))`` tables, row ``k`` for pivot ``k``.
    """
    include = boxes_overlap(
        graph.mbb_lo, graph.mbb_hi, e_lo[..., None, :], e_hi[..., None, :]
    )
    expand = boxes_overlap(
        graph.part_lo, graph.part_hi, g_lo[..., None, :], g_hi[..., None, :]
    )
    return include, expand


def adaptive_crawl(
    graph: DescriptorGraph,
    start: int,
    include: Sequence[bool],
    expand: Sequence[bool],
    stats: JoinStats,
    pool: BufferPool,
    skip: Container[int] = frozenset(),
) -> list[int]:
    """Collect candidate follower nodes of ``graph`` around ``start``.

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
    neighbors = graph.neighbors
    candidates: list[int] = []
    visits: list[int] = []
    comparisons = 0
    seen = {int(start)}
    queue = [int(start)]
    while queue:
        node = queue.pop()
        visits.append(node)
        comparisons += 1
        if node not in skip and include[node]:
            candidates.append(node)
        for nb in neighbors[node].tolist():
            if nb in seen:
                continue
            comparisons += 1
            if expand[nb]:
                seen.add(nb)
                queue.append(nb)
    stats.metadata_comparisons += comparisons
    pool.read_many(map(graph.meta_pages.__getitem__, visits))
    return candidates


def unit_masks(
    units: UnitDescriptorBlock,
    e_lo: FloatArray,
    e_hi: FloatArray,
    include: BoolArray,
) -> BoolArray:
    """Does each unit's page MBB meet the pivot box ``e``?

    ``include`` is the pivot's row of :func:`crawl_masks` over the
    units' nodes (a ``(k, d)`` stack of pivots passes its ``(k, nodes)``
    table and gets a ``(k, len(units))`` one).  A unit's page MBB lies
    inside its node's MBB, so only the units of included nodes are
    tested; every other unit's answer is ``False`` without a test.
    """
    table = np.atleast_2d(include).take(units.parent_node, axis=1)
    tested = np.flatnonzero(table)
    pivot, member = np.divmod(tested, len(units))
    table.ravel()[tested] = boxes_overlap(
        units.page_lo.take(member, axis=0),
        units.page_hi.take(member, axis=0),
        np.atleast_2d(e_lo).take(pivot, axis=0),
        np.atleast_2d(e_hi).take(pivot, axis=0),
    )
    hit: BoolArray = table.reshape(include.shape[:-1] + (len(units),))
    return hit


def candidate_units(
    index: TransformersIndex,
    nodes: list[int],
    unit_hit: Callable[[IntArray], BoolArray],
    stats: JoinStats,
    pool: BufferPool,
) -> IntArray:
    """Units of the given nodes whose page MBB intersects the query box.

    Reads each node's unit-descriptor page (charged through the pool)
    and filters its units by their page MBBs — the "filters elements
    before the in-memory join" step of Section V — counting one
    comparison per unit; ``unit_hit`` maps the units to the outcomes
    (the ``take`` of the pivot's row of :func:`unit_masks`, or a test
    against the query box).
    """
    if not nodes:
        return np.empty(0, dtype=np.intp)
    pool.read_many(index.nodes.desc_page_ids[nodes].tolist())
    members = np.concatenate(list(map(index.nodes.units.__getitem__, nodes)))
    stats.metadata_comparisons += len(members)
    found: IntArray = members.compress(unit_hit(members))
    return found
