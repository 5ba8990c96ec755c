"""Spatial range queries over a TRANSFORMERS index.

The index TRANSFORMERS builds (Section IV) is not join-specific: the
walk/crawl machinery answers classic range queries too — this is the
crawling idea's origin (Tauheed et al., "Accelerating Range Queries For
Brain Simulations", ICDE '12, the paper's reference [8]).  Supporting
stand-alone range queries demonstrates the index-reuse argument of
Section VII-C1 beyond joins.

The query walks to the region, crawls the candidate nodes, filters
space units by page MBB, reads only the surviving pages and tests the
elements — the same selective-retrieval path the join uses, with the
walk's and the crawl's tables built for the one query box.
"""

from __future__ import annotations

import numpy as np

from repro._types import BoolArray, IntArray

from repro.core.crawl import adaptive_crawl, candidate_units, crawl_masks
from repro.core.indexing import TransformersIndex
from repro.core.walk import adaptive_walk, partition_distances
from repro.geometry.box import Box
from repro.geometry.hilbert import hilbert_index_batch
from repro.joins.base import JoinStats
from repro.storage.buffer import BufferPool
from repro.storage.page import ElementPage
from repro.vectorize import boxes_overlap


def range_query(
    index: TransformersIndex,
    query: Box,
    pool: BufferPool,
    stats: JoinStats | None = None,
) -> IntArray:
    """Ids of all elements whose MBB intersects ``query``.

    Parameters
    ----------
    index:
        A :class:`~repro.core.indexing.TransformersIndex`.
    query:
        The query box (same dimensionality as the indexed data).
    pool:
        Buffer pool through which all page reads are charged.
    stats:
        Optional stats sink; metadata comparisons and intersection
        tests are accumulated there.

    Returns a sorted ``(k,)`` int64 array of element ids.

    >>> from repro.core import TransformersJoin
    >>> from repro.datagen import uniform_dataset, scaled_space
    >>> from repro.storage import SimulatedDisk
    >>> space = scaled_space(400)
    >>> data = uniform_dataset(400, seed=3, name="d", space=space)
    >>> disk = SimulatedDisk()
    >>> idx, _ = TransformersJoin().build_index(disk, data)
    >>> hits = range_query(idx, space, BufferPool(disk))
    >>> len(hits) == 400
    True
    """
    if query.ndim != index.units.page_lo.shape[1]:
        raise ValueError("query dimensionality mismatch")
    if stats is None:
        stats = JoinStats(algorithm="RANGE-QUERY")

    e_lo = np.asarray(query.lo, dtype=np.float64)
    e_hi = np.asarray(query.hi, dtype=np.float64)
    g_lo = e_lo - index.node_slack
    g_hi = e_hi + index.node_slack

    # Start descriptor via the Hilbert B+-tree, like the join's walk.
    center = (e_lo + e_hi) / 2.0
    key = int(
        hilbert_index_batch(
            center.reshape(1, -1), index.space, bits=index.btree_bits
        )[0]
    )
    _, start = index.btree.nearest(key, pool)
    graph = index.nodes
    distance = partition_distances(graph, g_lo, g_hi).tolist()
    found = adaptive_walk(graph, int(start), distance, stats, pool)
    if found is None:
        return np.empty(0, dtype=np.int64)

    include, expand = crawl_masks(graph, e_lo, e_hi, g_lo, g_hi)
    nodes = adaptive_crawl(
        graph, found, include.tolist(), expand.tolist(), stats, pool
    )

    def meets_query(members: IntArray) -> BoolArray:
        return boxes_overlap(
            index.units.page_lo.take(members, axis=0),
            index.units.page_hi.take(members, axis=0),
            e_lo,
            e_hi,
        )

    units = candidate_units(index, nodes, meets_query, stats, pool)
    pages, _ = pool.read_many(
        np.sort(index.units.element_page_ids[units]).tolist(), ElementPage
    )
    if not pages:
        return np.empty(0, dtype=np.int64)
    ids, lo, hi = ElementPage.gather_columns([ElementPage.row_ranges(pages)])
    stats.intersection_tests += len(ids)
    return np.sort(ids[boxes_overlap(lo.T, hi.T, e_lo, e_hi)])
