"""GIPSY — crawling spatial join for contrasting densities.

Reimplementation of Pavlovic, Tauheed, Heinis & Ailamaki, "GIPSY:
Joining Spatial Datasets with Contrasting Density" (SSDBM '13), the
paper's strongest baseline for sparse ⋈ dense joins.

GIPSY partitions the *dense* dataset data-oriented (STR) into disk
pages and links each partition to its spatial neighbours.  The join
then iterates over the *sparse* dataset element by element: for each
element it *walks* through the dense dataset's neighbourhood graph
towards the element's position and then *crawls* the surrounding
partitions to collect every page that can contain intersecting
elements.  Only those pages are read — which is why GIPSY wins when
the outer dataset is tiny relative to the inner one, and why it loses
when densities are similar: the per-element walking overhead is paid
|outer| times at the finest possible granularity (Section II-A: "The
problem of GIPSY is that it, like other approaches, uses a static
strategy").

Crucially (and unlike TRANSFORMERS) the sparse/dense roles are fixed
before the join starts: "the performance of GIPSY relies on the
ability to predetermine which dataset is dense and which one is
sparse" (Section VIII-A).  We default to using the smaller dataset as
the outer/sparse side, the heuristic a practitioner would use.

GIPSY's pages are TRANSFORMERS' level 1: the same STR element pages
with the same partition bounds, written by
:func:`repro.index.str_pack.write_str_pages`.  Its walk and crawl are
TRANSFORMERS' :func:`~repro.core.walk.adaptive_walk` and
:func:`~repro.core.crawl.adaptive_crawl` over the graph of those pages
(a :class:`~repro.core.descriptors.DescriptorGraph` whose tight MBBs
are the page MBBs), one outer element at a time.

Correctness note: an element's MBB can overhang its partition's bounds
(elements have spatial extent; partitions split between *centres*), so
the crawl expands through every partition whose bounds intersect the
query element *enlarged by the dense dataset's maximum element
extent*.  This makes the candidate set provably complete — the set of
partitions intersecting the enlarged box is face-connected, so the
breadth-first crawl cannot be cut off — while page inclusion still
uses the tight page MBB, keeping the candidate set small.
"""

from __future__ import annotations

import numpy as np

from repro.core.crawl import adaptive_crawl, crawl_masks
from repro.core.descriptors import DescriptorGraph, write_descriptor_pages
from repro.core.walk import adaptive_walk, partition_distances
from repro.geometry.boxes import BoxArray
from repro.index.str_pack import write_str_pages
from repro.joins.base import (
    CostBreakdown,
    CostProfile,
    Dataset,
    JoinStats,
    SpatialJoinAlgorithm,
)
from repro.joins.grid_hash import grid_hash_join
from repro.storage.buffer import BufferPool
from repro.storage.disk import SimulatedDisk
from repro.storage.page import ElementPage, element_page_capacity
from repro.vectorize import boxes_overlap, column_max


class GipsyIndex:
    """GIPSY's per-dataset structure: element pages and their graph.

    ``pages`` is the descriptor graph the walk and crawl navigate: one
    descriptor per element page (``element_page_ids[k]``), with the
    page MBB as its tight box, the gap-free partition bounds and the
    neighbour links; the descriptors live on metadata pages whose reads
    are charged through the join's buffer pool.
    """

    def __init__(
        self,
        disk: SimulatedDisk,
        dataset_name: str,
        num_elements: int,
        element_page_ids: np.ndarray,
        pages: DescriptorGraph,
        max_extent: np.ndarray,
    ) -> None:
        self.disk = disk
        self.dataset_name = dataset_name
        self.num_elements = num_elements
        self.element_page_ids = element_page_ids
        self.pages = pages
        self.max_extent = max_extent

    @property
    def num_partitions(self) -> int:
        """Number of space partitions (= element pages)."""
        return len(self.element_page_ids)


class GipsyJoin(SpatialJoinAlgorithm):
    """GIPSY crawling join with a fixed sparse/dense role assignment.

    Parameters
    ----------
    outer:
        Which indexed dataset drives the join: ``"auto"`` picks the one
        with fewer elements (the practitioner heuristic), ``"a"``/``"b"``
        force a side (used in tests and in the role-sensitivity bench).
    buffer_pages:
        Buffer pool capacity for descriptor and data pages.
    """

    name = "GIPSY"

    def __init__(self, outer: str = "auto", buffer_pages: int = 256) -> None:
        if outer not in ("auto", "a", "b"):
            raise ValueError("outer must be 'auto', 'a' or 'b'")
        if buffer_pages < 1:
            raise ValueError("buffer_pages must be >= 1")
        self.outer = outer
        self.buffer_pages = buffer_pages

    def _build(
        self, disk: SimulatedDisk, dataset: Dataset, stats: JoinStats
    ) -> GipsyIndex:
        """STR pages + partition bounds + neighbour links.

        The pages are TRANSFORMERS' level 1 (its space units' element
        pages and partition bounds, from the same writer); GIPSY links
        partitions whose bounds touch and stores one descriptor per
        page on metadata pages.
        """
        capacity = element_page_capacity(disk.model.page_size, dataset.ndim)
        element_page_ids, _, page_lo, page_hi, part_lo, part_hi = (
            write_str_pages(
                disk, dataset.ids, dataset.boxes, capacity, dataset.boxes.mbb()
            )
        )
        n_pages = len(element_page_ids)

        # Connectivity: self-join on the partition bounds.  Touching
        # counts as intersecting (inclusive tests), so face-adjacent
        # partitions of the gap-free tiling always link up.  Hundreds of
        # pages, so the grid hash join, not TRANSFORMERS' node cross
        # test (see repro.core.indexing).
        part_boxes = BoxArray(part_lo, part_hi)
        pair_idx, _ = grid_hash_join(part_boxes, part_boxes)
        off_diagonal = pair_idx[pair_idx[:, 0] != pair_idx[:, 1]]
        order = np.lexsort((off_diagonal[:, 1], off_diagonal[:, 0]))
        src = off_diagonal[order, 0]
        dst = off_diagonal[order, 1].astype(np.intp)
        neighbors = np.split(dst, np.searchsorted(src, np.arange(1, n_pages)))

        meta_page_of, meta_page_ids = write_descriptor_pages(
            disk, n_pages, "page-descriptors"
        )
        max_extent = (
            column_max(dataset.boxes.extents())
            if len(dataset) > 0
            else np.zeros(dataset.ndim)
        )

        index = GipsyIndex(
            disk=disk,
            dataset_name=dataset.name,
            num_elements=len(dataset),
            element_page_ids=element_page_ids,
            pages=DescriptorGraph(
                mbb_lo=page_lo,
                mbb_hi=page_hi,
                part_lo=part_lo,
                part_hi=part_hi,
                neighbors=neighbors,
                meta_page_of=meta_page_of,
                meta_page_ids=meta_page_ids,
            ),
            max_extent=max_extent,
        )
        stats.extras["partitions"] = float(n_pages)
        return index

    def estimate_join_cost(self, profile: CostProfile) -> CostBreakdown:
        """Predicted cost (calibrated on the contrast-ladder suite).

        The STR build writes ≈1.1 pages per data page.  The join pays
        a *per-outer-element* walk through the inner neighbour graph
        (length growing like the inner page count's ``1/ndim`` root)
        plus the crawl reads, all effectively random — but a dense
        outer side revisits the same neighbourhoods, so the buffer
        pool caps distinct reads at a small multiple of the inner
        pages.  This is the static-strategy cost the paper contrasts
        with TRANSFORMERS: it only pays off when the outer side is
        tiny.
        """
        index_io = (1.1 * profile.pages_total + 25.0) * profile.write_cost
        walk_reads = profile.n_outer * (
            0.5 * profile.pages_inner ** (1.0 / profile.ndim) + 1.0
        )
        join_io = profile.random_read_cost * min(
            walk_reads, 2.5 * profile.pages_inner
        )
        page_side = profile.partition_side(profile.page_capacity)
        est_tests = (
            2.5 * profile.collision(page_side) + 30.0 * profile.n_outer
        )
        join_cpu = est_tests * profile.metadata_test_cost
        return CostBreakdown(
            index_io=index_io,
            join_io=join_io,
            join_cpu=join_cpu,
            est_tests=est_tests,
        )

    # ------------------------------------------------------------------
    # Join
    # ------------------------------------------------------------------
    def _join(
        self, index_a: GipsyIndex, index_b: GipsyIndex, stats: JoinStats
    ) -> list[np.ndarray]:
        """Crawl the dense (inner) dataset guided by the sparse (outer) one."""
        if self.outer == "a":
            outer, inner, flip = index_a, index_b, False
        elif self.outer == "b":
            outer, inner, flip = index_b, index_a, True
        elif index_a.num_elements <= index_b.num_elements:
            outer, inner, flip = index_a, index_b, False
        else:
            outer, inner, flip = index_b, index_a, True

        pool = BufferPool(outer.disk, self.buffer_pages)

        out: list[np.ndarray] = []
        graph = inner.pages
        walk_start = 0  # descriptor locality between consecutive elements
        for outer_page_id in outer.element_page_ids:
            page = pool.read(int(outer_page_id))
            if not isinstance(page, ElementPage):
                raise TypeError("corrupt outer element page")
            # Every element of the page is a pivot: one row each of the
            # walk's distances and the crawl's masks, the pivot enlarged
            # by the inner dataset's maximum element extent.
            e_lo, e_hi = page.boxes.lo, page.boxes.hi
            g_lo, g_hi = e_lo - inner.max_extent, e_hi + inner.max_extent
            distance = partition_distances(graph, g_lo, g_hi).tolist()
            include, expand = crawl_masks(graph, e_lo, e_hi, g_lo, g_hi)
            include_rows, expand_rows = include.tolist(), expand.tolist()
            for e in range(len(page)):
                found = adaptive_walk(graph, walk_start, distance[e], stats, pool)
                if found is None:
                    continue
                walk_start = found
                for part in adaptive_crawl(
                    graph, found, include_rows[e], expand_rows[e], stats, pool
                ):
                    data = pool.read(int(inner.element_page_ids[part]))
                    if not isinstance(data, ElementPage):
                        raise TypeError("corrupt inner element page")
                    stats.intersection_tests += len(data)
                    hit = boxes_overlap(
                        data.boxes.lo, data.boxes.hi, e_lo[e], e_hi[e]
                    )
                    if hit.any():
                        matched = data.ids[hit]
                        mine = np.full(matched.size, page.ids[e], dtype=np.int64)
                        if flip:
                            out.append(np.column_stack((matched, mine)))
                        else:
                            out.append(np.column_stack((mine, matched)))
        stats.extras["outer_dataset_is_a"] = float(not flip)
        return out
