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

import time

import numpy as np

from repro.geometry.boxes import BoxArray
from repro.index.str_pack import str_partition_with_bounds
from repro.joins.base import (
    CostBreakdown,
    CostProfile,
    Dataset,
    JoinResult,
    JoinStats,
    SpatialJoinAlgorithm,
    canonical_pairs,
)
from repro.joins.grid_hash import grid_hash_join
from repro.storage.buffer import BufferPool
from repro.storage.disk import SimulatedDisk
from repro.storage.page import ElementPage, element_page_capacity
from repro.vectorize import boxes_overlap, column_max

#: Approximate bytes of one space descriptor on a metadata page: two
#: MBBs (page + partition, float32 corners), a page pointer and a
#: bounded neighbour list.  Kept equal to TRANSFORMERS' descriptor
#: size (repro.core.descriptors) for a fair comparison.
DESCRIPTOR_SIZE = 64


class GipsyIndex:
    """GIPSY's per-dataset structure: pages, descriptors, neighbour links.

    Descriptor arrays are kept as numpy blocks for fast distance math;
    the descriptors notionally live on metadata pages (``meta_page_of``
    maps descriptor -> page) and reads are charged through the join's
    buffer pool.
    """

    def __init__(
        self,
        disk: SimulatedDisk,
        dataset_name: str,
        num_elements: int,
        element_page_ids: np.ndarray,
        page_lo: np.ndarray,
        page_hi: np.ndarray,
        part_lo: np.ndarray,
        part_hi: np.ndarray,
        neighbors: list[np.ndarray],
        meta_page_of: np.ndarray,
        meta_page_ids: np.ndarray,
        max_extent: np.ndarray,
    ) -> None:
        self.disk = disk
        self.dataset_name = dataset_name
        self.num_elements = num_elements
        self.element_page_ids = element_page_ids
        self.page_lo = page_lo
        self.page_hi = page_hi
        self.part_lo = part_lo
        self.part_hi = part_hi
        self.neighbors = neighbors
        self.meta_page_of = meta_page_of
        self.meta_page_ids = meta_page_ids
        self.max_extent = max_extent

    @property
    def num_partitions(self) -> int:
        """Number of space partitions (= element pages)."""
        return len(self.element_page_ids)


def build_partitioned_index(
    disk: SimulatedDisk,
    dataset: Dataset,
    algorithm_name: str,
) -> tuple[GipsyIndex, JoinStats]:
    """Shared builder: STR pages + partition bounds + neighbour links.

    Used by GIPSY here and (with different grouping on top) mirrored by
    TRANSFORMERS' indexer: partition the elements into page-sized STR
    tiles, compute gap-free partition bounds, link partitions whose
    bounds touch, and store descriptors on metadata pages.
    """
    start = time.perf_counter()
    io_before = disk.stats.snapshot()
    ndim = dataset.ndim
    capacity = element_page_capacity(disk.model.page_size, ndim)
    space = dataset.boxes.mbb()
    tiles, bounds = str_partition_with_bounds(
        dataset.boxes.centers(), capacity, space
    )

    element_page_ids = np.empty(len(tiles), dtype=np.int64)
    page_lo = np.empty((len(tiles), ndim))
    page_hi = np.empty((len(tiles), ndim))
    part_lo = np.empty((len(tiles), ndim))
    part_hi = np.empty((len(tiles), ndim))
    for t, tile in enumerate(tiles):
        page = ElementPage(dataset.ids[tile], dataset.boxes.take(tile))
        element_page_ids[t] = disk.allocate(page)
        mbb = page.boxes.mbb()
        page_lo[t], page_hi[t] = mbb.lo, mbb.hi
        part_lo[t], part_hi[t] = bounds[t].lo, bounds[t].hi

    # Connectivity: self-join on the partition bounds.  Touching counts
    # as intersecting (inclusive tests), so face-adjacent partitions of
    # the gap-free tiling always link up.
    part_boxes = BoxArray(part_lo, part_hi)
    pair_idx, _ = grid_hash_join(part_boxes, part_boxes)
    off_diagonal = pair_idx[pair_idx[:, 0] != pair_idx[:, 1]]
    order = np.lexsort((off_diagonal[:, 1], off_diagonal[:, 0]))
    src = off_diagonal[order, 0]
    dst = off_diagonal[order, 1].astype(np.intp)
    bounds = np.searchsorted(src, np.arange(len(tiles) + 1), side="left")
    neighbors = [
        dst[bounds[t] : bounds[t + 1]] for t in range(len(tiles))
    ]

    # Descriptor metadata pages (packed in STR order).
    per_page = max(1, disk.model.page_size // DESCRIPTOR_SIZE)
    meta_page_of = np.arange(len(tiles), dtype=np.intp) // per_page
    num_meta_pages = int(meta_page_of.max()) + 1 if len(tiles) else 0
    meta_page_ids = np.empty(num_meta_pages, dtype=np.int64)
    for m in range(num_meta_pages):
        members = np.nonzero(meta_page_of == m)[0]
        meta_page_ids[m] = disk.allocate(("descriptors", tuple(members)))

    max_extent = (
        column_max(dataset.boxes.extents())
        if len(dataset) > 0
        else np.zeros(ndim)
    )

    index = GipsyIndex(
        disk=disk,
        dataset_name=dataset.name,
        num_elements=len(dataset),
        element_page_ids=element_page_ids,
        page_lo=page_lo,
        page_hi=page_hi,
        part_lo=part_lo,
        part_hi=part_hi,
        neighbors=neighbors,
        meta_page_of=meta_page_of,
        meta_page_ids=meta_page_ids,
        max_extent=max_extent,
    )
    stats = JoinStats(algorithm=algorithm_name, phase="index")
    stats.absorb_io(disk.stats.delta(io_before))
    stats.wall_seconds = time.perf_counter() - start
    stats.extras["partitions"] = float(len(tiles))
    return index, stats


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
        self.outer = outer
        self.buffer_pages = buffer_pages

    def build_index(
        self, disk: SimulatedDisk, dataset: Dataset
    ) -> tuple[GipsyIndex, JoinStats]:
        """Partition the dataset and build the neighbourhood graph."""
        return build_partitioned_index(disk, dataset, self.name)

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
    def join(self, index_a: GipsyIndex, index_b: GipsyIndex) -> JoinResult:
        """Crawl the dense (inner) dataset guided by the sparse (outer) one."""
        if index_a.disk is not index_b.disk:
            raise ValueError("both indexes must live on the same disk")
        if self.outer == "a":
            outer, inner, flip = index_a, index_b, False
        elif self.outer == "b":
            outer, inner, flip = index_b, index_a, True
        elif index_a.num_elements <= index_b.num_elements:
            outer, inner, flip = index_a, index_b, False
        else:
            outer, inner, flip = index_b, index_a, True

        disk = outer.disk
        start = time.perf_counter()
        io_before = disk.stats.snapshot()
        stats = JoinStats(algorithm=self.name, phase="join")
        pool = BufferPool(disk, self.buffer_pages)

        out: list[np.ndarray] = []
        walk_start = 0  # descriptor locality between consecutive elements
        grow = inner.max_extent
        for outer_page_id in outer.element_page_ids:
            page = pool.read(int(outer_page_id))
            if not isinstance(page, ElementPage):
                raise TypeError("corrupt outer element page")
            for e in range(len(page)):
                e_lo = page.boxes.lo[e]
                e_hi = page.boxes.hi[e]
                g_lo = e_lo - grow
                g_hi = e_hi + grow
                found = _directed_walk(
                    inner, walk_start, g_lo, g_hi, stats, pool
                )
                if found is None:
                    continue
                walk_start = found
                candidate_pages = _crawl(
                    inner, found, e_lo, e_hi, g_lo, g_hi, stats, pool
                )
                for part in candidate_pages:
                    data = pool.read(int(inner.element_page_ids[part]))
                    if not isinstance(data, ElementPage):
                        raise TypeError("corrupt inner element page")
                    stats.intersection_tests += len(data)
                    hit = boxes_overlap(
                        data.boxes.lo, data.boxes.hi, e_lo, e_hi
                    )
                    if hit.any():
                        matched = data.ids[hit]
                        mine = np.full(matched.size, page.ids[e], dtype=np.int64)
                        if flip:
                            out.append(np.column_stack((matched, mine)))
                        else:
                            out.append(np.column_stack((mine, matched)))

        pairs = (
            canonical_pairs(np.concatenate(out))
            if out
            else np.empty((0, 2), dtype=np.int64)
        )
        stats.pairs_found = len(pairs)
        stats.absorb_io(disk.stats.delta(io_before))
        stats.wall_seconds = time.perf_counter() - start
        stats.extras["outer_dataset_is_a"] = float(not flip)
        return JoinResult(pairs=pairs, stats=stats)


# ----------------------------------------------------------------------
# Walk & crawl primitives (shared shape with TRANSFORMERS' Algorithm 1)
# ----------------------------------------------------------------------
def _distance(index: GipsyIndex, desc: int, q_lo: np.ndarray, q_hi: np.ndarray) -> float:
    """Euclidean gap between a descriptor's partition bounds and a box."""
    below = np.maximum(q_lo - index.part_hi[desc], 0.0)
    above = np.maximum(index.part_lo[desc] - q_hi, 0.0)
    gap = np.maximum(below, above)
    return float(np.sqrt(np.sum(gap * gap)))


def _distances(
    index: GipsyIndex, descs: np.ndarray, q_lo: np.ndarray, q_hi: np.ndarray
) -> np.ndarray:
    """Vectorised :func:`_distance` over a block of descriptors."""
    below = np.maximum(q_lo - index.part_hi[descs], 0.0)
    above = np.maximum(index.part_lo[descs] - q_hi, 0.0)
    gap = np.maximum(below, above)
    return np.sqrt(np.sum(gap * gap, axis=1))


def _touch_meta(index: GipsyIndex, desc: int, pool: BufferPool) -> None:
    """Charge the read of the metadata page holding descriptor ``desc``."""
    pool.read(int(index.meta_page_ids[index.meta_page_of[desc]]))


def _directed_walk(
    index: GipsyIndex,
    start: int,
    q_lo: np.ndarray,
    q_hi: np.ndarray,
    stats: JoinStats,
    pool: BufferPool,
) -> int | None:
    """Greedy descent through the neighbour graph towards the query box.

    Returns the first descriptor whose partition bounds intersect the
    (already enlarged) query box, or ``None`` when the walk reaches a
    partition from which no neighbour is closer — which, because the
    partition bounds tile space without gaps, proves no partition
    intersects the box.
    """
    if index.num_partitions == 0:
        return None
    current = start
    _touch_meta(index, current, pool)
    stats.metadata_comparisons += 1
    current_dist = _distance(index, current, q_lo, q_hi)
    while current_dist > 0.0:
        # One vectorised distance block per step: every neighbour is
        # compared (and charged) exactly as the scalar scan would, and
        # argmin's first-minimum tie-break matches its progressive
        # strict-improvement update.
        nbs = index.neighbors[current]
        stats.metadata_comparisons += len(nbs)
        if len(nbs) == 0:
            return None  # isolated partition: nowhere closer to go
        dists = _distances(index, nbs, q_lo, q_hi)
        best = int(np.argmin(dists))
        if dists[best] >= current_dist:
            return None  # moving away: provably no intersection
        current = int(nbs[best])
        current_dist = float(dists[best])
        _touch_meta(index, current, pool)
    return current


def _crawl(
    index: GipsyIndex,
    start: int,
    e_lo: np.ndarray,
    e_hi: np.ndarray,
    g_lo: np.ndarray,
    g_hi: np.ndarray,
    stats: JoinStats,
    pool: BufferPool,
) -> list[int]:
    """Breadth-first crawl collecting candidate pages around a hit.

    Expansion follows partitions whose bounds intersect the *enlarged*
    box (completeness, see module docstring); a page enters the
    candidate set only if its tight page MBB intersects the original
    element box.
    """
    candidates: list[int] = []
    seen = np.zeros(index.num_partitions, dtype=bool)
    seen[start] = True
    queue = [start]
    while queue:
        desc = queue.pop()
        _touch_meta(index, desc, pool)
        stats.metadata_comparisons += 1
        if boxes_overlap(
            index.page_lo[desc], index.page_hi[desc], e_lo, e_hi
        ):
            candidates.append(desc)
        # Vectorised frontier expansion: the unseen neighbours are
        # tested (and charged) in one block, in list order, exactly as
        # the scalar scan would append them.
        nbs = index.neighbors[desc]
        unseen = nbs[~seen[nbs]]
        stats.metadata_comparisons += len(unseen)
        if len(unseen):
            ok = boxes_overlap(
                np.take(index.part_lo, unseen, axis=0),
                np.take(index.part_hi, unseen, axis=0),
                g_lo,
                g_hi,
            )
            grow_to = unseen[ok]
            seen[grow_to] = True
            queue.extend(int(nb) for nb in grow_to)
    return candidates
