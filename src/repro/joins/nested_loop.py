"""Indexed nested-loop join.

The simplest data-oriented baseline from the paper's related work
(Section VIII-A): index dataset A with an R-tree and issue one range
query per element of B.  "Given the considerable cost of a query, this
approach clearly is only efficient in case A >> B" — the repository
includes it to let the benches show exactly that regime.
"""

from __future__ import annotations

import numpy as np

from repro.index.rtree import RTree
from repro.index.str_pack import write_str_pages
from repro.joins.base import (
    CostBreakdown,
    CostProfile,
    Dataset,
    JoinStats,
    SpatialJoinAlgorithm,
)
from repro.storage.buffer import BufferPool
from repro.storage.disk import SimulatedDisk
from repro.storage.page import ElementPage, element_page_capacity


class SequentialFile:
    """A dataset stored as a run of element pages in STR order.

    The nested-loop join scans the outer dataset once; storing it in
    STR order additionally gives the R-tree probes spatial locality,
    which is the favourable setup for this baseline.  The pages are
    the ones every data-oriented index writes
    (:func:`repro.index.str_pack.write_str_pages`): TRANSFORMERS' space
    units, GIPSY's partitions and the R-tree's leaves.
    """

    def __init__(self, disk: SimulatedDisk, page_ids: tuple[int, ...], num_elements: int) -> None:
        self.disk = disk
        self.page_ids = page_ids
        self.num_elements = num_elements

    @staticmethod
    def write(disk: SimulatedDisk, dataset: Dataset) -> "SequentialFile":
        """Lay the dataset out as consecutive pages on ``disk``."""
        capacity = element_page_capacity(disk.model.page_size, dataset.ndim)
        page_ids, *_ = write_str_pages(disk, dataset.ids, dataset.boxes, capacity)
        return SequentialFile(disk, tuple(page_ids.tolist()), len(dataset))


class INLIndex:
    """Handle pairing the R-tree with the sequential copy of the data."""

    def __init__(self, tree: RTree, file: SequentialFile) -> None:
        self.tree = tree
        self.file = file
        self.disk = tree.disk


class IndexedNestedLoopJoin(SpatialJoinAlgorithm):
    """One R-tree range query per outer element.

    Parameters
    ----------
    outer:
        ``"auto"`` scans the smaller dataset and probes the larger
        one's R-tree; ``"a"``/``"b"`` force the outer side.
    buffer_pages:
        R-tree buffer pool capacity during the join.
    """

    name = "INL"

    def __init__(self, outer: str = "auto", buffer_pages: int = 256) -> None:
        if outer not in ("auto", "a", "b"):
            raise ValueError("outer must be 'auto', 'a' or 'b'")
        if buffer_pages < 1:
            raise ValueError("buffer_pages must be >= 1")
        self.outer = outer
        self.buffer_pages = buffer_pages

    def _build(
        self, disk: SimulatedDisk, dataset: Dataset, stats: JoinStats
    ) -> INLIndex:
        """Store the dataset sequentially and bulk-load its R-tree."""
        file = SequentialFile.write(disk, dataset)
        return INLIndex(RTree.bulk_load(disk, dataset.ids, dataset.boxes), file)

    def estimate_join_cost(self, profile: CostProfile) -> CostBreakdown:
        """Predicted cost (calibrated on the contrast-ladder suite).

        The outer file builds twice (sequential file + probe tree on
        the other side): ≈2.2 writes per data page.  Each outer
        element descends the inner tree (~``0.6 · pages^{1/ndim}``
        random reads per probe, buffered), capped near a full read of
        both sides when the outer is dense — the "only efficient in
        case A >> B" regime quantified.
        """
        index_io = 2.2 * profile.pages_total * profile.write_cost
        probe_reads = (
            profile.n_outer
            * 0.6 * profile.pages_inner ** (1.0 / profile.ndim)
        )
        join_io = profile.random_read_cost * min(
            probe_reads, float(profile.pages_total)
        )
        leaf_side = profile.partition_side(profile.page_capacity)
        est_tests = (
            3.0 * profile.collision(leaf_side)
            + 0.5 * profile.page_capacity * profile.n_outer
        )
        join_cpu = est_tests * profile.intersection_test_cost
        return CostBreakdown(
            index_io=index_io,
            join_io=join_io,
            join_cpu=join_cpu,
            est_tests=est_tests,
        )

    def _join(
        self, index_a: INLIndex, index_b: INLIndex, stats: JoinStats
    ) -> list[np.ndarray]:
        """Scan the outer file; range-query the inner tree per element."""
        if self.outer == "a":
            flip = False
        elif self.outer == "b":
            flip = True
        else:
            flip = index_b.file.num_elements < index_a.file.num_elements
        outer, inner = (index_b, index_a) if flip else (index_a, index_b)

        pool = BufferPool(outer.disk, self.buffer_pages)

        out: list[np.ndarray] = []
        for page_id in outer.file.page_ids:
            page = pool.read(page_id)
            if not isinstance(page, ElementPage):
                raise TypeError("corrupt sequential-file page")
            for e in range(len(page)):
                ids, tests = inner.tree.range_query(page.boxes.box(e), pool)
                stats.intersection_tests += tests
                if ids.size:
                    mine = np.full(ids.size, page.ids[e], dtype=np.int64)
                    if flip:
                        out.append(np.column_stack((ids, mine)))
                    else:
                        out.append(np.column_stack((mine, ids)))
        return out
