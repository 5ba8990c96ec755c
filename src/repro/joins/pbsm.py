"""PBSM — Partition Based Spatial-Merge join (Patel & DeWitt, SIGMOD '96).

The canonical space-oriented partitioning join and the paper's main
baseline.  Indexing lays a uniform grid over the joint data space and
assigns every element to *each* cell its MBB overlaps (multiple
assignment).  The join then visits each cell and joins the two
datasets' elements in that cell with the in-memory grid hash join,
deduplicating replicated results with the reference-point rule.

Two behaviours the paper highlights are modelled faithfully:

* **Scattered writes → random reads.**  "PBSM writes pages to disk
  arbitrarily while indexing (when the number of elements buffered for
  a cell exceeds the disk page size) leading to random reads when
  retrieving all elements in one cell" (Section VII-C1).  We stream the
  input once, flushing a cell's buffer whenever it fills a page, so a
  cell's pages end up interleaved with other cells' pages on the
  simulated disk, and the join's page reads are classified random.
* **Replication.**  Elements overlapping several cells are stored (and
  compared) several times; the replication factor is reported in
  ``extras`` and drives PBSM's deterioration on dense uniform data
  (Section VII-C3).

The grid resolution is a knob: the paper uses 10³ partitions for
synthetic and 20³ for neuroscience data after a parameter sweep.  The
harness sweeps it the same way.
"""

from __future__ import annotations

import time

import numpy as np

from repro.geometry.box import Box
from repro.geometry.boxes import BoxArray
from repro.index.grid import UniformGrid
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
from repro.storage.disk import SimulatedDisk
from repro.storage.page import ElementPage, element_page_capacity


class PBSMIndex:
    """PBSM's per-dataset partitioning: cell id -> list of page ids."""

    def __init__(
        self,
        disk: SimulatedDisk,
        dataset_name: str,
        grid: UniformGrid,
        cell_pages: dict[int, list[int]],
        num_elements: int,
        replicas: int,
    ) -> None:
        self.disk = disk
        self.dataset_name = dataset_name
        self.grid = grid
        self.cell_pages = cell_pages
        self.num_elements = num_elements
        self.replicas = replicas

    @property
    def replication_factor(self) -> float:
        """Stored copies per element (1.0 = no replication)."""
        if self.num_elements == 0:
            return 0.0
        return self.replicas / self.num_elements


class PBSMJoin(SpatialJoinAlgorithm):
    """Partition Based Spatial-Merge join over a shared uniform grid.

    Parameters
    ----------
    space:
        The grid's spatial extent.  PBSM's grid must be common to both
        inputs, which is exactly why the paper notes its partitions
        "cannot efficiently be reused when joining with datasets that
        have considerably different characteristics" (Section VII-C1).
        When ``None``, the extent of the first indexed dataset is used
        and subsequent datasets must fall inside it.
    resolution:
        Cells per axis (paper: 10 for synthetic, 20 for neuroscience).
    """

    name = "PBSM"

    def __init__(self, space: Box | None = None, resolution: int = 10) -> None:
        if resolution < 1:
            raise ValueError("resolution must be >= 1")
        self.space = space
        self.resolution = resolution

    # ------------------------------------------------------------------
    # Index phase
    # ------------------------------------------------------------------
    def build_index(
        self, disk: SimulatedDisk, dataset: Dataset
    ) -> tuple[PBSMIndex, JoinStats]:
        """Stream the dataset into per-cell page chains on ``disk``."""
        start = time.perf_counter()
        io_before = disk.stats.snapshot()
        space = self.space or dataset.boxes.mbb()
        grid = UniformGrid(space, self.resolution)
        capacity = element_page_capacity(disk.model.page_size, dataset.ndim)

        # Streaming pass: per-cell buffers spilled page-by-page, which
        # interleaves page allocations across cells (scattered layout).
        # The assignment expansion and the spill schedule are computed
        # vectorised, then pages are allocated in the order a streaming
        # pass over the box-major expansion (each element's cells in
        # row-major order) would flush them: a full page of cell c
        # flushes at the stream position where c's buffer fills;
        # leftover partial buffers flush at the end, in the order the
        # cells were first touched.  Page *contents* per cell are
        # order-independent; only the interleaving follows the stream.
        cell_pages: dict[int, list[int]] = {}
        cells, members = grid.assign_entries(dataset.boxes)
        replicas = int(len(cells))
        order = np.argsort(cells, kind="stable")  # stream order per cell
        sorted_cells = cells[order]
        sorted_members = members[order]
        boundaries = np.nonzero(np.diff(sorted_cells))[0] + 1
        group_starts = np.concatenate(([0], boundaries))
        group_ends = np.concatenate((boundaries, [len(sorted_cells)]))
        flushes: list[tuple[tuple[int, int], int, np.ndarray]] = []
        for gs, ge in zip(group_starts, group_ends):
            cell = int(sorted_cells[gs])
            first_touch = int(order[gs])
            for cs in range(int(gs), int(ge), capacity):
                ce = min(cs + capacity, int(ge))
                if ce - cs == capacity:
                    key = (0, int(order[ce - 1]))  # buffer filled here
                else:
                    key = (1, first_touch)  # end-of-stream leftovers
                flushes.append((key, cell, sorted_members[cs:ce]))
        flushes.sort(key=lambda f: f[0])
        # Permute the replicated rows into flush order once; the run is
        # validated once and split into pages.
        rows = np.concatenate([chunk for _, _, chunk in flushes])
        pages = ElementPage.split(
            dataset.ids[rows],
            dataset.boxes.take(rows),
            np.cumsum([0] + [len(chunk) for _, _, chunk in flushes]),
        )
        for (_, cell, _), page in zip(flushes, pages):
            cell_pages.setdefault(cell, []).append(disk.allocate(page))

        index = PBSMIndex(
            disk=disk,
            dataset_name=dataset.name,
            grid=grid,
            cell_pages=cell_pages,
            num_elements=len(dataset),
            replicas=replicas,
        )
        stats = JoinStats(algorithm=self.name, phase="index")
        stats.absorb_io(disk.stats.delta(io_before))
        stats.wall_seconds = time.perf_counter() - start
        stats.extras["replication_factor"] = index.replication_factor
        return index, stats

    # ------------------------------------------------------------------
    # Join phase
    # ------------------------------------------------------------------
    def join(self, index_a: PBSMIndex, index_b: PBSMIndex) -> JoinResult:
        """Visit each grid cell and join its two element sets in memory."""
        self._validate_pair(index_a, index_b)
        cells = sorted(set(index_a.cell_pages) & set(index_b.cell_pages))
        return self._join_cells(index_a, index_b, cells)

    def estimate_join_cost(self, profile: CostProfile) -> CostBreakdown:
        """Predicted cost (calibrated on the pinned uniform suite).

        Streaming spills scatter a cell's pages across the disk, so
        the cell sweep reads back nearly every co-occupied page
        *randomly* — the paper's "almost exclusively random reads".
        Replication (multiple assignment) inflates both the write and
        the read volume by ~1.45× at the experiment page size.  Small
        inputs pay a *fragmentation floor*: every co-occupied grid
        cell stores at least one page per side however few elements it
        holds, so the read volume never drops below twice the
        co-occupied cell count (cells occupied per side estimated by
        Poisson occupancy at the planner's resolution).  Comparisons
        follow the shared grid's cell side.
        """
        import math

        replication = 1.45
        index_io = (
            replication * profile.pages_total + 2.0
        ) * profile.write_cost
        cells = float(max(profile.resolution, 1)) ** profile.ndim
        occupied_a = cells * -math.expm1(-profile.n_a / cells)
        occupied_b = cells * -math.expm1(-profile.n_b / cells)
        fragmentation_floor = 2.0 * min(occupied_a, occupied_b)
        join_io = profile.random_read_cost * max(
            replication * profile.active_pages_total, fragmentation_floor
        )
        cell_side = (
            profile.space_volume ** (1.0 / profile.ndim)
            / max(profile.resolution, 1)
        )
        est_tests = profile.collision(cell_side)
        join_cpu = est_tests * profile.intersection_test_cost
        return CostBreakdown(
            index_io=index_io,
            join_io=join_io,
            join_cpu=join_cpu,
            est_tests=est_tests,
        )

    @staticmethod
    def _validate_pair(a: PBSMIndex, b: PBSMIndex) -> None:
        if a.grid.resolution != b.grid.resolution or a.grid.space != b.grid.space:
            raise ValueError(
                "PBSM requires both datasets to be partitioned with the "
                "same grid; re-index with a shared `space`"
            )
        if a.disk is not b.disk:
            raise ValueError("both indexes must live on the same disk")

    def _join_cells(
        self, a: PBSMIndex, b: PBSMIndex, cells: list[int]
    ) -> JoinResult:
        """The cell sweep over ``cells``, in the given order."""
        disk = a.disk
        start = time.perf_counter()
        io_before = disk.stats.snapshot()
        stats = JoinStats(algorithm=self.name, phase="join")

        grid = a.grid
        out: list[np.ndarray] = []
        dropped_duplicates = 0
        for cell in cells:
            ids_a, boxes_a = self._read_cell(disk, a.cell_pages[cell])
            ids_b, boxes_b = self._read_cell(disk, b.cell_pages[cell])
            pairs_idx, tests = grid_hash_join(boxes_a, boxes_b)
            stats.intersection_tests += tests
            if pairs_idx.size == 0:
                continue
            # Cross-cell deduplication (multiple assignment): keep a
            # pair only in the cell holding its intersection's low
            # corner.
            ref = np.maximum(
                boxes_a.lo[pairs_idx[:, 0]], boxes_b.lo[pairs_idx[:, 1]]
            )
            keep = grid.flat_ids(grid.cells_of_points(ref)) == cell
            dropped_duplicates += int((~keep).sum())
            kept = pairs_idx[keep]
            if kept.size:
                out.append(
                    np.column_stack((ids_a[kept[:, 0]], ids_b[kept[:, 1]]))
                )

        pairs = (
            canonical_pairs(np.concatenate(out))
            if out
            else np.empty((0, 2), dtype=np.int64)
        )
        stats.pairs_found = len(pairs)
        stats.absorb_io(disk.stats.delta(io_before))
        stats.wall_seconds = time.perf_counter() - start
        stats.extras["duplicates_dropped"] = float(dropped_duplicates)
        stats.extras["replication_factor_a"] = a.replication_factor
        stats.extras["replication_factor_b"] = b.replication_factor
        return JoinResult(pairs=pairs, stats=stats)

    @staticmethod
    def _read_cell(
        disk: SimulatedDisk, page_ids: list[int]
    ) -> tuple[np.ndarray, BoxArray]:
        """Fetch one cell's pages (scattered on disk → random reads)."""
        ids_parts: list[np.ndarray] = []
        box_parts: list[BoxArray] = []
        for page_id in page_ids:
            page = disk.read(page_id)
            if not isinstance(page, ElementPage):
                raise TypeError(f"page {page_id} is not an element page")
            ids_parts.append(page.ids)
            box_parts.append(page.boxes)
        ids = np.concatenate(ids_parts)
        boxes = BoxArray.concatenate(box_parts)
        return ids, boxes
