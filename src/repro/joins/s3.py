"""S³ — Size Separation Spatial Join (Koudas & Sevcik, SIGMOD '97).

The second multiple-matching representative from the paper's related
work (Section VIII-B): "a hierarchy of equi-width grids of increasing
granularity.  Each element of both datasets is assigned to the lowest
level in the hierarchy where it only overlaps with one cell.  To
perform the join S3 iterates over each cell c in the hierarchy and
joins it with all cells that cover c on a higher level."

Level ``l`` is a grid of ``2**l`` cells per axis (level 0 = one cell).
An element lives at the deepest level where one cell fully contains it,
so no element is ever replicated.  Correctness of the
cell-versus-ancestors join: if two elements intersect, their (disjoint
within a level) containing cells overlap, so the deeper cell lies
inside the shallower element's cell — an ancestor relation the join
enumerates exactly once.
"""

from __future__ import annotations

import time

import numpy as np

from repro.geometry.box import Box
from repro.geometry.boxes import BoxArray
from repro.joins.base import (
    Dataset,
    JoinResult,
    JoinStats,
    SpatialJoinAlgorithm,
    canonical_pairs,
)
from repro.joins.plane_sweep import plane_sweep_join
from repro.storage.buffer import BufferPool
from repro.storage.disk import SimulatedDisk
from repro.storage.page import ElementPage, element_page_capacity
from repro.vectorize import all_columns


class S3Index:
    """Per-dataset hierarchy: (level, flat cell) -> page chain."""

    def __init__(
        self,
        disk: SimulatedDisk,
        dataset_name: str,
        space: Box,
        levels: int,
        cell_pages: dict[tuple[int, tuple[int, ...]], list[int]],
        num_elements: int,
        level_counts: list[int],
    ) -> None:
        self.disk = disk
        self.dataset_name = dataset_name
        self.space = space
        self.levels = levels
        self.cell_pages = cell_pages
        self.num_elements = num_elements
        self.level_counts = level_counts


class S3Join(SpatialJoinAlgorithm):
    """Size separation spatial join over a shared grid hierarchy.

    Parameters
    ----------
    levels:
        Hierarchy depth (level ``l`` has ``2**l`` cells per axis).
    space:
        The shared spatial extent; like PBSM's grid it must be common
        to both inputs (``None``: first indexed dataset's MBB).
    buffer_pages:
        Pool capacity during the join (ancestor cells are re-read for
        every descendant; the pool absorbs most of it, which is also
        what a real implementation would rely on).
    """

    name = "S3"

    def __init__(
        self,
        levels: int = 6,
        space: Box | None = None,
        buffer_pages: int = 256,
    ) -> None:
        if levels < 1:
            raise ValueError("levels must be >= 1")
        if buffer_pages < 1:
            raise ValueError("buffer_pages must be >= 1")
        self.levels = levels
        self.space = space
        self.buffer_pages = buffer_pages

    # ------------------------------------------------------------------
    # Index phase
    # ------------------------------------------------------------------
    def build_index(
        self, disk: SimulatedDisk, dataset: Dataset
    ) -> tuple[S3Index, JoinStats]:
        """Assign every element to its size-separated (level, cell)."""
        start = time.perf_counter()
        io_before = disk.stats.snapshot()
        space = self.space or dataset.boxes.mbb()
        ndim = dataset.ndim
        lo = np.asarray(space.lo)
        extent = np.asarray(space.hi) - lo
        extent = np.where(extent <= 0.0, 1.0, extent)

        # Deepest level whose single cell contains each element: the
        # per-axis cell index of the element's lo and hi corners must
        # agree at that level.  Computed vectorised per level, taking
        # the deepest level that fits.
        n = len(dataset)
        assigned_level = np.zeros(n, dtype=np.int64)  # level 0 always fits
        assigned_cell = [np.zeros((n, ndim), dtype=np.int64)]
        for level in range(1, self.levels):
            res = 2**level
            lo_cells = np.clip(
                np.floor((dataset.boxes.lo - lo) / extent * res).astype(np.int64),
                0, res - 1,
            )
            hi_cells = np.clip(
                np.floor((dataset.boxes.hi - lo) / extent * res).astype(np.int64),
                0, res - 1,
            )
            fits = all_columns(lo_cells == hi_cells)
            assigned_level[fits] = level
            assigned_cell.append(lo_cells)

        capacity = element_page_capacity(disk.model.page_size, ndim)
        cell_pages: dict[tuple[int, tuple[int, ...]], list[int]] = {}
        level_counts = [0] * self.levels
        for level in range(self.levels):
            members = np.nonzero(assigned_level == level)[0]
            level_counts[level] = len(members)
            if not len(members):
                continue
            cells = assigned_cell[level][members]
            # Group members by their cell tuple (vectorised group-by:
            # lexsort then split at the cell-change boundaries).
            order = np.lexsort(cells.T[::-1])
            members = members[order]
            cells = cells[order]
            boundaries = (
                np.nonzero(~all_columns(np.diff(cells, axis=0) == 0))[0] + 1
            )
            for group, cell in zip(
                np.split(members, boundaries), cells[np.concatenate(([0], boundaries))]
            ):
                cell_key = (level, tuple(int(c) for c in cell))
                pages = cell_pages.setdefault(cell_key, [])
                for chunk_start in range(0, len(group), capacity):
                    chunk = group[chunk_start : chunk_start + capacity]
                    pages.append(
                        disk.allocate(
                            ElementPage(
                                dataset.ids[chunk], dataset.boxes.take(chunk)
                            )
                        )
                    )

        index = S3Index(
            disk=disk,
            dataset_name=dataset.name,
            space=space,
            levels=self.levels,
            cell_pages=cell_pages,
            num_elements=n,
            level_counts=level_counts,
        )
        stats = JoinStats(algorithm=self.name, phase="index")
        stats.absorb_io(disk.stats.delta(io_before))
        stats.wall_seconds = time.perf_counter() - start
        for level, count in enumerate(level_counts):
            stats.extras[f"level_{level}_elements"] = float(count)
        return index, stats

    # ------------------------------------------------------------------
    # Join phase
    # ------------------------------------------------------------------
    def join(self, index_a: S3Index, index_b: S3Index) -> JoinResult:
        """Join each cell with its equal and ancestor cells."""
        a, b = index_a, index_b
        if a.disk is not b.disk:
            raise ValueError("both indexes must live on the same disk")
        if a.levels != b.levels or a.space != b.space:
            raise ValueError(
                "S3 requires both datasets to share the grid hierarchy; "
                "re-index with a common `space` and `levels`"
            )
        disk = a.disk
        start = time.perf_counter()
        io_before = disk.stats.snapshot()
        stats = JoinStats(algorithm=self.name, phase="join")
        pool = BufferPool(disk, self.buffer_pages)

        out: list[np.ndarray] = []

        def read_cell(index: S3Index, key) -> tuple[np.ndarray, BoxArray] | None:
            pages = index.cell_pages.get(key)
            if not pages:
                return None
            ids_parts, box_parts = [], []
            for pid in pages:
                page = pool.read(pid)
                if not isinstance(page, ElementPage):
                    raise TypeError(f"page {pid} is not an element page")
                ids_parts.append(page.ids)
                box_parts.append(page.boxes)
            return np.concatenate(ids_parts), BoxArray.concatenate(box_parts)

        def sweep(ga, gb):
            if ga is None or gb is None:
                return
            idx, tests = plane_sweep_join(ga[1], gb[1])
            stats.intersection_tests += tests
            if idx.size:
                out.append(
                    np.column_stack((ga[0][idx[:, 0]], gb[0][idx[:, 1]]))
                )

        def ancestors(level: int, cell: tuple[int, ...]):
            for up in range(level - 1, -1, -1):
                shift = level - up
                yield up, tuple(c >> shift for c in cell)

        all_keys = sorted(set(a.cell_pages) | set(b.cell_pages))
        for level, cell in all_keys:
            group_a = read_cell(a, (level, cell))
            group_b = read_cell(b, (level, cell))
            sweep(group_a, group_b)  # same cell, same level
            for anc in ancestors(level, cell):
                # This cell's A side vs the ancestor's B side, and vice
                # versa: every cross-level pair meets exactly once, at
                # the descendant's iteration.
                sweep(group_a, read_cell(b, anc))
                sweep(read_cell(a, anc), group_b)

        pairs = (
            canonical_pairs(np.concatenate(out))
            if out
            else np.empty((0, 2), dtype=np.int64)
        )
        stats.pairs_found = len(pairs)
        stats.absorb_io(disk.stats.delta(io_before))
        stats.wall_seconds = time.perf_counter() - start
        return JoinResult(pairs=pairs, stats=stats)
