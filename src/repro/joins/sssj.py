"""SSSJ — Scalable Sweeping-Based Spatial Join (Arge et al., VLDB '98).

The multiple-*matching* representative from the paper's related work
(Section VIII-B): space is cut into ``n`` strips of equal width along
one dimension and each element is assigned to the strip that fully
contains it — no replication, hence no deduplication.  Elements
spanning several strips go into spanning sets; joining strip ``j``
additionally joins the spanning sets that cover it.

This implementation keeps the paper's described structure with one
simplification: all spanning elements form a single *wide* set per
dataset (with strip widths far larger than the element extents, the
original's ``S_ik`` interval sets almost always degenerate to this).
The join then consists of

* one plane sweep per strip — ``A_j ⋈ B_j``;
* ``wide_A ⋈ B`` and ``A_narrow ⋈ wide_B`` (the cross terms), which
  together cover every pair involving a spanning element exactly once.
"""

from __future__ import annotations

import time

import numpy as np

from repro.geometry.boxes import BoxArray
from repro.joins.base import (
    Dataset,
    JoinResult,
    JoinStats,
    SpatialJoinAlgorithm,
    canonical_pairs,
)
from repro.joins.plane_sweep import plane_sweep_join
from repro.storage.disk import SimulatedDisk
from repro.storage.page import ElementPage, element_page_capacity


class SSSJIndex:
    """Per-dataset strip partitioning: one page chain per strip + wide set."""

    def __init__(
        self,
        disk: SimulatedDisk,
        dataset_name: str,
        x_lo: float,
        x_hi: float,
        strips: int,
        strip_pages: list[list[int]],
        wide_pages: list[int],
        num_elements: int,
    ) -> None:
        self.disk = disk
        self.dataset_name = dataset_name
        self.x_lo = x_lo
        self.x_hi = x_hi
        self.strips = strips
        self.strip_pages = strip_pages
        self.wide_pages = wide_pages
        self.num_elements = num_elements


class SSSJJoin(SpatialJoinAlgorithm):
    """Strip-partitioned sweeping join.

    Parameters
    ----------
    strips:
        Number of equal-width strips along the x axis.
    x_range:
        The common strip extent ``(lo, hi)``; like PBSM's grid it must
        be shared by both inputs (when ``None`` the first indexed
        dataset's x-extent is used).
    """

    name = "SSSJ"

    def __init__(
        self, strips: int = 16, x_range: tuple[float, float] | None = None
    ) -> None:
        if strips < 1:
            raise ValueError("strips must be >= 1")
        self.strips = strips
        self.x_range = x_range

    # ------------------------------------------------------------------
    # Index phase
    # ------------------------------------------------------------------
    def build_index(
        self, disk: SimulatedDisk, dataset: Dataset
    ) -> tuple[SSSJIndex, JoinStats]:
        """Assign each element to its fully-containing strip (or wide)."""
        start = time.perf_counter()
        io_before = disk.stats.snapshot()
        if self.x_range is not None:
            x_lo, x_hi = self.x_range
        else:
            mbb = dataset.boxes.mbb()
            x_lo, x_hi = mbb.lo[0], mbb.hi[0]
        width = max((x_hi - x_lo) / self.strips, 1e-12)

        lo_strip = np.clip(
            np.floor((dataset.boxes.lo[:, 0] - x_lo) / width).astype(np.int64),
            0, self.strips - 1,
        )
        hi_strip = np.clip(
            np.floor((dataset.boxes.hi[:, 0] - x_lo) / width).astype(np.int64),
            0, self.strips - 1,
        )
        spanning = lo_strip != hi_strip

        capacity = element_page_capacity(disk.model.page_size, dataset.ndim)
        strip_pages: list[list[int]] = [[] for _ in range(self.strips)]
        # One vectorised group-by instead of a per-strip membership scan:
        # stable-sorting the narrow elements by strip keeps the members
        # of each strip in ascending input order, so the page layout is
        # identical to a strip-at-a-time pass.
        narrow_members = np.nonzero(~spanning)[0]
        strip_of = lo_strip[narrow_members]
        sort = np.argsort(strip_of, kind="stable")
        narrow_members = narrow_members[sort]
        strip_of = strip_of[sort]
        group_bounds = np.searchsorted(
            strip_of, np.arange(self.strips + 1), side="left"
        )
        for s in range(self.strips):
            members = narrow_members[group_bounds[s] : group_bounds[s + 1]]
            for chunk_start in range(0, len(members), capacity):
                chunk = members[chunk_start : chunk_start + capacity]
                strip_pages[s].append(
                    disk.allocate(
                        ElementPage(
                            dataset.ids[chunk], dataset.boxes.take(chunk)
                        )
                    )
                )
        wide_pages: list[int] = []
        wide_members = np.nonzero(spanning)[0]
        for chunk_start in range(0, len(wide_members), capacity):
            chunk = wide_members[chunk_start : chunk_start + capacity]
            wide_pages.append(
                disk.allocate(
                    ElementPage(dataset.ids[chunk], dataset.boxes.take(chunk))
                )
            )

        index = SSSJIndex(
            disk=disk,
            dataset_name=dataset.name,
            x_lo=x_lo,
            x_hi=x_hi,
            strips=self.strips,
            strip_pages=strip_pages,
            wide_pages=wide_pages,
            num_elements=len(dataset),
        )
        stats = JoinStats(algorithm=self.name, phase="index")
        stats.absorb_io(disk.stats.delta(io_before))
        stats.wall_seconds = time.perf_counter() - start
        stats.extras["spanning_elements"] = float(len(wide_members))
        return index, stats

    # ------------------------------------------------------------------
    # Join phase
    # ------------------------------------------------------------------
    def join(self, index_a: SSSJIndex, index_b: SSSJIndex) -> JoinResult:
        """Per-strip plane sweeps plus the spanning-set cross terms."""
        a, b = index_a, index_b
        if a.disk is not b.disk:
            raise ValueError("both indexes must live on the same disk")
        if (a.strips, a.x_lo, a.x_hi) != (b.strips, b.x_lo, b.x_hi):
            raise ValueError(
                "SSSJ requires both datasets to share the strip layout; "
                "re-index with a common `x_range`"
            )
        disk = a.disk
        start = time.perf_counter()
        io_before = disk.stats.snapshot()
        stats = JoinStats(algorithm=self.name, phase="join")

        out: list[np.ndarray] = []

        def read_group(pages: list[int]) -> tuple[np.ndarray, BoxArray] | None:
            if not pages:
                return None
            ids_parts, box_parts = [], []
            for pid in pages:
                page = disk.read(pid)
                if not isinstance(page, ElementPage):
                    raise TypeError(f"page {pid} is not an element page")
                ids_parts.append(page.ids)
                box_parts.append(page.boxes)
            return np.concatenate(ids_parts), BoxArray.concatenate(box_parts)

        def sweep(ga, gb):
            if ga is None or gb is None:
                return
            pairs_idx, tests = plane_sweep_join(ga[1], gb[1])
            stats.intersection_tests += tests
            if pairs_idx.size:
                out.append(
                    np.column_stack(
                        (ga[0][pairs_idx[:, 0]], gb[0][pairs_idx[:, 1]])
                    )
                )

        # Wide sets are hot across all strips: read them once.
        wide_a = read_group(a.wide_pages)
        wide_b = read_group(b.wide_pages)

        for s in range(a.strips):
            ga = read_group(a.strip_pages[s])
            gb = read_group(b.strip_pages[s])
            sweep(ga, gb)             # A_s x B_s
            sweep(ga, wide_b)         # A_narrow x wide_B (per strip)
            sweep(wide_a, gb)         # wide_A x B_narrow (per strip)
        sweep(wide_a, wide_b)         # wide_A x wide_B

        pairs = (
            canonical_pairs(np.concatenate(out))
            if out
            else np.empty((0, 2), dtype=np.int64)
        )
        stats.pairs_found = len(pairs)
        stats.absorb_io(disk.stats.delta(io_before))
        stats.wall_seconds = time.perf_counter() - start
        return JoinResult(pairs=pairs, stats=stats)
