"""Dataset sketches: the statistics every other layer plans from.

The paper's planning problem — which join wins on *this* pair — depends
on how the data is distributed, not just how much of it there is.  A
:class:`DatasetSketch` captures that distribution in one vectorized
pass over a :class:`~repro.joins.base.Dataset`:

* an **equi-width density grid** over the dataset's MBB with per-cell
  element counts (centres are histogrammed; numpy does the whole pass
  in a handful of array ops);
* a **quadtree refinement** of heavy cells: any cell holding far more
  than its fair share of elements is split once into ``2**ndim``
  children with their own counts, so a MassiveCluster-style hotspot is
  not smeared over a coarse cell;
* scalar summaries — cardinality, MBB, per-axis average extents —
  that the cost estimators combine with the grid.

Sketches are deliberately tiny (a few KB of int64 counts), picklable
(they cross process boundaries inside
:class:`~repro.engine.report.RunReport` plans and are stored by the
service catalog under content fingerprints), and deterministic: equal
dataset content yields an identical sketch, bit for bit, in any
process.  Its build cost is measured, not assumed: ``python3 -m bench``
reports ``stats.sketch_ms`` beside the cold join's ``core.join_ms``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro._types import AnyArray, FloatArray, IntArray

from repro.joins.base import Dataset
from repro.vectorize import column_max, column_min

if TYPE_CHECKING:
    # Runtime import would be cyclic: repro.streaming.delta imports
    # repro.joins.base, whose package __init__ transitively reaches
    # repro.stats via the planner.  apply_delta duck-types the delta.
    from repro.streaming.delta import DatasetDelta

#: Bump when the sketch layout changes: persisted sketches from an
#: older layout must not silently alias new ones.
SKETCH_VERSION = 1

#: Upper bound on grid resolution per axis.  16**3 cells keeps the
#: sketch a few KB and the estimator's cell cross-product bounded.
MAX_RESOLUTION = 16

#: A cell is "heavy" (and gets a quadtree refinement level) when it
#: holds more than this multiple of the mean per-cell count.
HEAVY_FACTOR = 8.0


def _grid_resolution(n: int, ndim: int) -> int:
    """Cells per axis targeting ~2 elements per cell, clamped sane."""
    if n < 1:
        return 1
    return max(2, min(MAX_RESOLUTION, round((n / 2.0) ** (1.0 / ndim))))


@dataclass(frozen=True, eq=False)
class DatasetSketch:
    """Density statistics of one dataset, built without touching disk.

    ``counts`` is the flattened (C-order) equi-width histogram of
    element *centres* over the MBB; ``refined_cells``/``refined_counts``
    carry one quadtree level for heavy cells (children in C-order of
    the doubled grid restricted to the parent).  All arrays are plain
    numpy, so the sketch pickles and hashes deterministically.
    """

    n: int
    ndim: int
    lo: FloatArray  # (d,) MBB lower corner
    hi: FloatArray  # (d,) MBB upper corner
    avg_extent: FloatArray  # (d,) mean per-axis element side length
    resolution: int  # cells per axis
    counts: IntArray  # (resolution**d,) int64, C-order
    refined_cells: IntArray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64)
    )  # (k,) flat indices of refined (heavy) cells, sorted
    refined_counts: IntArray = field(
        default_factory=lambda: np.empty((0, 0), dtype=np.int64)
    )  # (k, 2**d) child counts per refined cell
    version: int = SKETCH_VERSION

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        dataset: Dataset,
        resolution: int | None = None,
        heavy_factor: float = HEAVY_FACTOR,
    ) -> "DatasetSketch":
        """One vectorized pass over ``dataset`` (no simulated-disk I/O).

        An empty dataset yields a valid no-op sketch (``n == 0``, empty
        grid) so downstream estimators can short-circuit instead of
        special-casing.
        """
        ndim = dataset.ndim
        n = len(dataset)
        if n == 0:
            zeros = np.zeros(ndim)
            return cls(
                n=0,
                ndim=ndim,
                lo=_frozen(zeros),
                hi=_frozen(zeros.copy()),
                avg_extent=_frozen(zeros.copy()),
                resolution=1,
                counts=_frozen(np.zeros(1, dtype=np.int64)),
            )
        boxes = dataset.boxes
        lo = column_min(boxes.lo)
        hi = column_max(boxes.hi)
        avg_extent = (boxes.hi - boxes.lo).mean(axis=0)
        res = resolution if resolution is not None else _grid_resolution(n, ndim)
        res = max(1, int(res))
        centers = boxes.centers()
        side = np.maximum(hi - lo, 1e-12) / res
        idx = np.clip(
            np.floor((centers - lo) / side).astype(np.int64), 0, res - 1
        )
        shape = (res,) * ndim
        flat = np.ravel_multi_index(tuple(idx.T), shape)
        counts = np.bincount(flat, minlength=res**ndim).astype(np.int64)

        # Quadtree refinement: histogram once more at doubled
        # resolution and keep the children of heavy cells only.
        mean = n / counts.size
        heavy = np.flatnonzero(counts > heavy_factor * max(mean, 1.0))
        refined_cells = heavy.astype(np.int64)
        refined_counts = np.empty((0, 2**ndim), dtype=np.int64)
        if heavy.size:
            fine_res = 2 * res
            fine_side = np.maximum(hi - lo, 1e-12) / fine_res
            fine_idx = np.clip(
                np.floor((centers - lo) / fine_side).astype(np.int64),
                0,
                fine_res - 1,
            )
            fine_flat = np.ravel_multi_index(
                tuple(fine_idx.T), (fine_res,) * ndim
            )
            fine_counts = np.bincount(
                fine_flat, minlength=fine_res**ndim
            ).astype(np.int64)
            # Children of coarse cell c (multi-index m): fine cells
            # 2*m + offset for every offset in {0,1}**d.
            coarse_multi = np.stack(
                np.unravel_index(heavy, shape), axis=1
            )  # (k, d)
            offsets = np.stack(
                np.unravel_index(np.arange(2**ndim), (2,) * ndim), axis=1
            )  # (2**d, d)
            child_multi = (
                2 * coarse_multi[:, None, :] + offsets[None, :, :]
            )  # (k, 2**d, d)
            child_flat = np.ravel_multi_index(
                tuple(np.moveaxis(child_multi, 2, 0)), (fine_res,) * ndim
            )
            refined_counts = fine_counts[child_flat].astype(np.int64)
        return cls(
            n=n,
            ndim=ndim,
            lo=_frozen(lo),
            hi=_frozen(hi),
            avg_extent=_frozen(avg_extent),
            resolution=res,
            counts=_frozen(counts),
            refined_cells=_frozen(refined_cells),
            refined_counts=_frozen(refined_counts),
        )

    # ------------------------------------------------------------------
    # Delta maintenance
    # ------------------------------------------------------------------
    def apply_delta(
        self,
        delta: "DatasetDelta",
        before: Dataset,
        after: Dataset,
        heavy_factor: float = HEAVY_FACTOR,
    ) -> "DatasetSketch":
        """The sketch of ``after == delta.apply(before)``: a rebuild.

        Patching the grid counts from the delta's centres instead still
        needs the O(n) MBB and extent pass, and falls back to the
        rebuild whenever the resolution, the MBB or the heavy cells
        move; on ``DriftingClusterStream(churn=0.02)``, 6 ticks each,
        such a patch took 379 / 1 564 / 5 834 µs per tick against the
        rebuild's 315 / 1 291 / 4 903 µs at n = 3 000 / 12 000 / 50 000.
        The method is the service's one sketch-maintenance call (the
        bench times it as ``stats.sketch_apply_delta_ms``); ``delta``
        and ``before`` are not read.
        """
        return DatasetSketch.build(after, heavy_factor=heavy_factor)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def is_empty(self) -> bool:
        """True for the no-op sketch of a zero-element dataset."""
        return self.n == 0

    @property
    def cell_sides(self) -> FloatArray:
        """(d,) side lengths of one grid cell."""
        return np.maximum(self.hi - self.lo, 1e-12) / self.resolution

    @property
    def space_volume(self) -> float:
        """Volume of the MBB (floored so densities stay finite)."""
        return float(np.prod(np.maximum(self.hi - self.lo, 1e-12)))

    def effective_cells(self) -> tuple[FloatArray, FloatArray, IntArray]:
        """``(lo, hi, counts)`` of occupied cells, heavy ones refined.

        Heavy cells are replaced by their non-empty quadtree children,
        so the estimator integrates over the finest counts available.
        Empty cells are dropped (they contribute nothing to any
        density product).
        """
        shape = (self.resolution,) * self.ndim
        side = self.cell_sides
        keep = np.flatnonzero(self.counts)
        keep = keep[~np.isin(keep, self.refined_cells)]
        multi = np.stack(np.unravel_index(keep, shape), axis=1)
        lo = self.lo + multi * side
        hi = lo + side
        counts = self.counts[keep].astype(np.float64)
        if self.refined_cells.size:
            fine_side = side / 2.0
            offsets = np.stack(
                np.unravel_index(np.arange(2**self.ndim), (2,) * self.ndim),
                axis=1,
            )
            coarse_multi = np.stack(
                np.unravel_index(self.refined_cells, shape), axis=1
            )
            child_multi = (
                2 * coarse_multi[:, None, :] + offsets[None, :, :]
            ).reshape(-1, self.ndim)
            child_counts = self.refined_counts.reshape(-1).astype(np.float64)
            nonzero = child_counts > 0
            child_lo = self.lo + child_multi[nonzero] * fine_side
            child_hi = child_lo + fine_side
            lo = np.concatenate([lo, child_lo])
            hi = np.concatenate([hi, child_hi])
            counts = np.concatenate([counts, child_counts[nonzero]])
        return lo, hi, counts

    def fine_counts(self) -> FloatArray:
        """Counts on the doubled (``2·resolution``) grid, as a tensor.

        Non-heavy parent cells spread their count equally over their
        ``2**ndim`` children (the uniformity assumption sketching
        makes *within* a cell); heavy cells use their true quadtree
        children.  This regular representation is what makes the
        estimator's cross-integration separable per axis — two tensor
        contractions instead of a quadratic cell cross-product.
        """
        shape = (self.resolution,) * self.ndim
        parent = self.counts.reshape(shape).astype(np.float64)
        spread = parent / float(2**self.ndim)
        fine = spread
        for axis in range(self.ndim):
            fine = np.repeat(fine, 2, axis=axis)
        if self.refined_cells.size:
            multi = np.unravel_index(self.refined_cells, shape)
            offsets = np.stack(
                np.unravel_index(np.arange(2**self.ndim), (2,) * self.ndim),
                axis=1,
            )
            for child, offset in enumerate(offsets):
                index = tuple(
                    2 * multi[axis] + offset[axis]
                    for axis in range(self.ndim)
                )
                fine[index] = self.refined_counts[:, child]
        return fine

    def fine_edges(self) -> FloatArray:
        """(d, 2·resolution + 1) cell edge coordinates of the fine grid."""
        fine_res = 2 * self.resolution
        steps = np.arange(fine_res + 1)[None, :]
        side = (self.cell_sides / 2.0)[:, None]
        return self.lo[:, None] + steps * side

    def digest(self) -> str:
        """Hex SHA-256 over the sketch's canonical bytes.

        Equal dataset content produces an equal digest in any process
        (the build is deterministic and the byte layout canonical) —
        the property the catalog's fingerprint-keyed storage rests on.
        """
        h = hashlib.sha256()
        h.update(b"repro.sketch.v%d" % self.version)
        h.update(
            np.array(
                [self.n, self.ndim, self.resolution], dtype="<i8"
            ).tobytes()
        )
        for arr in (self.lo, self.hi, self.avg_extent):
            h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
        h.update(np.ascontiguousarray(self.counts, dtype="<i8").tobytes())
        h.update(
            np.ascontiguousarray(self.refined_cells, dtype="<i8").tobytes()
        )
        h.update(
            np.ascontiguousarray(self.refined_counts, dtype="<i8").tobytes()
        )
        return h.hexdigest()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DatasetSketch):
            return NotImplemented
        return (
            self.n == other.n
            and self.ndim == other.ndim
            and self.resolution == other.resolution
            and self.version == other.version
            and np.array_equal(self.lo, other.lo)
            and np.array_equal(self.hi, other.hi)
            and np.array_equal(self.avg_extent, other.avg_extent)
            and np.array_equal(self.counts, other.counts)
            and np.array_equal(self.refined_cells, other.refined_cells)
            and np.array_equal(self.refined_counts, other.refined_counts)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DatasetSketch(n={self.n}, res={self.resolution}^{self.ndim}, "
            f"refined={len(self.refined_cells)})"
        )


def _frozen(arr: AnyArray) -> AnyArray:
    """A C-contiguous, write-protected copy (sketches are immutable)."""
    out = np.ascontiguousarray(arr)
    out.setflags(write=False)
    return out


def build_sketch(
    dataset: Dataset, resolution: int | None = None
) -> DatasetSketch:
    """Convenience wrapper for :meth:`DatasetSketch.build`."""
    return DatasetSketch.build(dataset, resolution=resolution)
