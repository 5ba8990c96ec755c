"""In-memory grid hash join.

The paper's in-memory kernel for both PBSM and TRANSFORMERS (Section
VII-A: "PBSM and TRANSFORMERS use the grid hash join [11] as the
in-memory join algorithm"), following Tauheed, Heinis & Ailamaki,
"Configuring Spatial Grids for Efficient Main Memory Joins", BICOD '15.

A uniform grid is built over one input's boxes (multiple assignment);
the other input probes the grid cell by cell.  Duplicate reports —
possible because a pair of boxes can co-occur in several cells — are
suppressed with the classic *reference point* trick: a pair is reported
only from the cell containing the low corner of the pair's
intersection, so no result set materialisation is needed.

The filter phase is fully vectorised: both sides are expanded into
(cell, box) assignment arrays (:meth:`UniformGrid.assign_entries`), the
build side is sorted by cell, and each probe assignment finds its
bucket in a directory addressed by cell id — the hash table; overlap
and reference-point tests then run over the expanded candidate blocks.
The ``tests`` counter is identical to the element-at-a-time
formulation kept in :func:`grid_hash_join_reference` (the
equivalence/benchmark baseline):
every probe-cell visit charges the full bucket population, including
the duplicated tests multiple assignment causes, because that is the
work a real implementation does.
"""

from __future__ import annotations

import math

import numpy as np

from repro.geometry.box import Box
from repro.geometry.boxes import BoxArray
from repro.index.grid import UniformGrid
from repro.vectorize import (
    boxes_overlap,
    chunked_blocks,
    expand_counts,
    vectorized_kernel,
)

#: Memory-safety bound, not a performance selection: the bucket
#: directory (one entry per grid cell) is built while the grid has at
#: most this many cells per assignment row.  Only an explicit
#: ``resolution`` gets past it (the default makes ``res**d`` about
#: ``len(build)``); buckets are then binary-searched, which needs no
#: memory for empty cells.
_DIRECTORY_CELLS_PER_ROW = 8


def default_resolution(n: int, ndim: int) -> int:
    """Grid resolution heuristic: about one build-side box per cell.

    The BICOD '15 paper tunes cells-per-object near 1; we clamp the
    resolution to [1, 64] to keep degenerate inputs cheap.
    """
    if n <= 0:
        return 1
    return max(1, min(64, math.ceil(n ** (1.0 / ndim))))


@vectorized_kernel
def grid_hash_join(
    build: BoxArray,
    probe: BoxArray,
    resolution: int | None = None,
) -> tuple[np.ndarray, int]:
    """Join two in-memory box sets with a grid hash join.

    Parameters
    ----------
    build:
        The side the grid is built over.
    probe:
        The side that probes the grid.
    resolution:
        Cells per axis; defaults to :func:`default_resolution` over the
        build side.

    Returns
    -------
    ``(pairs, tests)`` where ``pairs`` is an ``(m, 2)`` array of
    ``(build_index, probe_index)`` pairs (each reported exactly once)
    and ``tests`` counts the box-box intersection tests performed —
    including the duplicated tests the multiple-assignment strategy
    causes, because that is the work a real implementation does.
    """
    if len(build) == 0 or len(probe) == 0:
        return np.empty((0, 2), dtype=np.intp), 0
    if build.ndim != probe.ndim:
        raise ValueError("dimensionality mismatch")
    if resolution is None:
        resolution = default_resolution(len(build), build.ndim)
    space = Box(
        np.minimum(build.lo.min(axis=0), probe.lo.min(axis=0)),
        np.maximum(build.hi.max(axis=0), probe.hi.max(axis=0)),
    )
    grid = UniformGrid(space, resolution)

    b_cells, b_members = grid.assign_entries(build)
    # Stable, so every bucket lists its members in ascending order.
    order = np.argsort(b_cells, kind="stable")
    b_members = np.take(b_members, order)

    p_cells, p_members = grid.assign_entries(probe)
    rows = len(b_cells) + len(p_cells)
    if grid.num_cells <= _DIRECTORY_CELLS_PER_ROW * rows:
        # O(len(build)) entries at the default resolution.
        population = np.bincount(b_cells, minlength=grid.num_cells)
        counts = np.take(population, p_cells)
        start = np.take(np.cumsum(population), p_cells) - counts
    else:
        b_cells = np.take(b_cells, order)
        start = np.searchsorted(b_cells, p_cells, side="left")
        counts = np.searchsorted(b_cells, p_cells, side="right") - start
    tests = int(counts.sum())

    out: list[np.ndarray] = []
    for block_lo, block_hi in chunked_blocks(counts):
        entry, within = expand_counts(counts[block_lo:block_hi])
        entry += block_lo
        if entry.size:
            cand = np.take(b_members, np.take(start, entry) + within)
            pj = np.take(p_members, entry)
            hit = boxes_overlap(
                np.take(build.lo, cand, axis=0),
                np.take(build.hi, cand, axis=0),
                np.take(probe.lo, pj, axis=0),
                np.take(probe.hi, pj, axis=0),
            )
            if hit.any():
                cand = cand[hit]
                pj = pj[hit]
                # Reference-point deduplication: report only from the
                # cell holding the low corner of the pairwise
                # intersection.
                ref = np.maximum(
                    np.take(build.lo, cand, axis=0),
                    np.take(probe.lo, pj, axis=0),
                )
                keep = grid.flat_ids(grid.cells_of_points(ref)) == (
                    p_cells[entry[hit]]
                )
                if keep.any():
                    out.append(
                        np.column_stack((cand[keep], pj[keep]))
                    )
    if not out:
        return np.empty((0, 2), dtype=np.intp), tests
    return np.concatenate(out), tests


def grid_hash_join_reference(
    build: BoxArray,
    probe: BoxArray,
    resolution: int | None = None,
) -> tuple[np.ndarray, int]:
    """Probe-at-a-time formulation of :func:`grid_hash_join`.

    Kept as the correctness/counting baseline: the vectorized kernel
    must report the same pair set and the exact same ``tests`` count
    (see ``tests/test_vectorization_equivalence.py`` and the benchmark
    trajectory's filter-phase measurement).
    """
    if len(build) == 0 or len(probe) == 0:
        return np.empty((0, 2), dtype=np.intp), 0
    if build.ndim != probe.ndim:
        raise ValueError("dimensionality mismatch")
    space = build.mbb().union(probe.mbb())
    if resolution is None:
        resolution = default_resolution(len(build), build.ndim)
    grid = UniformGrid(space, resolution)

    buckets = grid.assign(build)
    bucket_arrays = {
        cell: np.asarray(members, dtype=np.intp)
        for cell, members in buckets.items()
    }

    tests = 0
    out: list[np.ndarray] = []
    res = grid.resolution
    for j in range(len(probe)):
        q_lo = probe.lo[j]
        q_hi = probe.hi[j]
        for cell_tuple in grid.cells_of_box(probe.box(j)):
            flat = 0
            for c in cell_tuple:
                flat = flat * res + c
            members = bucket_arrays.get(flat)
            if members is None:
                continue
            cand_lo = build.lo[members]
            cand_hi = build.hi[members]
            tests += len(members)
            hit = np.all((cand_lo <= q_hi) & (cand_hi >= q_lo), axis=1)
            if not hit.any():
                continue
            hit_members = members[hit]
            # Reference-point deduplication: report only from the cell
            # holding the low corner of the pairwise intersection.
            ref = np.maximum(cand_lo[hit], q_lo)
            keep = np.all(
                grid.cells_of_points(ref)
                == np.asarray(cell_tuple, dtype=np.int64),
                axis=1,
            )
            kept = hit_members[keep]
            if kept.size:
                out.append(
                    np.column_stack(
                        (kept, np.full(kept.size, j, dtype=np.intp))
                    )
                )
    if not out:
        return np.empty((0, 2), dtype=np.intp), tests
    return np.concatenate(out), tests
