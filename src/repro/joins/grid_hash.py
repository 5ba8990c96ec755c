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
The ``tests`` counter is what a probe-at-a-time hash join performs:
every probe-cell visit charges the full bucket population, including
the duplicated tests multiple assignment causes, because that is the
work a real implementation does.  In closed form it is
``bincount(build_cells) @ bincount(probe_cells)`` over the two sides'
assignment rows, which the kernel tests check beside the pair set.

Two entry points, two bodies, on measurement.  A launch of
:func:`grid_hash_join_segments` is array-sized (TRANSFORMERS queues
≈ 16 k element rows, ≈ 36 k candidate tests) and so bandwidth-bound:
its body is *axis-major* — inputs in ``(d, n)`` column layout
(:func:`repro.vectorize.columns`), per-axis cell indices, the
mixed-radix counter decoded only where it is not 0 (65 % of the boxes
lie in one cell), candidates tested an axis at a time with the
survivors compacted in between (27 % / 7 % / 1.4 % of a join's 106 k
are left after axis 0 / 1 / 2).  Replaying a cold n = 12 000 join's
launches took 11.8 ms on it against the row-major body's 19.9 when it
replaced that body.  The TRANSFORMERS queue is gathered straight into
columns (:meth:`~repro.storage.page.ElementPage.gather_columns`) and
handed over as ``(n, d)`` views of them, so :func:`columns` copies
nothing there; a row-major caller pays one transpose per array.  With
that feed (and ``ndarray`` methods in place of the ``np.*`` wrappers)
the two launches of a ``cold_skewed`` n = 12 000 join (seed 11, 20 k
rows) replay in 4.8 ms against 6.2 on row-major inputs (median of 40
replays, shared 2-CPU Xeon, NumPy 2.4).
:func:`grid_hash_join` is what PBSM calls per cell pair, 64 times per
n = 3 000 join on ≈ 53 × 54 boxes, and those calls are bound by the
*number* of NumPy calls, not by bytes: the same cells cost 300 µs each
through the row-major body below and 408 µs as one-segment axis-major
launches, and a dedicated axis-major single-pair twin (byte-identical,
−45 % on an n = 3 500 pair, +7 % on the cells) cost ``serve_single``,
where two clients share one interpreter, +5.7 % ``miss_p50_ms``,
+16.6 % ``miss_p90_ms`` and −9.9 % ``ops_per_s``.  So the single-pair
kernel keeps its row-major body and both keep their bytes.  They
re-unify when PBSM hands its cell pairs to the segmented kernel as one
launch (ROADMAP G.2): no call-bound caller is left then, and
:func:`grid_hash_join` becomes the one-segment case.
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
    column_product,
    columns,
    expand_counts,
)

#: Memory-safety bound, not a performance selection: the bucket
#: directory (one entry per grid cell) is built while the grid has at
#: most this many cells per assignment row; past it buckets are
#: binary-searched, which needs no memory for empty cells.  At the
#: default resolution cells per row peak, over n = 1 .. 300 000 build
#: boxes and one probe box, at 0.98 in 1-D, 1.5 in 2-D, 2.7 in 3-D and
#: 5.3 in 4-D, so up to 4-D only an explicit ``resolution`` gets past
#: it.  In 5-D the peak is 10.7 (n = 2: 32 cells for 3 rows), so tiny
#: 5-D inputs are searched too.
_DIRECTORY_CELLS_PER_ROW = 8

#: Candidate tests expanded at once: a segmented launch then holds no
#: larger intermediates than one large page group did on its own.
_CANDIDATE_BLOCK = 1 << 14


def default_resolution(n: int, ndim: int) -> int:
    """Grid resolution heuristic: about one build-side box per cell.

    The BICOD '15 paper tunes cells-per-object near 1; we clamp the
    resolution to [1, 64] to keep degenerate inputs cheap.
    """
    if n <= 0:
        return 1
    return max(1, min(64, math.ceil(n ** (1.0 / ndim))))


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
    pairs = _report_candidates(
        build, probe, b_members, start, counts, p_cells, p_members, grid
    )
    return pairs, int(counts.sum())


def _report_candidates(
    build: BoxArray,
    probe: BoxArray,
    b_members: np.ndarray,
    start: np.ndarray,
    counts: np.ndarray,
    p_cells: np.ndarray,
    p_members: np.ndarray,
    grid: UniformGrid,
) -> np.ndarray:
    """The candidate block loop of :func:`grid_hash_join`: probe
    assignment row ``k`` (cell ``p_cells[k]`` of ``grid``) meets
    ``b_members[start[k]:start[k] + counts[k]]``."""
    out: list[np.ndarray] = []
    for block_lo, block_hi in chunked_blocks(counts, _CANDIDATE_BLOCK):
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
                cells = grid.flat_ids(grid.cells_of_points(ref))
                keep = cells == p_cells[entry[hit]]
                if keep.any():
                    out.append(
                        np.column_stack((cand[keep], pj[keep]))
                    )
    if not out:
        return np.empty((0, 2), dtype=np.intp)
    return np.concatenate(out)


def _segment_offsets(offsets: np.ndarray, rows: int) -> np.ndarray:
    cuts = np.asarray(offsets, dtype=np.intp)
    if cuts.ndim != 1 or cuts.size < 2 or cuts[0] != 0 or cuts[-1] != rows:
        raise ValueError(f"segment offsets must run from 0 to {rows}")
    if np.any(np.diff(cuts) <= 0):
        raise ValueError("segment offsets must ascend: no empty segment")
    return cuts


def grid_hash_join_segments(
    build: BoxArray,
    probe: BoxArray,
    build_offsets: np.ndarray,
    probe_offsets: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Many independent grid hash joins as one launch.

    Segment ``s`` joins ``build[bo[s]:bo[s + 1]]`` with
    ``probe[po[s]:po[s + 1]]`` on a grid of its own, as
    :func:`grid_hash_join` would; cell ids are offset by the cells of
    the segments before, so one sort and one directory serve them all.
    Returns global ``(build_row, probe_row)`` pairs in the order the
    per-segment calls would emit them, each pair's segment and every
    segment's test count — the same float operations per coordinate
    (``x - lo``, ``/ size``, ``floor``, clamp), so equal to
    :func:`grid_hash_join_per_segment` byte for byte.

    The body is axis-major (see the module docstring): inputs are read
    as ``(d, n)`` columns (free when their bounds are views of columns,
    as :meth:`~repro.storage.page.ElementPage.gather_columns` makes
    them; one transpose otherwise), each box's cell block comes from
    per-axis index rows, and a candidate is tested one axis at a time,
    only the survivors of an axis reaching the next.
    """
    if build.ndim != probe.ndim:
        raise ValueError("dimensionality mismatch")
    bo = _segment_offsets(build_offsets, len(build))
    po = _segment_offsets(probe_offsets, len(probe))
    if len(bo) != len(po):
        raise ValueError("build and probe offsets name different segments")
    ndim = build.ndim
    # One resolution per distinct build size: an element split queues
    # hundreds of one-box build sides.
    sizes, size_of = np.unique(np.diff(bo), return_inverse=True)
    res = np.array([default_resolution(n, ndim) for n in sizes.tolist()])[size_of]
    first_cell = (res**ndim).cumsum() - res**ndim
    num_cells = int(first_cell[-1] + res[-1] ** ndim)
    # Row ``k`` of every ``(d, n)`` array below is axis ``k``, contiguous.
    # ``lo``/``size``: every segment's grid, laid out as ``UniformGrid``
    # does.
    b_lo, b_hi = columns(build.lo), columns(build.hi)
    p_lo, p_hi = columns(probe.lo), columns(probe.hi)
    lo = np.minimum(
        np.minimum.reduceat(b_lo, bo[:-1], axis=1),
        np.minimum.reduceat(p_lo, po[:-1], axis=1),
    )
    hi = np.maximum(
        np.maximum.reduceat(b_hi, bo[:-1], axis=1),
        np.maximum.reduceat(p_hi, po[:-1], axis=1),
    )
    size = np.where(hi - lo <= 0.0, 1.0, hi - lo) / res

    def cells_of(points: np.ndarray, seg: np.ndarray) -> np.ndarray:
        """``(d, n)`` cell indices of ``(d, n)`` points, column ``j`` on
        the grid of segment ``seg[j]``."""
        scaled = points - lo.take(seg, axis=1)
        scaled /= size.take(seg, axis=1)
        idx = np.floor(scaled).astype(np.int64)
        np.maximum(idx, 0, out=idx)
        np.minimum(idx, res.take(seg) - 1, out=idx)
        return idx

    def flat_ids(idx: np.ndarray, seg: np.ndarray) -> np.ndarray:
        row_res = res.take(seg)
        flat = idx[0]
        for axis in range(1, ndim):
            flat = flat * row_res + idx[axis]
        return flat + first_cell.take(seg)

    def assign(
        lo_points: np.ndarray, hi_points: np.ndarray, cuts: np.ndarray
    ) -> tuple[np.ndarray, ...]:
        seg = np.arange(len(res)).repeat(np.diff(cuts))
        lo_idx = cells_of(lo_points, seg)
        spans = cells_of(hi_points, seg)
        spans -= lo_idx
        spans += 1
        count = column_product(spans.T)
        members = np.arange(len(seg), dtype=np.intp).repeat(count)
        # Every row starts at its box's low cell; the mixed-radix counter
        # over the box's own spans is decoded, last axis fastest, only
        # where it is not 0 (never inside a single-cell box).
        cells = flat_ids(lo_idx, seg).take(members)
        counter = np.arange(len(members)) - (count.cumsum() - count).take(members)
        rows = np.flatnonzero(counter)
        rem = counter.take(rows)
        box = members.take(rows)
        row_res = res.take(seg.take(box))
        step = np.zeros(len(rows), dtype=np.int64)
        weight: int | np.ndarray = 1
        for axis in range(ndim - 1, 0, -1):
            radix = spans[axis].take(box)
            step += (rem % radix) * weight
            rem //= radix
            weight = weight * row_res
        step += rem * weight
        cells[rows] += step
        return cells, members, seg

    b_cells, b_members, b_seg = assign(b_lo, b_hi, bo)
    p_cells, p_members, p_seg = assign(p_lo, p_hi, po)
    if num_cells > _DIRECTORY_CELLS_PER_ROW * (len(b_cells) + len(p_cells)):
        # Too fine for a directory; only ``grid_hash_join`` can search.
        return grid_hash_join_per_segment(build, probe, bo, po)
    # Stable, so every bucket lists its members in ascending order.
    b_members = b_members.take(np.argsort(b_cells, kind="stable"))
    population = np.bincount(b_cells, minlength=num_cells)
    counts = population.take(p_cells)
    start = population.cumsum().take(p_cells) - counts

    out: list[np.ndarray] = []
    for block_lo, block_hi in chunked_blocks(counts, _CANDIDATE_BLOCK):
        entry, within = expand_counts(counts[block_lo:block_hi])
        entry += block_lo
        cand = b_members.take(start.take(entry) + within)
        pj = p_members.take(entry)
        # One axis at a time over the survivors of the axes before.
        for axis in range(ndim):
            hit = b_lo[axis].take(cand) <= p_hi[axis].take(pj)
            hit &= b_hi[axis].take(cand) >= p_lo[axis].take(pj)
            live = np.flatnonzero(hit)
            cand, pj, entry = (x.take(live) for x in (cand, pj, entry))
        if cand.size:
            # Reference-point deduplication: report only from the cell
            # holding the low corner of the pairwise intersection.
            ref = np.maximum(
                b_lo.take(cand, axis=1), p_lo.take(pj, axis=1)
            )
            seg = p_seg.take(pj)
            keep = flat_ids(cells_of(ref, seg), seg) == p_cells.take(entry)
            if keep.any():
                out.append(np.column_stack((cand[keep], pj[keep])))
    pairs = np.concatenate(out) if out else np.empty((0, 2), dtype=np.intp)
    # Every probe box has an assignment row, so no segment's run is empty.
    tests = np.add.reduceat(counts, np.searchsorted(p_members, po[:-1]))
    return pairs, b_seg.take(pairs[:, 0]), tests


def grid_hash_join_per_segment(
    build: BoxArray,
    probe: BoxArray,
    build_offsets: np.ndarray,
    probe_offsets: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One :func:`grid_hash_join` call per segment: the segmented
    kernel's fallback where it builds no directory, and what it equals
    byte for byte."""
    slices = zip(build.split(build_offsets), probe.split(probe_offsets))
    hits, tests = zip(*(grid_hash_join(b, p) for b, p in slices))
    firsts = zip(build_offsets, probe_offsets)
    pairs = np.concatenate([hit + first for hit, first in zip(hits, firsts)])
    segments = np.repeat(np.arange(len(hits)), [len(hit) for hit in hits])
    return pairs, segments, np.array(tests)

