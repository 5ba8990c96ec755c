"""In-memory plane-sweep join.

The kernel the synchronized R-tree traversal uses to join the element
sets of two intersecting leaves (paper Section VII-A: "R-TREE uses the
plane sweep").  Both inputs are sorted on the low x-coordinate; a
forward sweep then only compares elements whose x-extents overlap,
testing the remaining axes explicitly.

The sweep is evaluated as NumPy batch operations: the set of candidates
an element-at-a-time sweep would scan — for ``a[i]``, every ``b[k]``
with ``a.lo[i] <= b.lo[k] <= a.hi[i]``, and symmetrically (strictly
after) for the ``b``-driven side — is located with two
``np.searchsorted`` strips over the sorted low coordinates, then the
remaining axes are tested over the expanded candidate blocks.  The
reported ``tests`` counter is exactly the number of full box-box tests
the sequential sweep performs: the ``(a, b)`` pairs with ``a.lo_x <=
b.lo_x <= a.hi_x`` plus those with ``b.lo_x < a.lo_x <= b.hi_x``, the
closed form the kernel tests check beside the pair set.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.boxes import BoxArray
from repro.vectorize import boxes_overlap, chunked_blocks, expand_counts


def _candidate_hits(
    drv_lo: np.ndarray,
    drv_hi: np.ndarray,
    oth_lo: np.ndarray,
    oth_hi: np.ndarray,
    start: np.ndarray,
    stop: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Intersecting (driver, other) position pairs among the candidates.

    ``start``/``stop`` give, per driver element, the half-open range of
    candidate positions in the other (sorted) input.  The candidate
    ranges already guarantee x-overlap (the other box *opens* inside
    the driver's x-extent), so only axes 1.. are tested.  Work proceeds
    in driver blocks of bounded total expansion.
    """
    counts = stop - start
    hits_d: list[np.ndarray] = []
    hits_o: list[np.ndarray] = []
    for block_lo, block_hi in chunked_blocks(counts):
        d, within = expand_counts(counts[block_lo:block_hi])
        d += block_lo
        if d.size:
            o = start[d] + within
            ok = boxes_overlap(
                np.take(drv_lo, d, axis=0)[:, 1:],
                np.take(drv_hi, d, axis=0)[:, 1:],
                np.take(oth_lo, o, axis=0)[:, 1:],
                np.take(oth_hi, o, axis=0)[:, 1:],
            )
            if ok.any():
                hits_d.append(d[ok])
                hits_o.append(o[ok])
    if not hits_d:
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
    return np.concatenate(hits_d), np.concatenate(hits_o)


def plane_sweep_join(a: BoxArray, b: BoxArray) -> tuple[np.ndarray, int]:
    """Join two in-memory box sets with a forward plane sweep.

    Returns ``(pairs, tests)``: ``pairs`` is an ``(m, 2)`` array of
    ``(a_index, b_index)``; ``tests`` counts full box-box tests, i.e.
    every candidate whose x-interval overlaps (the sweep's stopping
    rule itself — comparing two x-coordinates — is not counted, again
    matching what the comparison counters in the paper's figures mean).
    """
    if len(a) == 0 or len(b) == 0:
        return np.empty((0, 2), dtype=np.intp), 0
    if a.ndim != b.ndim:
        raise ValueError("dimensionality mismatch")

    a_order = np.argsort(a.lo[:, 0], kind="stable")
    b_order = np.argsort(b.lo[:, 0], kind="stable")
    a_lo, a_hi = np.take(a.lo, a_order, axis=0), np.take(a.hi, a_order, axis=0)
    b_lo, b_hi = np.take(b.lo, b_order, axis=0), np.take(b.hi, b_order, axis=0)
    ax, bx = a_lo[:, 0], b_lo[:, 0]

    # a-driven scans: a[i] opens first (ties included) and scans every
    # b whose low x falls inside a[i]'s x-extent.
    a_start = np.searchsorted(bx, ax, side="left")
    a_stop = np.searchsorted(bx, a_hi[:, 0], side="right")
    # b-driven scans: strictly-later-opening a's within b[j]'s x-extent
    # (an a opening at the same x was handled by the a-driven side).
    b_start = np.searchsorted(ax, bx, side="right")
    b_stop = np.searchsorted(ax, b_hi[:, 0], side="right")

    tests = int((a_stop - a_start).sum() + (b_stop - b_start).sum())

    da, oa = _candidate_hits(a_lo, a_hi, b_lo, b_hi, a_start, a_stop)
    db, ob = _candidate_hits(b_lo, b_hi, a_lo, a_hi, b_start, b_stop)
    if da.size == 0 and db.size == 0:
        return np.empty((0, 2), dtype=np.intp), tests
    pairs = np.concatenate(
        (
            np.column_stack((a_order[da], b_order[oa])),
            np.column_stack((a_order[ob], b_order[db])),
        )
    )
    return pairs, tests

