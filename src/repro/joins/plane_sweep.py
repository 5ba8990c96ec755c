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
the sequential sweep performs; :func:`plane_sweep_join_reference` keeps
that sequential formulation as the equivalence/benchmark baseline.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.boxes import BoxArray
from repro.vectorize import (
    boxes_overlap,
    chunked_blocks,
    expand_counts,
    vectorized_kernel,
)


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


@vectorized_kernel
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


def plane_sweep_join_reference(
    a: BoxArray, b: BoxArray
) -> tuple[np.ndarray, int]:
    """Element-at-a-time formulation of :func:`plane_sweep_join`.

    Kept as the correctness/counting baseline: the vectorized kernel
    must report the same pair set and the exact same ``tests`` count
    (see ``tests/test_vectorization_equivalence.py`` and
    ``tests/test_kernel_identity.py``).
    """
    if len(a) == 0 or len(b) == 0:
        return np.empty((0, 2), dtype=np.intp), 0
    if a.ndim != b.ndim:
        raise ValueError("dimensionality mismatch")

    a_order = np.argsort(a.lo[:, 0], kind="stable")
    b_order = np.argsort(b.lo[:, 0], kind="stable")
    a_lo, a_hi = a.lo[a_order], a.hi[a_order]
    b_lo, b_hi = b.lo[b_order], b.hi[b_order]

    tests = 0
    out: list[np.ndarray] = []
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        if a_lo[i, 0] <= b_lo[j, 0]:
            # a[i] opens first: scan b entries whose x-lo falls inside
            # a[i]'s x-extent.
            k = j
            limit = a_hi[i, 0]
            while k < nb and b_lo[k, 0] <= limit:
                tests += 1
                if np.all(b_lo[k] <= a_hi[i]) and np.all(b_hi[k] >= a_lo[i]):
                    out.append(
                        np.array([[a_order[i], b_order[k]]], dtype=np.intp)
                    )
                k += 1
            i += 1
        else:
            k = i
            limit = b_hi[j, 0]
            while k < na and a_lo[k, 0] <= limit:
                tests += 1
                if np.all(a_lo[k] <= b_hi[j]) and np.all(a_hi[k] >= b_lo[j]):
                    out.append(
                        np.array([[a_order[k], b_order[j]]], dtype=np.intp)
                    )
                k += 1
            j += 1
    if not out:
        return np.empty((0, 2), dtype=np.intp), tests
    return np.concatenate(out), tests
