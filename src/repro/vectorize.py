"""Shared NumPy helpers for the vectorized hot paths.

The filter-phase kernels (plane sweep, grid hash), the grid's
multiple-assignment expansion and the TRANSFORMERS exploration all rely
on the same eight idioms:

* **ragged expansion** — turning a per-group candidate count into flat
  ``(group, within)`` index rows without a Python loop;
* **chunked blocks** — walking groups in slabs whose total expansion
  stays near a bound, so broadcast intermediates remain cache- and
  memory-friendly however skewed the counts are;
* **short-axis reduction → column ops** — a box has d = 2–4
  coordinates, and a NumPy reduction over so short an axis costs far
  more than its arithmetic: for one pivot's 2 200 candidate rows, d = 3,
  ``np.all(mask, axis=1)`` takes ~50 µs against 5–17 µs for ANDing the
  columns, ``np.prod(spans, axis=1)`` 15 µs against 2 µs for multiplying
  them (same order, so bit-identical).  :func:`boxes_overlap`,
  :func:`all_columns` and :func:`column_product` are the column forms;
* **row gather → ``np.take``** — ``arr[idx]`` takes the general
  fancy-indexing path (27 µs for 2 200 rows of 3),
  ``np.take(arr, idx, axis=0)`` copies rows directly (9 µs);
* **segment ids → one launch** — a kernel called on many small inputs
  pays its fixed cost (≈ 30 NumPy calls, a ``Box``, a grid) each time:
  a cold join's 48 page groups of ≈ 250 × 680 boxes take 17–24 ms one
  ``grid_hash_join`` at a time and 13.5 ms as one
  ``grid_hash_join_segments`` launch whose rows carry their segment's
  parameters, 230–310 one-page groups 44–58 ms against 9 ms;
* **short axis → contiguous columns** — boxes are ``(n, d)`` row-major,
  so every per-axis step reads a stride-``d`` column and every bound
  reduces over ``n`` rows of ``d``: ``lo.min(axis=0)`` on 12 000 × 3
  takes 296 µs against 20 µs over the ``(d, n)`` copy, copy included
  (:func:`columns`, :func:`column_min`, :func:`column_max`); comparing
  one column of 110 k candidate rows 225 µs strided against 39 µs
  contiguous; gathering 16 k candidate rows of 3 takes 79 µs where one
  1-D ``take`` per axis *that still has survivors* takes 27 µs.  (Two
  neighbours of the idiom, measured with it: compacting with
  ``flatnonzero`` + ``take`` is 48 µs for three 16 k arrays, 291 µs by
  boolean mask; ``np.take(x, members)`` 36 µs where ``np.repeat(x,
  counts)`` is 131 µs.)  **Not** for call-bound inputs: the transpose
  and the per-axis loop are extra NumPy calls, which is all a small
  input pays for — below ≈ 50 rows ``column_min`` is level with the
  reduction (1.7 against 1.2–3.4 µs), a 2 × 83-row node-level
  ``reduceat`` is 1.2 µs on rows and 2.1 µs on columns, and PBSM's
  ≈ 53 × 54-box cell joins run 300 µs each row-major, 408 µs axis-major
  (see :mod:`repro.joins.grid_hash`);
* **rows of a run → one ``take`` over expanded ranges, not a
  ``concatenate`` of views** — pages are windows ``[start, stop)`` onto
  the array they were split from, so the rows of a page group are
  ``np.take(run, arange(total) + repeat(start - offset, count))``,
  the bounds straight into ``(d, n)`` columns by indexing the run's
  flat buffer with a ``(d, m)`` array of offsets (a ``take`` from a
  strided column would first copy the run's whole column): 2 640
  17-row pages take 5.0 ms as a ``concatenate`` of their views and
  1.4 ms as one gather, 48 pages 86 against 22 µs
  (:meth:`~repro.storage.page.ElementPage.gather_columns`; min of
  200 / 2 000, shared 2-CPU Xeon, NumPy 2.4).
  **Not** for a few large parts: the index arrays are fixed cost, level
  at a dozen parts (16 against 18 µs) and behind below — 4 parts of 53
  rows 11 µs concatenated, 17 µs gathered — which is why PBSM's
  1–4-page cells keep their ``concatenate``;
* **structured-row unique → one integer key** — ``np.unique(pairs,
  axis=0)`` sorts the rows as a structured dtype, field by field
  through a generic compare: 543 µs for 1 320 id pairs, 1 684 µs for
  3 630 (min of 300, Xeon, NumPy 2.4).  Mapped to the key ``(a -
  a_min) * span_b + (b - b_min)``, which orders like the row, they are
  a plain 1-D sort and a compare of neighbours, 34 and 72 µs for the
  same bytes
  (:func:`~repro.joins.base.canonical_pairs`, which falls back to
  ``lexsort`` when the key could overflow).

Keeping them here (rather than one private copy per kernel) means a
fix to the expansion, chunking or overlap behaviour lands everywhere at
once.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

#: Default upper bound on expanded rows materialised at once.
EXPANSION_CHUNK = 1 << 19


def all_columns(mask: np.ndarray) -> np.ndarray:
    """``np.all(mask, axis=-1)``, ANDed one column at a time."""
    out: np.ndarray = np.ones(mask.shape[:-1], dtype=bool)
    for k in range(mask.shape[-1]):
        out &= mask[..., k]
    return out


def column_product(values: np.ndarray) -> np.ndarray:
    """``np.prod(values, axis=-1)``, multiplied one column at a time."""
    out: np.ndarray = values[..., 0].copy()
    for k in range(1, values.shape[-1]):
        out *= values[..., k]
    return out


def columns(values: np.ndarray) -> np.ndarray:
    """The contiguous transpose of ``(n, d)`` ``values``: row ``k`` of
    the ``(d, n)`` result is column ``k``, laid out for streaming.  Its
    own inverse, so it also takes per-axis results back to row-major."""
    return np.ascontiguousarray(values.T)


def column_min(values: np.ndarray) -> np.ndarray:
    """``values.min(axis=0)`` of ``(n, d)`` values, over contiguous columns."""
    out: np.ndarray = columns(values).min(axis=1)
    return out


def column_max(values: np.ndarray) -> np.ndarray:
    """``values.max(axis=0)`` of ``(n, d)`` values, over contiguous columns."""
    out: np.ndarray = columns(values).max(axis=1)
    return out


def boxes_overlap(
    a_lo: np.ndarray, a_hi: np.ndarray, b_lo: np.ndarray, b_hi: np.ndarray
) -> np.ndarray:
    """Do the closed boxes ``[a_lo, a_hi]`` and ``[b_lo, b_hi]`` meet?

    Coordinates on the last axis, leading axes broadcast: ``(n, d)``
    against ``(d,)`` tests n boxes against one query, ``(G, 1, d)``
    against ``(1, F, d)`` gives the cross matrix.  Touching faces meet,
    a NaN bound meets nothing.  The kernels, the crawl and the range
    queries share it.
    """
    if not a_lo.shape[-1]:
        # No axis to separate the boxes: every pair meets.
        return np.ones(np.broadcast_shapes(a_lo.shape[:-1], b_lo.shape[:-1]), bool)
    # The first comparison is already the broadcast shape; starting from
    # it spares a ``broadcast_shapes`` and an ``ones`` per call.
    hit: np.ndarray = a_lo[..., 0] <= b_hi[..., 0]
    hit &= a_hi[..., 0] >= b_lo[..., 0]
    for k in range(1, a_lo.shape[-1]):
        hit &= a_lo[..., k] <= b_hi[..., k]
        hit &= a_hi[..., k] >= b_lo[..., k]
    return hit


def expand_counts(
    counts: np.ndarray, dtype: type = np.intp
) -> tuple[np.ndarray, np.ndarray]:
    """Flat ``(group, within)`` rows for a ragged expansion.

    ``counts[g]`` gives group ``g``'s row count; the result enumerates
    every row as its group index and its 0-based offset inside the
    group, in group-major order.
    """
    ends = np.cumsum(counts)
    total = int(ends[-1]) if ends.size else 0
    if total == 0:
        return np.empty(0, dtype=dtype), np.empty(0, dtype=dtype)
    group = np.repeat(np.arange(len(counts), dtype=dtype), counts)
    within = np.arange(total, dtype=dtype) - np.repeat(ends - counts, counts)
    return group, within


def chunked_blocks(
    counts: np.ndarray, chunk: int = EXPANSION_CHUNK
) -> Iterator[tuple[int, int]]:
    """Half-open group blocks whose total expansion stays near ``chunk``.

    Always yields at least one group per block, so a single group
    larger than ``chunk`` still goes through (as its own block).
    """
    ends = np.cumsum(counts)
    n = len(counts)
    lo = 0
    while lo < n:
        done = int(ends[lo - 1]) if lo else 0
        hi = int(np.searchsorted(ends, done + chunk, side="left"))
        hi = min(max(hi, lo + 1), n)
        yield lo, hi
        lo = hi
