"""d-dimensional Hilbert curve encoding and decoding.

TRANSFORMERS indexes the Hilbert value of the centre point of every
space node with a B+-tree (paper, Section V, "Adaptive Walk") so that
the adaptive walk can find a *start descriptor* close to the current
pivot without paying the overlap cost of an R-tree lookup.  This module
provides the curve itself.

The implementation follows John Skilling, "Programming the Hilbert
curve", AIP Conference Proceedings 707 (2004): coordinates are
converted to/from the *transpose* representation with O(b·d) bit
operations, where ``b`` is the number of bits per axis and ``d`` the
dimensionality.

Two calling conventions are offered:

* integer lattice points — :func:`hilbert_index` / :func:`hilbert_point`,
* floating-point coordinates inside a bounding :class:`~repro.geometry.box.Box`
  — :func:`hilbert_index_batch`, which quantises to the lattice first.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.geometry.box import Box


def _axes_to_transpose(coords: list[int], bits: int) -> list[int]:
    """Skilling's AxestoTranspose: lattice point -> transpose form."""
    ndim = len(coords)
    x = list(coords)
    m = 1 << (bits - 1)
    # Inverse undo excess work.
    q = m
    while q > 1:
        p = q - 1
        for i in range(ndim):
            if x[i] & q:
                x[0] ^= p
            else:
                t = (x[0] ^ x[i]) & p
                x[0] ^= t
                x[i] ^= t
        q >>= 1
    # Gray encode.
    for i in range(1, ndim):
        x[i] ^= x[i - 1]
    t = 0
    q = m
    while q > 1:
        if x[ndim - 1] & q:
            t ^= q - 1
        q >>= 1
    for i in range(ndim):
        x[i] ^= t
    return x


def _transpose_to_axes(x: list[int], bits: int) -> list[int]:
    """Skilling's TransposetoAxes: transpose form -> lattice point."""
    ndim = len(x)
    x = list(x)
    n = 2 << (bits - 1)
    # Gray decode by H ^ (H/2).
    t = x[ndim - 1] >> 1
    for i in range(ndim - 1, 0, -1):
        x[i] ^= x[i - 1]
    x[0] ^= t
    # Undo excess work.
    q = 2
    while q != n:
        p = q - 1
        for i in range(ndim - 1, -1, -1):
            if x[i] & q:
                x[0] ^= p
            else:
                t = (x[0] ^ x[i]) & p
                x[0] ^= t
                x[i] ^= t
        q <<= 1
    return x


def _transpose_to_index(x: Sequence[int], bits: int) -> int:
    """Interleave the transpose words into a single Hilbert index."""
    ndim = len(x)
    index = 0
    for bit in range(bits - 1, -1, -1):
        for i in range(ndim):
            index = (index << 1) | ((x[i] >> bit) & 1)
    return index


def _index_to_transpose(index: int, bits: int, ndim: int) -> list[int]:
    """De-interleave a Hilbert index into transpose words."""
    x = [0] * ndim
    position = bits * ndim - 1
    for bit in range(bits - 1, -1, -1):
        for i in range(ndim):
            x[i] |= ((index >> position) & 1) << bit
            position -= 1
    return x


def hilbert_index(coords: Sequence[int], bits: int) -> int:
    """Hilbert index of an integer lattice point.

    ``coords`` are per-axis integers in ``[0, 2**bits)``; the result is
    in ``[0, 2**(bits*d))``.  Consecutive indices correspond to lattice
    points at L1 distance 1 (the defining property of the curve, and
    the one the property-based tests verify).

    >>> hilbert_index((0, 0), bits=1)
    0
    >>> hilbert_index((1, 0), bits=1)
    3
    """
    if bits < 1:
        raise ValueError("bits must be >= 1")
    limit = 1 << bits
    for c in coords:
        if not 0 <= c < limit:
            raise ValueError(f"coordinate {c} out of [0, {limit}) range")
    return _transpose_to_index(_axes_to_transpose(list(coords), bits), bits)


def hilbert_point(index: int, bits: int, ndim: int) -> tuple[int, ...]:
    """Inverse of :func:`hilbert_index`.

    >>> hilbert_point(hilbert_index((3, 5, 1), bits=3), bits=3, ndim=3)
    (3, 5, 1)
    """
    if bits < 1:
        raise ValueError("bits must be >= 1")
    if ndim < 1:
        raise ValueError("ndim must be >= 1")
    if not 0 <= index < (1 << (bits * ndim)):
        raise ValueError("index out of range for the given bits/ndim")
    return tuple(_transpose_to_axes(_index_to_transpose(index, bits, ndim), bits))


def quantize(points: np.ndarray, space: Box, bits: int) -> np.ndarray:
    """Map float points inside ``space`` onto the ``2**bits`` lattice.

    Points on the upper boundary map to the last lattice cell.  Points
    outside ``space`` are clamped — the callers hand in points that are
    inside by construction, but floating-point noise at the boundary
    must not crash an index build.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != space.ndim:
        raise ValueError("points must have shape (n, space.ndim)")
    lo = np.asarray(space.lo)
    extent = np.asarray(space.hi) - lo
    extent = np.where(extent <= 0.0, 1.0, extent)
    scaled = (points - lo) / extent * (1 << bits)
    lattice = np.clip(scaled.astype(np.int64), 0, (1 << bits) - 1)
    return lattice


#: Points at which the array transform overtakes the scalar loop: one
#: round of array operations costs about as much as 20 scalar keys
#: (d = 3, ``bits`` 10 and 21).
_ARRAY_MIN_POINTS = 20


def _lattice_to_index(lattice: np.ndarray, bits: int) -> np.ndarray:
    """:func:`hilbert_index` of every row of an ``(n, d)`` lattice array.

    Skilling's AxestoTranspose runs as in the scalar form, one array
    operation per step; the Gray-code fix-up and the interleave are
    integer-exact rearrangements of the scalar loops (a prefix XOR, one
    shift-and-sum over every (axis, bit)), so every key is equal.
    """
    ndim = lattice.shape[1]
    x = [lattice[:, i].copy() for i in range(ndim)]
    # Inverse undo excess work.
    q = 1 << (bits - 1)
    while q > 1:
        p = q - 1
        for i in range(ndim):
            high = (x[i] & q) != 0
            t = np.where(high, 0, (x[0] ^ x[i]) & p)
            x[0] ^= np.where(high, p, t)
            x[i] ^= t
        q >>= 1
    # Gray encode; bit j of ``t`` is the parity of the last word's bits
    # above j, the XOR the scalar loop accumulates one ``q`` at a time.
    for i in range(1, ndim):
        x[i] ^= x[i - 1]
    t = x[ndim - 1] >> 1
    for shift in (1, 2, 4, 8, 16, 32):
        t ^= t >> shift
    words = np.stack(x) ^ t
    # Bit b of word i lands at position b * ndim + (ndim - 1 - i).
    planes = (words[:, :, None] >> np.arange(bits)) & 1
    shifts = np.arange(bits) * ndim + np.arange(ndim - 1, -1, -1)[:, None]
    index: np.ndarray = (planes << shifts[:, None, :]).sum(axis=(0, 2))
    return index


def hilbert_index_batch(points: np.ndarray, space: Box, bits: int = 10) -> np.ndarray:
    """Hilbert indices for a batch of float points inside ``space``.

    This is the call TRANSFORMERS' indexer makes for the centre points
    of all space nodes.  ``bits=10`` gives a 2¹⁰ lattice per axis —
    ample resolution relative to the partition granularity.

    Returns an ``(n,)`` ``uint64``-compatible integer array (``object``
    dtype is avoided by capping ``bits * ndim`` at 63).  Fewer than
    ``_ARRAY_MIN_POINTS`` points (the walk's start lookup, the node
    centres of a small index) take the scalar transform point by point;
    more take the array form, whose cost barely grows with ``n``.
    """
    lattice = quantize(points, space, bits)
    ndim = lattice.shape[1]
    if bits * ndim > 63:
        raise ValueError("bits * ndim must be <= 63 to fit in int64")
    if bits < 1:
        raise ValueError("bits must be >= 1")
    if len(lattice) < _ARRAY_MIN_POINTS:
        return np.array(
            [hilbert_index(row, bits) for row in lattice.tolist()], dtype=np.int64
        )
    return _lattice_to_index(lattice, bits)
