"""Sort-Tile-Recursive (STR) packing.

STR (Leutenegger, Lopez & Edgington, ICDE '97) partitions ``n`` points
into tiles of at most ``capacity`` points by recursively sorting along
one axis at a time: sort on x, cut into vertical slabs, sort each slab
on y, cut again, and so on.  The result preserves spatial locality —
points in one tile are close together — which is exactly the property
the paper relies on for its data-oriented partitioning: "It first sorts
the dataset on the x-dimension ... All resulting partitions are then
sorted on the y-dimension and partitioned again" (Section IV).

TRANSFORMERS uses this both to form space units from elements and to
group space units into space nodes; the R-tree bulk-loader uses it at
every level.

There is one implementation, :func:`str_tiling`, and it works a whole
recursion *level* at a time: all slabs of one axis are sorted together
(stably by coordinate, then stably by slab — the order
``lexsort((coordinate, slab))`` gives) and cut with array arithmetic,
so the cost is a few NumPy calls per axis, not per slab.
A slab's points stay one contiguous run of the permutation and slabs
keep their left-to-right positions, so the tiles — read off the final
permutation front to back — come out in the same depth-first order,
with the same members in the same order (ties broken by the previous
axis' order, as a stable per-slab sort would), as the textbook
recursion; ``tests/test_index_str.py`` keeps that recursion as the
reference.  :func:`str_partition` and :func:`str_partition_with_bounds`
are thin list-returning wrappers.
"""

from __future__ import annotations

import math

import numpy as np

from repro._types import FloatArray, IntArray
from repro.geometry.box import Box


def _stable_argsort(key: FloatArray) -> IntArray:
    """``np.argsort(key, kind="stable")`` for keys that rarely tie.

    NumPy's default float sort is ~5x faster than its stable one, and
    where all keys differ the two agree.  So sort unstably, then put
    only the runs of equal (or NaN) keys into the stable order, which
    among equals is ascending position.
    """
    perm = np.argsort(key)
    ordered = key[perm]
    # rising[i]: slot i holds a strictly larger key than slot i - 1.
    rising = np.ones(len(key) + 1, dtype=bool)
    rising[1:-1] = ordered[1:] > ordered[:-1]
    tied = np.flatnonzero(~(rising[:-1] & rising[1:]))
    positions = perm[tied]
    perm[tied] = positions[np.lexsort((positions, ordered[tied]))]
    return perm


def str_tiling(
    centers: np.ndarray, capacity: int, space: Box | None = None
) -> tuple[IntArray, IntArray, FloatArray, FloatArray]:
    """STR-partition points; everything comes back as arrays.

    Returns ``(order, offsets, part_lo, part_hi)``: tile ``t`` holds the
    point indices ``order[offsets[t]:offsets[t + 1]]`` and owns the
    gap-free partition bounds ``[part_lo[t], part_hi[t]]`` (see
    :func:`str_partition_with_bounds`).  The bounds tile ``space``, or
    all of R^d when no space is given.
    """
    centers = np.asarray(centers, dtype=np.float64)
    if centers.ndim != 2:
        raise ValueError("centers must be a 2-D array of shape (n, d)")
    if capacity < 1:
        raise ValueError("capacity must be >= 1")
    n, ndim = centers.shape
    if space is None:
        lo = np.full((1, ndim), -np.inf)
        hi = np.full((1, ndim), np.inf)
    elif space.ndim != ndim:
        raise ValueError("space dimensionality must match centers")
    else:
        lo = np.array([space.lo], dtype=np.float64)
        hi = np.array([space.hi], dtype=np.float64)
    order = np.arange(n, dtype=np.intp)
    if n == 0:
        return order, np.zeros(1, dtype=np.intp), lo[:0], hi[:0]
    # A *group* is one slab of the previous axis: the run
    # order[edges[g]:edges[g + 1]] inside the region [lo[g], hi[g]].
    edges = np.array([0, n], dtype=np.intp)
    for axis in range(ndim):
        sizes = np.diff(edges)
        split = sizes > capacity
        if not split.any():
            break
        # The narrowest dtype that holds the slab ids: NumPy's stable
        # sort is a radix sort for <= 16-bit integers.
        ids = np.arange(len(sizes), dtype=np.min_scalar_type(len(sizes)))
        group = np.repeat(ids, sizes)
        # Runs that already fit are finished tiles and keep their order:
        # their key is their position.
        key = np.where(split[group], centers[order, axis], np.arange(n))
        perm = _stable_argsort(key)
        perm = perm[np.argsort(group[perm], kind="stable")]
        order = order[perm]
        coord = key[perm]
        if axis == ndim - 1:
            # Final axis: cut the sorted run directly into full tiles.
            step = np.where(split, capacity, sizes)
        else:
            # How many tiles will this subtree produce, and how many
            # slabs along this axis let the remaining axes finish the
            # job?  Classic STR: slabs = ceil(P ** (1 / remaining_axes)).
            root = 1.0 / (ndim - axis)
            slabs = [
                max(1, math.ceil(tiles**root))
                for tiles in (-(-sizes // capacity)).tolist()
            ]
            step = np.where(split, -(-sizes // slabs), sizes)
        counts = -(-sizes // step)
        parent = np.repeat(np.arange(len(sizes)), counts)
        nth = np.arange(len(parent)) - (np.cumsum(counts) - counts)[parent]
        starts = edges[parent] + nth * step[parent]
        lo = lo[parent]
        hi = hi[parent]
        # Every split plane lies halfway between the last centre of one
        # slab and the first centre of the next.
        later = np.flatnonzero(nth)
        cut = starts[later]
        lo[later, axis] = (coord[cut - 1] + coord[cut]) / 2.0
        hi[later - 1, axis] = lo[later, axis]
        edges = np.append(starts, n)
    if np.any(lo > hi):
        raise ValueError("space does not contain every centre")
    return order, edges, lo, hi


def str_partition(
    centers: np.ndarray, capacity: int
) -> list[np.ndarray]:
    """Partition points into STR tiles of at most ``capacity`` points.

    Parameters
    ----------
    centers:
        ``(n, d)`` array of point coordinates (element centres).
    capacity:
        Maximum number of points per tile (e.g. how many element
        records fit on one disk page).

    Returns
    -------
    list of ``(k_i,)`` index arrays, one per tile, in STR order (tiles
    that are adjacent in the list are spatially close, so writing them
    out in order yields a disk layout with spatial locality).  Every
    input index appears in exactly one tile.

    >>> import numpy as np
    >>> tiles = str_partition(np.array([[0.0, 0], [1, 0], [0, 1], [1, 1]]), 2)
    >>> sorted(len(t) for t in tiles)
    [2, 2]
    """
    order, offsets, _, _ = str_tiling(centers, capacity)
    return [order[a:b] for a, b in zip(offsets[:-1], offsets[1:])]


def str_partition_with_bounds(
    centers: np.ndarray, capacity: int, space: Box
) -> tuple[list[np.ndarray], list[Box]]:
    """STR partitioning that also returns gap-free *partition bounds*.

    The paper's space descriptors store two boxes per partition: the
    *page MBB* (tight around the stored elements) and the *partition
    MBB*.  "Without the partition MBB there may be gaps between two
    neighboring pages MBBs ... and TRANSFORMERS cannot navigate between
    them" (Section IV).  The partition MBBs returned here tile
    ``space`` exactly: every split plane lies halfway between the last
    centre of one slab and the first centre of the next, and the outer
    boundaries coincide with ``space``.

    Returns ``(tiles, partition_boxes)`` with ``partition_boxes[i]``
    covering ``tiles[i]``'s centres.
    """
    order, offsets, lo, hi = str_tiling(centers, capacity, space)
    tiles = [order[a:b] for a, b in zip(offsets[:-1], offsets[1:])]
    return tiles, [Box(a, b) for a, b in zip(lo.tolist(), hi.tolist())]


def str_tile_count(n: int, capacity: int) -> int:
    """Number of tiles STR produces for ``n`` points (upper bound).

    Useful for pre-sizing structures; the actual count from
    :func:`str_partition` never exceeds this by more than the slack
    introduced by uneven slab cuts.
    """
    if capacity < 1:
        raise ValueError("capacity must be >= 1")
    return math.ceil(n / capacity) if n else 0
