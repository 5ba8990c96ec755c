"""Exact cylinder-cylinder intersection tests.

Neurons are modelled as chains of capped cylinders; a synapse candidate
from the filter step is confirmed when the two cylinders actually
touch.  For capsule-style cylinders (hemispherical caps — the standard
morphology primitive) two cylinders intersect exactly when the distance
between their axis *segments* is at most the sum of their radii, so the
core of this module is a robust segment/segment distance
(closest-point parametrisation clamped to the unit square; Ericson,
"Real-Time Collision Detection", §5.1.9).
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence

import numpy as np

from repro.geometry.cylinder import Cylinder

#: Parallel-segment detection threshold on the squared denominator.
_EPS = 1e-12


def _dot(u: np.ndarray, v: np.ndarray) -> float:
    """Dot product with left-to-right accumulation.

    BLAS ``np.dot`` does not commit to a summation order; this one does,
    so a tangency decision (``gap <= r_a + r_b`` at equality) never
    flips with the platform.
    """
    acc = 0.0
    for x, y in zip(u, v):
        acc += float(x) * float(y)
    return acc


def _point_segment_distance(
    point: np.ndarray, origin: np.ndarray, direction: np.ndarray, len_sq: float
) -> float:
    """Distance from ``point`` to the segment ``origin + t*direction``."""
    t = min(max(_dot(point - origin, direction) / len_sq, 0.0), 1.0)
    diff = point - (origin + direction * t)
    return math.sqrt(_dot(diff, diff))


def segment_distance(
    p0: Sequence[float],
    p1: Sequence[float],
    q0: Sequence[float],
    q1: Sequence[float],
) -> float:
    """Minimum Euclidean distance between segments ``p0p1`` and ``q0q1``.

    Handles every degeneracy (point segments, parallel, collinear).
    Segments shorter than √ε ≈ 1e-6 are treated as points, so the
    result is exact to within 1e-6 — far below any cylinder radius the
    refinement step compares against.

    The result is exactly symmetric in the two segments: near the
    parallel threshold the closest-point parametrisation suffers
    catastrophic cancellation whose rounding depends on which segment
    plays which role, so the arguments are put into a canonical order
    first.

    >>> segment_distance((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0))
    1.0
    """
    first = (tuple(float(v) for v in p0), tuple(float(v) for v in p1))
    second = (tuple(float(v) for v in q0), tuple(float(v) for v in q1))
    if second < first:
        p0, p1, q0, q1 = q0, q1, p0, p1
    p0 = np.asarray(p0, dtype=np.float64)
    p1 = np.asarray(p1, dtype=np.float64)
    q0 = np.asarray(q0, dtype=np.float64)
    q1 = np.asarray(q1, dtype=np.float64)
    d1 = p1 - p0  # direction of segment 1
    d2 = q1 - q0  # direction of segment 2
    r = p0 - q0
    a = _dot(d1, d1)
    e = _dot(d2, d2)
    f = _dot(d2, r)

    if a <= _EPS and e <= _EPS:
        # Both segments are points.
        return math.sqrt(_dot(r, r))
    if a <= _EPS:
        # First segment is a point: clamp projection onto segment 2.
        t = min(max(f / e, 0.0), 1.0)
        s = 0.0
    else:
        c = _dot(d1, r)
        if e <= _EPS:
            # Second segment is a point.
            t = 0.0
            s = min(max(-c / a, 0.0), 1.0)
        else:
            b = _dot(d1, d2)
            denom = a * e - b * b
            if denom <= _EPS:
                # (Near-)parallel segments: the infinite-line solution
                # is degenerate, and picking an arbitrary s is
                # order-dependent (it can miss a touching endpoint on
                # one side but not the other).  For parallel segments
                # the minimum is always attained at an endpoint of one
                # segment, and this candidate set is symmetric under
                # swapping the arguments.
                return min(
                    _point_segment_distance(p0, q0, d2, e),
                    _point_segment_distance(p1, q0, d2, e),
                    _point_segment_distance(q0, p0, d1, a),
                    _point_segment_distance(q1, p0, d1, a),
                )
            s = min(max((b * f - c * e) / denom, 0.0), 1.0)
            t = (b * s + f) / e
            # If t is outside [0,1], clamp it and recompute s.
            if t < 0.0:
                t = 0.0
                s = min(max(-c / a, 0.0), 1.0)
            elif t > 1.0:
                t = 1.0
                s = min(max((b - c) / a, 0.0), 1.0)
    closest1 = p0 + d1 * s
    closest2 = q0 + d2 * t
    diff = closest1 - closest2
    return math.sqrt(_dot(diff, diff))


def cylinders_intersect(a: Cylinder, b: Cylinder) -> bool:
    """True when two (capsule-capped) cylinders share a point.

    >>> from repro.geometry.cylinder import Cylinder
    >>> cylinders_intersect(
    ...     Cylinder((0, 0, 0), (2, 0, 0), 0.5),
    ...     Cylinder((1, 0.9, 0), (1, 2, 0), 0.5),
    ... )
    True
    """
    gap = segment_distance(a.p0, a.p1, b.p0, b.p1)
    return gap <= a.radius + b.radius


def refine_pairs(
    candidates: "np.ndarray | Iterable[tuple[int, int]]",
    cylinders_a: Mapping[int, Cylinder],
    cylinders_b: Mapping[int, Cylinder],
) -> np.ndarray:
    """Keep only candidate id pairs whose cylinders truly intersect.

    ``candidates`` is the filter step's output — pass
    ``JoinResult.pairs`` (an ``(m, 2)`` int64 array) straight through;
    iterables of ``(id_a, id_b)`` tuples are accepted too.  One
    :func:`cylinders_intersect` per candidate; the result is the
    accepted subset as an ``(k, 2)`` int64 array in candidate order.
    Raises :class:`KeyError` for ids without geometry — a candidate the
    filter produced but the model does not know is a pipeline bug worth
    failing on.
    """
    accepted: list[tuple[int, int]] = []
    for id_a, id_b in candidates:
        id_a, id_b = int(id_a), int(id_b)
        if cylinders_intersect(cylinders_a[id_a], cylinders_b[id_b]):
            accepted.append((id_a, id_b))
    return np.asarray(accepted, dtype=np.int64).reshape(-1, 2)
