"""Delta-join: patch a cached pair set to the post-delta truth.

Given a cached intersection-join result over ``(A, B)`` and deltas on
either side, the updated pair set is computable without re-joining the
survivors against each other:

    ``old  −  pairs touching a touched id``
    ``     +  join(insertions_A, B_after)``       (covers insA × insB)
    ``     +  join(insertions_B, A_survivors)``

"Touched" means deleted *or* inserted — a moved element (delete + insert
of the same id) must shed its stale pairs before the insertion joins
re-add the fresh ones.  The two insertion joins run through the
vectorized in-memory grid-hash kernel, so the patch costs
O(|old| + |delta| · density) instead of O(|A| · |B| · density): at small
delta fractions this is the difference between a live service tick and
a full cold re-join (``python3 -m bench`` reports the patch as
``joins.delta_join_ms`` on its ``serve_*`` workloads).

The result is **exactly** the full recompute, by construction: every
surviving×surviving pair is in ``old`` and untouched, every pair lost
its membership the moment either endpoint was touched, and each new
pair has at least one inserted endpoint so exactly one insertion join
emits it (inserted×inserted pairs are emitted only by the first).  The
oracle suite pins byte-identity against brute force across the 27-pair
corpus at 1% / 5% / 25% delta fractions.

Only the plain intersection predicate is supported — ``within=d``
results live under enlarged derived datasets whose deltas are not the
caller's deltas, so the service falls back to invalidation for those.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro._types import IntArray
from repro.joins.base import Dataset, canonical_pairs
from repro.joins.grid_hash import grid_hash_join

if TYPE_CHECKING:
    # Runtime import would be cyclic: repro.streaming.delta imports
    # repro.joins.base, and importing it resolves this package's
    # __init__ first.  The deltas are duck-typed at runtime.
    from repro.streaming.delta import DatasetDelta


def delta_join(
    pairs: IntArray,
    a_before: Dataset,
    b_before: Dataset,
    *,
    delta_a: "DatasetDelta | None" = None,
    delta_b: "DatasetDelta | None" = None,
) -> tuple[IntArray, int]:
    """Patch ``pairs`` (id pairs of ``a_before ⋈ b_before``) for deltas.

    Returns ``(canonical id pairs of a_after ⋈ b_after, tests)`` where
    ``tests`` counts the intersection tests the insertion joins spent —
    the patch's work metric, comparable against a full re-join's.
    ``pairs`` must be the *complete* intersection pair set (canonical
    or not); either delta may be ``None`` (that side unchanged).
    """
    pairs = np.asarray(pairs)
    if pairs.size:
        pairs = pairs.reshape(-1, 2).astype(np.int64, copy=False)
    else:
        pairs = np.empty((0, 2), dtype=np.int64)

    touched_a = (
        delta_a.touched_ids() if delta_a is not None
        else np.empty(0, dtype=np.int64)
    )
    touched_b = (
        delta_b.touched_ids() if delta_b is not None
        else np.empty(0, dtype=np.int64)
    )
    keep = np.ones(len(pairs), dtype=bool)
    if touched_a.size:
        keep &= ~np.isin(pairs[:, 0], touched_a)
    if touched_b.size:
        keep &= ~np.isin(pairs[:, 1], touched_b)
    parts: list[IntArray] = [pairs[keep]]
    tests = 0

    # Insertions on A join the *entire* post-delta B: that covers both
    # insA × B-survivors and insA × insB in one kernel call.
    if delta_a is not None and len(delta_a.insert_ids):
        b_after = delta_b.apply(b_before) if delta_b is not None else b_before
        hit, probe_tests = grid_hash_join(
            delta_a.insert_boxes, b_after.boxes
        )
        tests += probe_tests
        if len(hit):
            parts.append(
                np.column_stack(
                    (
                        delta_a.insert_ids[hit[:, 0]],
                        b_after.ids[hit[:, 1]],
                    )
                ).astype(np.int64)
            )

    # Insertions on B join only the A *survivors* — insA × insB pairs
    # were already emitted above and must not be double-counted (the
    # canonicalisation would dedup them, but the test counter and the
    # survivor slice keep the work honest).
    if delta_b is not None and len(delta_b.insert_ids):
        if touched_a.size:
            surv = ~np.isin(a_before.ids, touched_a)
            surv_ids = a_before.ids[surv]
            surv_boxes = a_before.boxes
            surv_boxes = type(surv_boxes)(
                surv_boxes.lo[surv], surv_boxes.hi[surv]
            )
        else:
            surv_ids = a_before.ids
            surv_boxes = a_before.boxes
        hit, probe_tests = grid_hash_join(delta_b.insert_boxes, surv_boxes)
        tests += probe_tests
        if len(hit):
            parts.append(
                np.column_stack(
                    (
                        surv_ids[hit[:, 1]],
                        delta_b.insert_ids[hit[:, 0]],
                    )
                ).astype(np.int64)
            )

    parts = [p for p in parts if len(p)]
    if not parts:
        return np.empty((0, 2), dtype=np.int64), tests
    merged = parts[0] if len(parts) == 1 else np.concatenate(parts)
    return canonical_pairs(merged), tests
