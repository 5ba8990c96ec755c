"""Distance joins via the enlargement reduction.

"Because distance join approaches can be trivially implemented as a
variation of a spatial join (by enlarging the objects by the distance
predicate) we do not distinguish between the two" (paper, Section
VIII).  This module makes the reduction executable: enlarge one input's
MBBs by the distance predicate and run any intersection join.

Semantics: enlarging a box by ``d`` and testing intersection is exactly
the **Chebyshev (L∞)** predicate — every per-axis gap is at most ``d``.
That is the natural filter-step semantics (a superset of the Euclidean
predicate: ``L∞ <= L2``), matching how the filter step elsewhere
over-approximates exact geometry; a Euclidean-exact distance join would
apply the application's refinement on top, like
:mod:`repro.refine` does for intersection joins.

The entry point is ``SpatialWorkspace.join(a, b, within=d)`` (or a
:class:`~repro.engine.executor.JoinRequest` with ``within=d`` through
the service layer): that routes the enlargement through the planner,
the index cache and the structured :class:`~repro.engine.report.RunReport`.
"""

from __future__ import annotations

from repro.geometry.boxes import BoxArray
from repro.joins.base import Dataset
from repro.storage.shm import content_fingerprint


def enlarged_dataset(dataset: Dataset, distance: float) -> Dataset:
    """A copy of ``dataset`` with every MBB grown by ``distance``.

    Growing one side by the full predicate (rather than both by half)
    keeps the other dataset untouched, so its existing index remains
    valid — the index-reuse property extends to distance joins.

    Identity is content-based: ``distance=0`` returns ``dataset``
    itself (growing by zero changes no geometry, so inventing a new
    name — let alone a new object — would only split caches), and a
    genuinely grown copy is named by its *content fingerprint*, so two
    different source datasets can never collide on the derived name
    the way ``f"{name}+{distance}"`` allowed.  That one hash is also
    the copy's :attr:`~repro.joins.base.Dataset.fingerprint`.

    The copy owns its arrays, ids included (one copy, which the copy's
    ``Dataset`` shares): a workspace memoises it, and a view of an
    attached shared-memory dataset would keep the segment mapped for as
    long as the memo entry lives.
    """
    if distance < 0:
        raise ValueError("distance must be non-negative")
    if distance == 0:
        return dataset
    boxes = BoxArray.adopt(
        dataset.boxes.lo - distance, dataset.boxes.hi + distance
    )
    fingerprint = content_fingerprint(dataset.ids, boxes.lo, boxes.hi)
    # Frozen before construction, so ``Dataset`` shares this one copy.
    ids = dataset.ids.copy()
    ids.setflags(write=False)
    grown = Dataset(
        name=f"{dataset.name}+{distance:g}#{fingerprint[:12]}",
        ids=ids,
        boxes=boxes,
    )
    object.__setattr__(grown, "fingerprint", fingerprint)
    return grown

