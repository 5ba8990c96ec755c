"""Delta-patching of cached join reports.

When a registered dataset takes a :class:`~repro.streaming.DatasetDelta`,
every cached :class:`~repro.engine.report.RunReport` whose key
references the old content is *almost* right: the pair set differs only
around the delta.  :func:`advance_delta` is the one definition of what
a delta does to served content — the service router's ``apply_delta``
runs it on both tiers: it materialises the post-delta dataset, decides
whether patching is worthwhile (:data:`PATCH_MAX_FRACTION` is read here
and nowhere else in the service layer) and rewrites each
affected entry through :func:`patch_cached_entry`, which produces the
key the recomputed join would be cached under and a report whose pair
set is byte-identical to that recompute — without running the join's
algorithm at all.

An entry falls back to invalidation when

* the delta fraction exceeds :data:`PATCH_MAX_FRACTION`;
* its key carries a ``within=d`` predicate — those results live on
  *enlarged* derived datasets whose deltas are not the caller's delta;
* the partner side's fingerprint cannot be resolved to a live dataset
  (nothing to join insertions against).
"""

from __future__ import annotations

import dataclasses
import time
from collections.abc import Callable, Iterable

from repro.engine.report import RunReport
from repro.joins.base import Dataset, JoinResult, JoinStats
from repro.joins.delta import delta_join
from repro.service.fingerprint import CacheKey, dataset_fingerprint
from repro.streaming.delta import DatasetDelta

#: Phase label of patched reports' join stats (shows up in reporting
#: rows and latency summaries, distinguishing patches from real runs).
DELTA_PATCH_PHASE = "delta_patch"

#: Largest delta fraction (delta size / pre-delta cardinality) for which
#: cached results are still patched; larger deltas fall back to
#: invalidation, because re-joining approaches the patch cost.
PATCH_MAX_FRACTION = 0.25


def advance_delta(
    delta: DatasetDelta,
    old_dataset: Dataset,
    old_fingerprint: str,
    *,
    affected: Callable[[], Iterable[tuple[CacheKey, RunReport]]],
    resolve: Callable[[str], Dataset | None],
) -> tuple[Dataset, str, float, bool, list[tuple[CacheKey, RunReport]], int]:
    """Advance content along ``delta`` and patch the entries it touches.

    ``affected`` yields every cached ``(key, report)`` referencing
    ``old_fingerprint``; it is only called when the delta changes the
    content.  ``resolve`` maps a content fingerprint to the dataset
    currently served under it (``None`` when no name serves it).

    Returns ``(new_dataset, new_fingerprint, fraction, noop, rewritten,
    fallbacks)``: the post-delta content (bit-identical to building it
    from scratch, so the fingerprint equals a cold registration's), the
    delta size relative to the pre-delta cardinality, whether the
    content is unchanged, the post-delta ``(key, report)`` of every
    patched entry, and how many entries must be invalidated instead.
    Propagates :meth:`DatasetDelta.apply`'s validation errors.
    """
    new_dataset = delta.apply(old_dataset)
    new_fingerprint = dataset_fingerprint(new_dataset)
    fraction = delta.fraction(len(old_dataset))
    if new_fingerprint == old_fingerprint:
        return new_dataset, new_fingerprint, fraction, True, [], 0
    patchable = fraction <= PATCH_MAX_FRACTION
    rewritten: list[tuple[CacheKey, RunReport]] = []
    fallbacks = 0
    for key, report in affected():
        patched = None
        if patchable:
            patched = patch_cached_entry(
                key,
                report,
                old_fingerprint=old_fingerprint,
                new_fingerprint=new_fingerprint,
                delta=delta,
                old_dataset=old_dataset,
                new_dataset=new_dataset,
                resolve=resolve,
            )
        if patched is None:
            fallbacks += 1
        else:
            rewritten.append(patched)
    return new_dataset, new_fingerprint, fraction, False, rewritten, fallbacks


def patch_cached_entry(
    key: CacheKey,
    report: RunReport,
    *,
    old_fingerprint: str,
    new_fingerprint: str,
    delta: DatasetDelta,
    old_dataset: Dataset,
    new_dataset: Dataset,
    resolve: Callable[[str], Dataset | None],
) -> tuple[CacheKey, RunReport] | None:
    """Rewrite one cached entry for a delta on ``old_fingerprint``.

    ``resolve`` maps a content fingerprint to the dataset currently
    served under it (``None`` when no name serves it).  Returns the
    post-delta ``(key, report)``, or ``None`` when the entry must fall
    back to invalidation.  The patched report's pair set is exactly the
    full recompute's; its join stats describe the patch work (grid-hash
    tests over the insertions) under the :data:`DELTA_PATCH_PHASE`
    phase, and both index sides are marked reused — a patch builds
    nothing.  Its ``plan`` is dropped: the plan's estimates described
    the pre-delta pair.
    """
    if key[5] is not None:
        return None
    side_a = key[0] == old_fingerprint
    side_b = key[1] == old_fingerprint
    a_before = old_dataset if side_a else resolve(key[0])
    b_before = old_dataset if side_b else resolve(key[1])
    if a_before is None or b_before is None:
        return None

    start = time.perf_counter()
    pairs, tests = delta_join(
        report.result.pairs,
        a_before,
        b_before,
        delta_a=delta if side_a else None,
        delta_b=delta if side_b else None,
    )
    wall = time.perf_counter() - start

    a_after = new_dataset if side_a else a_before
    b_after = new_dataset if side_b else b_before
    new_key: CacheKey = (
        new_fingerprint if side_a else key[0],
        new_fingerprint if side_b else key[1],
        *key[2:],
    )
    patch_stats = JoinStats(
        algorithm=report.algorithm,
        phase=DELTA_PATCH_PHASE,
        pairs_found=len(pairs),
        intersection_tests=tests,
        wall_seconds=wall,
    )
    patched = dataclasses.replace(
        report,
        n_a=len(a_after),
        n_b=len(b_after),
        result=JoinResult(pairs=pairs, stats=patch_stats),
        reused_a=True,
        reused_b=True,
        index_pages_written_a=0,
        index_pages_written_b=0,
        plan=None,
        delta_patched=True,
    )
    return new_key, patched
