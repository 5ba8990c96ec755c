"""What the service tier hands out, and its range-query index cache.

Both front-ends, :class:`~repro.service.SpatialQueryService` (one
in-process shard) and :class:`~repro.service.ShardedQueryService` (N
shard processes), are one router
(:mod:`repro.service.sharded`).  This module holds the value types it
answers with, :class:`ServiceResponse` for a join and
:class:`DeltaOutcome` for a delta, and :class:`QueryWorkspace`, the
long-lived workspace whose per-dataset index cache serves every range
query without rebuilding indexes between calls (the paper's
index-reuse argument, Section VII-C1, applied across requests).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from repro._types import IntArray
from repro.engine.report import RunReport
from repro.engine.workspace import SpatialWorkspace
from repro.geometry.box import Box
from repro.joins.base import Dataset
from repro.service.catalog import CatalogEntry
from repro.service.fingerprint import CacheKey

#: Latency bucket for range queries in ``latency_by_algorithm``.
RANGE_QUERY_LATENCY_KEY = "range_query"


class QueryWorkspace:
    """The router's range-query index cache: a long-lived
    :class:`~repro.engine.workspace.SpatialWorkspace` behind a lock of
    its own, so a cold index build serialises only other range
    queries, never joins.  The lock is taken under the router's
    ``_lock`` (a retire's :meth:`forget`, a stale drop), never the
    other way round.
    """

    def __init__(self, workspace: SpatialWorkspace) -> None:
        self.workspace = workspace
        self._lock = threading.Lock()

    def forget(self, dataset: Dataset) -> None:
        """Drop ``dataset``'s range index, if one is cached."""
        with self._lock:
            self.workspace.forget(dataset)

    def range_query(
        self, dataset: Dataset, query: Box
    ) -> tuple[IntArray, float]:
        """The ids of ``dataset`` intersecting ``query``, off its cached
        index (built on first use), and the wall seconds it took."""
        start = time.perf_counter()
        with self._lock:
            hits = self.workspace.range_query(dataset, query)
        return hits, time.perf_counter() - start


@dataclass
class ServiceResponse:
    """What the service answered for one join submission."""

    #: The finished report, or ``None`` when execution failed.
    report: RunReport | None
    #: True when the report came straight from the result cache.
    cached: bool
    #: The content-addressed cache key the request resolved to.
    key: CacheKey
    #: Human-readable request identification (JoinRequest.describe()).
    label: str
    #: Wall seconds from submission to answer, seen by the router.
    wall_seconds: float = 0.0
    error: str | None = None
    error_type: str | None = None
    #: Always False: no tier answers degraded any more (the router
    #: answers a known key as a plain cache hit, saturated or not).
    #: Kept so readers of responses keep working.
    degraded: bool = False
    #: Shard that owns the request's key (0 on the single tier).
    shard: int | None = None

    @property
    def ok(self) -> bool:
        """True when the request produced a report."""
        return self.report is not None

    def raise_for_failure(self) -> "ServiceResponse":
        """Raise ``RuntimeError`` if the request failed; else return self."""
        if not self.ok:
            raise RuntimeError(
                f"service request {self.label!r} failed: "
                f"{self.error_type}: {self.error}"
            )
        return self


@dataclass(frozen=True)
class DeltaOutcome:
    """What ``apply_delta`` did for one delta."""

    #: The catalog entry now bound to the name (post-delta content).
    entry: CatalogEntry
    #: Delta size relative to the pre-delta cardinality.
    fraction: float
    #: Cached results rewritten to the post-delta truth via delta_join.
    patched: int
    #: Cached results that fell back to invalidation instead.
    fallbacks: int
    #: True when the delta changed nothing (same content fingerprint).
    noop: bool = False
