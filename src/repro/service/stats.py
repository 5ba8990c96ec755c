"""Service observability: the :class:`ServiceStats` snapshot.

A long-lived service is only operable if its behaviour is visible from
outside: how much traffic it absorbed, how much of it the result cache
deflected, and what latency the cache misses actually cost, per
algorithm.  :meth:`SpatialQueryService.stats()
<repro.service.service.SpatialQueryService.stats>` assembles one
immutable snapshot of all of that; the throughput benchmark and
``python3 -m bench`` consume it directly.

Percentile math lives in :func:`repro.metrics.latency_summary` and is
safe on empty samples — a freshly started service reports zeros, not
``ZeroDivisionError``.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field


@dataclass(frozen=True)
class ServiceStats:
    """Immutable snapshot of one service's lifetime counters.

    ``requests`` counts join submissions (through ``submit`` /
    ``submit_many``); range queries are tracked separately in
    ``range_requests``.  The result-cache invariant
    ``cache_hits + cache_misses == requests`` holds at every snapshot:
    each join submission probes the cache exactly once.
    """

    #: Seconds since the service was constructed.
    uptime_seconds: float
    #: Join submissions so far (each is exactly one cache hit or miss).
    requests: int
    #: Range queries served (off cached per-dataset indexes).
    range_requests: int
    #: Join submissions whose execution failed (error captured, not cached).
    failures: int
    cache_hits: int
    cache_misses: int
    cache_evictions: int
    cache_invalidations: int
    #: Reports currently held by the result cache.
    cache_size: int
    cache_max_entries: int | None
    #: Names currently registered in the dataset catalog.
    catalog_size: int
    #: Cache fills suppressed because a rebind/unregister unbound a
    #: name-resolved fingerprint while its miss was in flight (the
    #: in-flight-fill race fix; the response was still served).
    cache_stale_fill_skips: int = 0
    #: Range-query indexes dropped because the queried name was
    #: unbound while the index build was in flight.
    stale_index_drops: int = 0
    #: Sharded tier only: requests answered from the router's stale
    #: snapshot because the owning shard was saturated.
    degraded_responses: int = 0
    #: Sharded tier only: submissions rejected at admission (client
    #: over quota, or the owning shard saturated past the backpressure
    #: timeout with no stale answer to degrade to).
    rejected_requests: int = 0
    #: Deltas applied through ``apply_delta`` (streaming tier).
    delta_applies: int = 0
    #: Cached results patched in place by delta_join instead of being
    #: invalidated when their dataset took a delta.
    delta_patches: int = 0
    #: Cached results a delta *could not* patch (predicate not plain
    #: intersection, partner fingerprint unresolvable, patching
    #: disabled, or the delta fraction above the threshold) — these
    #: fell back to invalidation.
    delta_patch_fallbacks: int = 0
    #: Sharded tier only: per-shard snapshot dicts (``as_dict`` rows),
    #: in shard order.  Empty for single-process services.
    per_shard: tuple[dict[str, object], ...] = ()
    #: Per-algorithm latency summaries (count/mean/p50/p90/p99 seconds),
    #: over service-side request walls: cache hits contribute their
    #: (near-zero) lookup latency, misses their full execution latency,
    #: and range queries appear under ``"range_query"``.  Count and
    #: mean cover the service's whole lifetime; the percentiles are
    #: computed over a bounded window of the most recent samples, so
    #: observability stays O(1) per request however long the service
    #: runs.
    latency_by_algorithm: dict[str, dict[str, float]] = field(
        default_factory=dict
    )
    #: Estimator accuracy: how many executed misses the statistics
    #: layer planned (``algorithm="auto"``), and the summed predicted
    #: vs. actual work of those joins.  A healthy planner keeps the
    #: prediction/actual ratios near 1; drift beyond the documented
    #: error band means the sketches no longer describe the traffic.
    estimator_predictions: int = 0
    predicted_pairs: float = 0.0
    actual_pairs: int = 0
    predicted_tests: float = 0.0
    actual_tests: int = 0

    @property
    def pairs_estimate_ratio(self) -> float:
        """Predicted / actual result pairs over planned misses (0 = none)."""
        if not self.estimator_predictions:
            return 0.0
        # Smoothed so a run of empty joins reads as ratio ~1, not inf.
        return (self.predicted_pairs + 1.0) / (self.actual_pairs + 1.0)

    @property
    def tests_estimate_ratio(self) -> float:
        """Predicted / actual comparisons over planned misses (0 = none)."""
        if not self.estimator_predictions:
            return 0.0
        return (self.predicted_tests + 1.0) / (self.actual_tests + 1.0)

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of join submissions served from cache."""
        if not self.requests:
            return 0.0
        return self.cache_hits / self.requests

    @property
    def throughput_rps(self) -> float:
        """Requests (joins + range queries) per second of uptime."""
        if self.uptime_seconds <= 0.0:
            return 0.0
        return (self.requests + self.range_requests) / self.uptime_seconds

    @classmethod
    def merged(
        cls,
        parts: Sequence["ServiceStats"],
        *,
        uptime_seconds: float,
        latency_by_algorithm: dict[str, dict[str, float]] | None = None,
        degraded_responses: int = 0,
        rejected_requests: int = 0,
        extra_catalog_size: int | None = None,
        delta_applies: int = 0,
        delta_patches: int = 0,
        delta_patch_fallbacks: int = 0,
    ) -> "ServiceStats":
        """One aggregate snapshot over per-shard snapshots.

        Counters add exactly (shards partition the key space, so their
        counters are disjoint); the cache bound is the sum of the
        per-shard bounds (unbounded if any shard is).  The latency
        summaries cannot be aggregated from per-shard percentiles —
        the sharded service merges the raw
        :class:`~repro.metrics.LatencyRecord` windows instead and
        passes the result in; ``None`` falls back to an empty mapping.
        ``extra_catalog_size`` overrides the summed per-shard catalog
        sizes with the router's own name count (the router's map is
        authoritative; shard catalogs hold only their owned slice).
        """
        bounds = [p.cache_max_entries for p in parts]
        merged_bound: int | None
        if not bounds or any(b is None for b in bounds):
            merged_bound = None
        else:
            merged_bound = sum(b for b in bounds if b is not None)
        return cls(
            uptime_seconds=uptime_seconds,
            requests=sum(p.requests for p in parts),
            range_requests=sum(p.range_requests for p in parts),
            failures=sum(p.failures for p in parts),
            cache_hits=sum(p.cache_hits for p in parts),
            cache_misses=sum(p.cache_misses for p in parts),
            cache_evictions=sum(p.cache_evictions for p in parts),
            cache_invalidations=sum(p.cache_invalidations for p in parts),
            cache_size=sum(p.cache_size for p in parts),
            cache_max_entries=merged_bound,
            cache_stale_fill_skips=sum(
                p.cache_stale_fill_skips for p in parts
            ),
            stale_index_drops=sum(p.stale_index_drops for p in parts),
            degraded_responses=degraded_responses,
            rejected_requests=rejected_requests,
            delta_applies=delta_applies
            + sum(p.delta_applies for p in parts),
            delta_patches=delta_patches
            + sum(p.delta_patches for p in parts),
            delta_patch_fallbacks=delta_patch_fallbacks
            + sum(p.delta_patch_fallbacks for p in parts),
            catalog_size=(
                extra_catalog_size
                if extra_catalog_size is not None
                else sum(p.catalog_size for p in parts)
            ),
            latency_by_algorithm=dict(latency_by_algorithm or {}),
            estimator_predictions=sum(
                p.estimator_predictions for p in parts
            ),
            predicted_pairs=sum(p.predicted_pairs for p in parts),
            actual_pairs=sum(p.actual_pairs for p in parts),
            predicted_tests=sum(p.predicted_tests for p in parts),
            actual_tests=sum(p.actual_tests for p in parts),
            per_shard=tuple(p.as_dict() for p in parts),
        )

    def as_dict(self) -> dict[str, object]:
        """Flat reporting view (JSON-friendly)."""
        return {
            "uptime_seconds": round(self.uptime_seconds, 3),
            "requests": self.requests,
            "range_requests": self.range_requests,
            "failures": self.failures,
            "throughput_rps": round(self.throughput_rps, 1),
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": round(self.cache_hit_rate, 4),
            "cache_evictions": self.cache_evictions,
            "cache_invalidations": self.cache_invalidations,
            "cache_size": self.cache_size,
            "cache_max_entries": self.cache_max_entries,
            "cache_stale_fill_skips": self.cache_stale_fill_skips,
            "stale_index_drops": self.stale_index_drops,
            "degraded_responses": self.degraded_responses,
            "rejected_requests": self.rejected_requests,
            "delta_applies": self.delta_applies,
            "delta_patches": self.delta_patches,
            "delta_patch_fallbacks": self.delta_patch_fallbacks,
            "catalog_size": self.catalog_size,
            "latency_by_algorithm": {
                name: {k: round(v, 6) for k, v in row.items()}
                for name, row in self.latency_by_algorithm.items()
            },
            "per_shard": list(self.per_shard),
            "estimator": {
                "predictions": self.estimator_predictions,
                "predicted_pairs": round(self.predicted_pairs, 1),
                "actual_pairs": self.actual_pairs,
                "pairs_ratio": round(self.pairs_estimate_ratio, 3),
                "predicted_tests": round(self.predicted_tests, 1),
                "actual_tests": self.actual_tests,
                "tests_ratio": round(self.tests_estimate_ratio, 3),
            },
        }
