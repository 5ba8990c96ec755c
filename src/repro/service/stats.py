"""Service observability: one ledger, one :class:`ServiceStats` snapshot.

A long-lived service is only operable if its behaviour is visible from
outside: how much traffic it absorbed, how much of it the result cache
deflected, and what latency the cache misses actually cost, per
algorithm.  :class:`ServiceLedger` is the one accounting
implementation of both tiers: :class:`~repro.service.service.SpatialQueryService`
keeps one, and the sharded router keeps one per shard (shards keep no
counters, so a respawn loses none).  Its :meth:`ServiceLedger.snapshot`
is the immutable :class:`ServiceStats` the throughput benchmark and
``python3 -m bench`` consume.

Percentile math lives in :func:`repro.metrics.latency_summary` and is
safe on empty samples — a freshly started service reports zeros, not
``ZeroDivisionError``.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass, field, fields

from repro.engine.report import RunReport
from repro.metrics import LatencyRecord
from repro.service.cache import ResultCache


@dataclass(frozen=True)
class ServiceStats:
    """Immutable snapshot of one service's lifetime counters.

    Built by :meth:`ServiceLedger.snapshot`.  ``requests`` counts join
    submissions (through ``submit`` / ``submit_many``); range queries
    are tracked separately in ``range_requests``.  The result-cache
    invariant ``cache_hits + cache_misses == requests`` holds at every
    snapshot: each join submission probes the cache exactly once.
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
    #: Reports currently held by the result cache (the router's, on
    #: the sharded tier).
    cache_size: int
    #: The cache's bound; ``None`` when unbounded, 0 for no cache.
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
    #: Always 0: no tier answers degraded any more (the sharded
    #: router answers a known key as a plain cache hit, saturated or
    #: not).  Kept so readers of the snapshot keep working.
    degraded_responses: int = 0
    #: Sharded tier only: submissions rejected at admission (client
    #: over quota, or the owning shard saturated past the backpressure
    #: timeout on a key the router's cache does not hold).
    rejected_requests: int = 0
    #: Deltas applied through ``apply_delta`` (streaming tier).
    delta_applies: int = 0
    #: Cached results patched in place by delta_join instead of being
    #: invalidated when their dataset took a delta.
    delta_patches: int = 0
    #: Cached results a delta *could not* patch (predicate not plain
    #: intersection, partner fingerprint unresolvable, or the delta
    #: fraction above the threshold) — these fell back to invalidation.
    delta_patch_fallbacks: int = 0
    #: Sharded tier only: per-shard snapshot dicts (``as_dict`` rows),
    #: in shard order, from the router's per-shard ledgers.  A row
    #: counts the traffic routed to that shard, router hits and range
    #: queries included; only its miss latencies are shard-side walls.
    #: Shards hold no cache and no names, so a row's cache and catalog
    #: fields are 0 (the totals carry the router's).  Empty for
    #: single-process services.
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
    #: Estimate accuracy: how many executed misses the statistics
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


@dataclass
class ServiceLedger:
    """The counters behind one :class:`ServiceStats` snapshot.

    Field names are the snapshot's.  A join submission is exactly one
    :meth:`hit` or one :meth:`miss`; an executed miss is one
    :meth:`executed`, whatever number of duplicate submissions it
    answered.  Not thread-safe: the owning service mutates and reads it
    under its own lock.
    """

    requests: int = 0
    range_requests: int = 0
    failures: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_stale_fill_skips: int = 0
    stale_index_drops: int = 0
    rejected_requests: int = 0
    delta_applies: int = 0
    delta_patches: int = 0
    delta_patch_fallbacks: int = 0
    estimator_predictions: int = 0
    predicted_pairs: float = 0.0
    actual_pairs: int = 0
    predicted_tests: float = 0.0
    actual_tests: int = 0
    latencies: dict[str, LatencyRecord] = field(default_factory=dict)
    started: float = field(default_factory=time.perf_counter)

    def hit(self, algorithm: str, seconds: float) -> None:
        """One submission answered from the result cache."""
        self.requests += 1
        self.cache_hits += 1
        self.record_latency(algorithm, seconds)

    def miss(self, count: int = 1) -> None:
        """``count`` submissions the result cache could not answer."""
        self.requests += count
        self.cache_misses += count

    def executed(
        self, report: RunReport | None, seconds: float, answered: int
    ) -> None:
        """One executed miss that answered ``answered`` submissions.

        A failure counts once per submission it answered.  A success
        adds one latency sample and, when the statistics layer planned
        it (a costed ``report.plan``), its predicted and actual work.
        """
        if report is None:
            self.failures += answered
            return
        self.record_latency(report.algorithm, seconds)
        plan = report.plan
        if plan is None or plan.est_pairs is None:
            return
        self.estimator_predictions += 1
        self.predicted_pairs += plan.est_pairs
        self.actual_pairs += report.pairs_found
        if plan.est_tests is not None:
            self.predicted_tests += plan.est_tests
            self.actual_tests += report.intersection_tests

    def record_latency(self, algorithm: str, seconds: float) -> None:
        self.latencies.setdefault(algorithm, LatencyRecord()).add(seconds)

    @classmethod
    def combined(cls, parts: Sequence["ServiceLedger"]) -> "ServiceLedger":
        """One ledger over ``parts``: counters add, latency windows merge
        (percentiles of percentiles would be meaningless), and the
        oldest start wins."""
        total = cls()
        for part in parts:
            for counter in _COUNTERS:
                setattr(
                    total, counter,
                    getattr(total, counter) + getattr(part, counter),
                )
            for algorithm, record in part.latencies.items():
                total.latencies.setdefault(
                    algorithm, LatencyRecord()
                ).merge(record)
            total.started = min(total.started, part.started)
        return total

    def snapshot(
        self,
        *,
        catalog_size: int = 0,
        cache: ResultCache | None = None,
        per_shard: tuple[dict[str, object], ...] = (),
    ) -> ServiceStats:
        """The immutable view; ``cache`` supplies the cache's own
        size, bound, evictions and invalidations (all 0 without one)."""
        size, bound, evictions, invalidations = (
            (len(cache), cache.max_entries, cache.evictions, cache.invalidations)
            if cache is not None
            else (0, 0, 0, 0)
        )
        return ServiceStats(
            uptime_seconds=time.perf_counter() - self.started,
            cache_evictions=evictions,
            cache_invalidations=invalidations,
            cache_size=size,
            cache_max_entries=bound,
            catalog_size=catalog_size,
            per_shard=per_shard,
            latency_by_algorithm={
                algorithm: record.summary()
                for algorithm, record in sorted(self.latencies.items())
            },
            **{counter: getattr(self, counter) for counter in _COUNTERS},
        )


#: The ledger's additive counters (everything but the latency records
#: and the start time), named as in :class:`ServiceStats`.
_COUNTERS = tuple(
    f.name for f in fields(ServiceLedger)
    if f.name not in ("latencies", "started")
)
