"""The long-lived request front-end: :class:`SpatialQueryService`.

Every caller so far builds a fresh
:class:`~repro.engine.workspace.SpatialWorkspace` per join, so nothing
survives across requests: repeated joins over the same datasets — the
paper's own access pattern (the Fig. 10/11 robustness sweeps and the
Fig. 12 neuroscience workload re-join the same inputs across
algorithms and scales) — redo all filter and refinement work every
time.  The service closes that gap with three long-lived pieces:

* a **dataset catalog** (:class:`~repro.service.catalog.DatasetCatalog`)
  binding stable names to content-fingerprinted datasets, with version
  tracking on re-registration;
* a **result cache** (:class:`~repro.service.cache.ResultCache`) of
  finished :class:`~repro.engine.report.RunReport` objects keyed by
  ``(fingerprint_a, fingerprint_b, algorithm, params, within)`` — a
  repeated identical join (distance joins included: the predicate is
  part of the key, with ``within=0.0`` sharing the plain intersection
  slot) is answered synchronously with the byte-identical cached
  report; re-binding a name to new content invalidates exactly the
  entries computed from the old content;
* a **query workspace** whose per-dataset index cache serves
  :meth:`range_query` without rebuilding indexes between calls.

Cache misses route through the existing
:class:`~repro.engine.executor.BatchExecutor`, preserving the
engine's measurement protocol (each miss runs cold on its own fresh
workspace) and its per-request failure isolation.

The service is thread-safe: catalog, cache and counters are guarded by
one briefly-held lock, while the expensive work stays outside it —
miss execution, content fingerprinting of concrete datasets, and
range-query index builds (which serialise on the query workspace's own
lock) — so concurrent requests over different keys do not serialise
each other.

::

    service = SpatialQueryService()
    service.register("axons", axons)
    service.register("dendrites", dendrites)

    response = service.submit(JoinRequest("axons", "dendrites"))
    response.report.pairs_found         # computed once...
    service.submit(JoinRequest("axons", "dendrites")).cached  # ...True

    hits = service.range_query("axons", probe_box)
    service.stats().cache_hit_rate
"""

from __future__ import annotations

import dataclasses
import threading
import time
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from repro._types import IntArray

from repro.engine.executor import BatchExecutor, JoinRequest
from repro.engine.planner import PlanReport, plan_join_sketched
from repro.engine.report import RunReport
from repro.engine.workspace import SpatialWorkspace
from repro.geometry.box import Box
from repro.joins.base import CostModel, Dataset
from repro.metrics import LatencyRecord
from repro.service.catalog import CatalogEntry, DatasetCatalog
from repro.service.cache import ResultCache
from repro.service.fingerprint import (
    CacheKey,
    dataset_fingerprint,
    request_cache_key,
)
from repro.service.patch import advance_delta
from repro.service.stats import ServiceStats
from repro.storage.disk import DiskModel
from repro.streaming.delta import DatasetDelta

#: Latency bucket for range queries in ``latency_by_algorithm``.
RANGE_QUERY_LATENCY_KEY = "range_query"


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
    #: Service-side wall seconds for this request (lookup time on a
    #: hit, full execution time on a miss).
    wall_seconds: float = 0.0
    error: str | None = None
    error_type: str | None = None
    #: True when the sharded tier answered from its stale snapshot
    #: because the owning shard was saturated (single-process services
    #: never degrade).
    degraded: bool = False
    #: Shard that served the request, when a sharded tier routed it.
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
    """What :meth:`SpatialQueryService.apply_delta` did for one delta."""

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


class SpatialQueryService:
    """Long-lived join/range-query service with catalog and result cache.

    Parameters
    ----------
    disk_model / cost_model:
        Forwarded to every per-miss workspace and to the query
        workspace, so cached and freshly computed reports share one
        cost basis.
    max_cached_results:
        Bound of the result cache (LRU; ``None`` disables the bound).
    max_cached_indexes:
        Bound of the query workspace's per-dataset index cache.

    Cache misses run inline in the calling thread; to serve across
    processes, put the service behind
    :class:`~repro.service.sharded.ShardedQueryService`.
    """

    def __init__(
        self,
        *,
        disk_model: DiskModel | None = None,
        cost_model: CostModel | None = None,
        max_cached_results: int | None = 256,
        max_cached_indexes: int | None = (
            SpatialWorkspace.DEFAULT_MAX_CACHED_INDEXES
        ),
    ) -> None:
        self._catalog = DatasetCatalog()
        self._results = ResultCache(max_cached_results)
        self._executor = BatchExecutor(
            disk_model=disk_model, cost_model=cost_model
        )
        self._queries = SpatialWorkspace(
            disk_model=disk_model,
            cost_model=cost_model,
            max_cached_indexes=max_cached_indexes,
        )
        #: Guards catalog, result cache and counters (held briefly).
        self._lock = threading.RLock()
        #: Guards the (not thread-safe) query workspace separately, so
        #: a cold index build only blocks other range queries, never
        #: concurrent join cache hits.  Ordering: may be acquired while
        #: holding ``_lock`` (register's forget), never the other way
        #: around.
        self._query_lock = threading.Lock()
        self._started = time.perf_counter()
        self._requests = 0
        self._range_requests = 0
        self._failures = 0
        #: Fills skipped because a rebind/unregister unbound a
        #: name-resolved fingerprint while its miss was in flight.
        self._stale_fill_skips = 0
        #: Range-query indexes dropped because the queried name was
        #: unbound while the index build was in flight.
        self._stale_index_drops = 0
        #: Streaming tier: deltas applied, cache entries patched via
        #: delta_join, and entries that fell back to invalidation.
        self._delta_applies = 0
        self._delta_patches = 0
        self._delta_patch_fallbacks = 0
        self._latencies: dict[str, LatencyRecord] = {}
        # Estimator accuracy: predicted vs actual work of every miss
        # the statistics layer planned (``algorithm="auto"``).
        self._estimator_predictions = 0
        self._predicted_pairs = 0.0
        self._actual_pairs = 0
        self._predicted_tests = 0.0
        self._actual_tests = 0

    # ------------------------------------------------------------------
    # Catalog
    # ------------------------------------------------------------------
    @property
    def catalog(self) -> DatasetCatalog:
        """The dataset catalog (treat as read-only; use :meth:`register`)."""
        with self._lock:
            return self._catalog

    @property
    def query_workspace(self) -> SpatialWorkspace:
        """The long-lived workspace serving :meth:`range_query`."""
        return self._queries

    def register(self, name: str, dataset: Dataset) -> CatalogEntry:
        """Bind ``name`` to ``dataset`` in the catalog.

        Re-registering equal content is a no-op (same version, cache
        intact).  Re-registering *changed* content bumps the version
        and invalidates exactly the cached results computed from the
        old content — unless another name still serves it — and drops
        the old dataset's cached range-query index.
        """
        with self._lock:
            old = self._catalog.get(name)
            entry = self._catalog.register(name, dataset)
            if old is not None and old.fingerprint != entry.fingerprint:
                # Both invalidations are alias-guarded: as long as some
                # other name still serves the old content, its cached
                # results stay reachable (content-addressed) and its
                # range-query index may still be that name's (equal
                # fingerprint is implied by equal object identity).
                if not self._catalog.names_bound_to(old.fingerprint):
                    self._results.invalidate_fingerprint(old.fingerprint)
                    with self._query_lock:
                        self._queries.forget(old.dataset)
            return entry

    def unregister(self, name: str) -> CatalogEntry:
        """Remove ``name`` from the catalog; returns the dropped entry.

        Symmetric with :meth:`register`'s rebind path: the entry's
        cached results and range-query index are invalidated unless
        another name still serves the same content.  Raises
        ``KeyError`` for unknown names.
        """
        with self._lock:
            entry = self._catalog.unregister(name)
            if not self._catalog.names_bound_to(entry.fingerprint):
                self._results.invalidate_fingerprint(entry.fingerprint)
                with self._query_lock:
                    self._queries.forget(entry.dataset)
            return entry

    def apply_delta(self, name: str, delta: DatasetDelta) -> DeltaOutcome:
        """Advance ``name`` along ``delta``, patching cached results.

        The streaming tier's registration path: instead of re-binding
        the name to freshly built content (full fingerprint, full
        sketch, full cache invalidation), the catalog fingerprint
        advances along the delta lineage
        (:func:`~repro.service.patch.advance_delta`): every cached
        result whose key references the old content is **patched**
        through :func:`~repro.joins.delta_join` and re-filed under the
        post-delta key, byte-identical to a full recompute; entries
        that cannot be patched fall back to plain invalidation
        (counted in ``delta_patch_fallbacks``).  The stored sketch is
        advanced by :meth:`DatasetSketch.apply_delta` (a rebuild of the
        post-delta content).

        Raises ``KeyError`` for unknown names and propagates
        :meth:`DatasetDelta.apply`'s validation errors (unknown delete
        ids, colliding insert ids) without touching service state.
        """
        while True:
            with self._lock:
                old = self._catalog.resolve(name)
                old_sketch = self._catalog.sketch_by_fingerprint(
                    old.fingerprint
                )
            # The expensive work — materialising and hashing the
            # post-delta arrays, patching, sketch maintenance — runs
            # outside the lock; the re-check below restarts if a
            # concurrent rebind moved the name meanwhile.
            (
                new_dataset,
                _,
                fraction,
                noop,
                rewritten,
                fallbacks,
            ) = advance_delta(
                delta,
                old.dataset,
                old.fingerprint,
                affected=lambda: self.cached_entries(old.fingerprint),
                resolve=self._dataset_by_fingerprint,
            )
            new_sketch = (
                old_sketch.apply_delta(delta, old.dataset, new_dataset)
                if old_sketch is not None
                else None
            )
            with self._lock:
                current = self._catalog.resolve(name)
                if current.fingerprint != old.fingerprint:
                    continue
                self._delta_applies += 1
                if noop:
                    return DeltaOutcome(
                        entry=current,
                        fraction=fraction,
                        patched=0,
                        fallbacks=0,
                        noop=True,
                    )
                entry = self._catalog.register(
                    name, new_dataset, sketch=new_sketch
                )
                # Mirror register()'s alias-guarded invalidation: old
                # entries not rewritten above die here (and the old
                # content's range-query index with them) unless another
                # name still serves the old content.
                if not self._catalog.names_bound_to(old.fingerprint):
                    self._results.invalidate_fingerprint(old.fingerprint)
                    with self._query_lock:
                        self._queries.forget(old.dataset)
                for new_key, new_report in rewritten:
                    # Patched outside the lock: a partner side unbound
                    # meanwhile must not be resurrected by this fill.
                    if all(
                        isinstance(fp, str)
                        and self._catalog.names_bound_to(fp)
                        for fp in new_key[:2]
                    ):
                        self._results.put(new_key, new_report)
                    else:
                        self._stale_fill_skips += 1
                self._delta_patches += len(rewritten)
                self._delta_patch_fallbacks += fallbacks
                return DeltaOutcome(
                    entry=entry,
                    fraction=fraction,
                    patched=len(rewritten),
                    fallbacks=fallbacks,
                )

    def _dataset_by_fingerprint(self, fingerprint: object) -> Dataset | None:
        """The dataset served under a content fingerprint, if any.

        Any name bound to the fingerprint works — equal fingerprints
        mean equal content.
        """
        if not isinstance(fingerprint, str):
            return None
        with self._lock:
            names = self._catalog.names_bound_to(fingerprint)
            if not names:
                return None
            return self._catalog.resolve(names[0]).dataset

    def cached_entries(
        self, fingerprint: str
    ) -> list[tuple[CacheKey, RunReport]]:
        """Every cached ``(key, report)`` referencing ``fingerprint``.

        A peek (no hit/miss accounting): the sharded tier's router
        extracts affected entries from shards with this before patching
        them router-side.
        """
        with self._lock:
            return self._results.entries_for_fingerprint(fingerprint)

    def fill_cached(self, key: CacheKey, report: RunReport) -> None:
        """Store a finished report under ``key`` directly.

        The sharded tier's router pushes delta-patched reports to the
        owning shard with this; the single-process path never needs it
        (apply_delta fills its own cache).
        """
        with self._lock:
            self._results.put(key, report)

    def invalidate_fingerprint(self, fingerprint: str) -> int:
        """Drop cached results computed from this content fingerprint.

        Returns the number of entries dropped.  The single-process
        service invalidates automatically on rebind/unregister; this
        explicit hook exists for the sharded tier, where joins are
        routed by *pair* — a shard's result cache can hold entries for
        content it never registered, so the router broadcasts the
        invalidation and each shard executes it locally.
        """
        with self._lock:
            return self._results.invalidate_fingerprint(fingerprint)

    # ------------------------------------------------------------------
    # Planning (from catalog sketches — no raw data access)
    # ------------------------------------------------------------------
    def plan(
        self,
        a: Dataset | str,
        b: Dataset | str,
        algorithm: str = "auto",
        *,
        space: Box | None = None,
        parameters: dict[str, object] | None = None,
    ) -> PlanReport:
        """Explain how a join over these inputs would be planned.

        For catalog names this runs entirely off the sketches the
        catalog stored at registration time — a few KB of statistics
        per side, no element data touched — which is what makes
        planning cheap enough to answer interactively for any
        registered pair.  Concrete datasets are sketched on the fly.
        """
        with self._lock:
            entry_a = (
                self._catalog.resolve(a) if isinstance(a, str) else None
            )
            entry_b = (
                self._catalog.resolve(b) if isinstance(b, str) else None
            )
            sketch_a = (
                self._catalog.sketch_by_fingerprint(entry_a.fingerprint)
                if entry_a is not None
                else None
            )
            sketch_b = (
                self._catalog.sketch_by_fingerprint(entry_b.fingerprint)
                if entry_b is not None
                else None
            )
            page_size = self._queries.page_size
        if sketch_a is None:
            from repro.stats.sketch import build_sketch

            if not isinstance(a, Dataset):
                raise TypeError(
                    "plan() takes catalog names (str) or concrete "
                    f"Datasets, got {type(a).__name__}"
                )
            sketch_a = build_sketch(a)
        if sketch_b is None:
            from repro.stats.sketch import build_sketch

            if not isinstance(b, Dataset):
                raise TypeError(
                    "plan() takes catalog names (str) or concrete "
                    f"Datasets, got {type(b).__name__}"
                )
            sketch_b = build_sketch(b)
        return plan_join_sketched(
            sketch_a,
            sketch_b,
            algorithm,
            space=space,
            page_size=page_size,
            parameters=parameters,
            explain=True,
            disk_model=self._queries.disk.model,
            cost_model=self._queries.cost_model,
        )

    # ------------------------------------------------------------------
    # Joins
    # ------------------------------------------------------------------
    def submit(self, request: JoinRequest) -> ServiceResponse:
        """Serve one join request: cache hit, or execute and fill.

        ``request.a`` / ``request.b`` may be catalog names (strings) or
        concrete :class:`~repro.joins.base.Dataset` objects; names are
        resolved through the catalog, concrete datasets are
        fingerprinted on the fly.
        """
        return self.submit_many([request])[0]

    def submit_many(
        self, requests: Iterable[JoinRequest]
    ) -> list[ServiceResponse]:
        """Serve a batch of join requests, in request order.

        Cache hits are answered synchronously under the lock; misses
        run through the batch executor outside it.  Duplicate keys
        within one batch execute once and share the resulting report
        (each duplicate still counts as its own cache miss).

        Resolution is all-or-nothing: every request must resolve (and
        key) before any counter moves or any cache slot is probed, so
        a batch containing an unknown name or an unsupported input
        type raises without mutating service state.
        """
        requests = list(requests)
        # Concrete datasets are fingerprinted outside the lock: SHA-256
        # over all element bytes is far too expensive to serialise
        # other threads' cache hits behind.
        prehashed = [
            (
                dataset_fingerprint(r.a) if isinstance(r.a, Dataset) else None,
                dataset_fingerprint(r.b) if isinstance(r.b, Dataset) else None,
            )
            for r in requests
        ]
        responses: list[ServiceResponse | None] = [None] * len(requests)
        pending: dict[CacheKey, list[int]] = {}
        to_run: dict[CacheKey, JoinRequest] = {}
        guards: dict[CacheKey, tuple[str, ...]] = {}
        with self._lock:
            # Phase 1: resolve and key everything, mutating nothing —
            # a KeyError/TypeError here must not break the
            # hits + misses == requests invariant.
            plans: list[tuple[tuple, JoinRequest, tuple[str, ...]]] = []
            for request, (fp_a, fp_b) in zip(requests, prehashed):
                a, fingerprint_a = self._resolve(request.a, fp_a)
                b, fingerprint_b = self._resolve(request.b, fp_b)
                key = request_cache_key(
                    fingerprint_a,
                    fingerprint_b,
                    request.algorithm,
                    request.space,
                    request.parameters,
                    request.within,
                )
                # Fingerprints that came from *catalog* resolution: a
                # rebind while the miss is in flight can unbind these,
                # and a fill keyed on an unbound fingerprint would
                # resurrect an invalidated entry.  Concrete-dataset
                # sides are caller-managed and always fillable.
                named = tuple(
                    fp
                    for side, fp in (
                        (request.a, fingerprint_a),
                        (request.b, fingerprint_b),
                    )
                    if isinstance(side, str)
                )
                plans.append(
                    (key, dataclasses.replace(request, a=a, b=b), named)
                )
            generation = self._catalog.generation
            # Phase 2: count and probe.
            for pos, (key, concrete, named) in enumerate(plans):
                probe_start = time.perf_counter()
                self._requests += 1
                report = self._results.get(key)
                if report is not None:
                    wall = time.perf_counter() - probe_start
                    self._record_latency(report.algorithm, wall)
                    responses[pos] = ServiceResponse(
                        report=report,
                        cached=True,
                        key=key,
                        label=concrete.describe(),
                        wall_seconds=wall,
                    )
                else:
                    pending.setdefault(key, []).append(pos)
                    to_run.setdefault(key, concrete)
                    guards.setdefault(key, named)
        if to_run:
            self._execute_misses(to_run, pending, responses, guards, generation)
        return responses  # type: ignore[return-value]

    def _execute_misses(
        self,
        to_run: dict[CacheKey, JoinRequest],
        pending: dict[CacheKey, list[int]],
        responses: list[ServiceResponse | None],
        guards: dict[CacheKey, tuple[str, ...]],
        generation: int,
    ) -> None:
        """Run unique cache misses through the executor, fill the cache.

        ``generation`` is the catalog's invalidation epoch captured at
        resolve time; ``guards`` maps each key to the fingerprints its
        request resolved *through the catalog*.  The executor runs
        outside the lock, so a ``register`` rebind (or ``unregister``)
        can invalidate one of those fingerprints while the miss is in
        flight — filling the cache anyway would resurrect an entry no
        name serves (a slot leak the invalidation counters never see).
        An unchanged epoch proves no invalidation raced us (the cheap,
        overwhelmingly common case); otherwise each fill re-validates
        its guarded fingerprints against ``names_bound_to`` and is
        skipped when any came unbound.  The *response* is still served
        (correct at resolve time — the service linearises requests at
        name resolution); only the cache fill is suppressed.
        """
        keys = list(to_run)
        batch = self._executor.run([to_run[key] for key in keys])
        with self._lock:
            for key, outcome in zip(keys, batch.outcomes):
                if outcome.report is not None:
                    fillable = (
                        self._catalog.generation == generation
                        or all(
                            self._catalog.names_bound_to(fp)
                            for fp in guards.get(key, ())
                        )
                    )
                    if fillable:
                        self._results.put(key, outcome.report)
                    else:
                        self._stale_fill_skips += 1
                    self._record_latency(
                        outcome.report.algorithm, outcome.wall_seconds
                    )
                    self._record_estimates(outcome.report)
                else:
                    self._failures += len(pending[key])
                for pos in pending[key]:
                    responses[pos] = ServiceResponse(
                        report=outcome.report,
                        cached=False,
                        key=key,
                        label=outcome.label,
                        wall_seconds=outcome.wall_seconds,
                        error=outcome.error,
                        error_type=outcome.error_type,
                    )

    def _resolve(
        self, side: object, fingerprint: str | None = None
    ) -> tuple[Dataset, str]:
        """(dataset, fingerprint) for one request side (name or Dataset).

        ``fingerprint`` carries a digest precomputed outside the lock
        for concrete datasets; names always resolve through the
        catalog's stored digest.
        """
        if isinstance(side, str):
            entry = self._catalog.resolve(side)
            return entry.dataset, entry.fingerprint
        if isinstance(side, Dataset):
            return side, fingerprint or dataset_fingerprint(side)
        raise TypeError(
            "service requests take catalog names (str) or concrete "
            f"Datasets, got {type(side).__name__}"
        )

    # ------------------------------------------------------------------
    # Range queries
    # ------------------------------------------------------------------
    def range_query(
        self,
        dataset: Dataset | str,
        query: Box,
        *,
        buffer_pages: int = 256,
    ) -> IntArray:
        """Ids of the dataset's elements intersecting ``query``.

        Served from the service's long-lived query workspace: the first
        query against a dataset builds its index, subsequent ones reuse
        it (the paper's index-reuse argument, Section VII-C1, applied
        across requests).  Accepts a catalog name or a concrete
        dataset.
        """
        guard_fp: str | None = None
        with self._lock:
            generation = self._catalog.generation
            if isinstance(dataset, str):
                entry = self._catalog.resolve(dataset)
                dataset = entry.dataset
                guard_fp = entry.fingerprint
            self._range_requests += 1
        # The query workspace has its own lock: a cold index build
        # serialises only other range queries, not join cache hits.
        start = time.perf_counter()
        with self._query_lock:
            hits = self._queries.range_query(
                dataset, query, buffer_pages=buffer_pages
            )
        wall = time.perf_counter() - start
        with self._lock:
            self._record_latency(RANGE_QUERY_LATENCY_KEY, wall)
            # Mirror image of the fill-time epoch check: if the name we
            # resolved was unbound while the index build was in flight,
            # register's forget() has already run and missed the index
            # we just built — dropping it here closes the leak.  The
            # hits still go out as computed: they were correct at
            # resolve time.  Lock order (_lock then _query_lock)
            # matches register's.
            if (
                guard_fp is not None
                and self._catalog.generation != generation
                and not self._catalog.names_bound_to(guard_fp)
            ):
                self._stale_index_drops += 1
                with self._query_lock:
                    self._queries.forget(dataset)
        return hits

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def _record_latency(self, algorithm: str, seconds: float) -> None:
        self._latencies.setdefault(algorithm, LatencyRecord()).add(seconds)

    def latency_records(self) -> dict[str, LatencyRecord]:
        """Independent copies of the per-algorithm latency records.

        The sharded tier ships these across the wire and merges them
        (:meth:`repro.metrics.LatencyRecord.merge`) into aggregate
        service statistics; copies are returned so the caller can do
        that without racing this service's own accounting.
        """
        with self._lock:
            return {
                name: record.copy()
                for name, record in self._latencies.items()
            }

    def _record_estimates(self, report: RunReport) -> None:
        """Fold one executed miss into the estimator-accuracy counters.

        Only joins the statistics layer actually planned contribute
        (``plan_report`` present with estimates); cache hits never do —
        their work was already counted when the report was computed.
        Caller holds ``self._lock``.
        """
        plan_report = report.plan_report
        if plan_report is None or not plan_report.stats_used:
            return
        if plan_report.est_pairs is None:
            return
        self._estimator_predictions += 1
        self._predicted_pairs += plan_report.est_pairs
        self._actual_pairs += report.pairs_found
        if plan_report.est_tests is not None:
            self._predicted_tests += plan_report.est_tests
            self._actual_tests += report.intersection_tests

    def stats(self) -> ServiceStats:
        """One immutable snapshot of the service's lifetime counters."""
        with self._lock:
            return ServiceStats(
                uptime_seconds=time.perf_counter() - self._started,
                requests=self._requests,
                range_requests=self._range_requests,
                failures=self._failures,
                cache_hits=self._results.hits,
                cache_misses=self._results.misses,
                cache_evictions=self._results.evictions,
                cache_invalidations=self._results.invalidations,
                cache_size=len(self._results),
                cache_max_entries=self._results.max_entries,
                cache_stale_fill_skips=self._stale_fill_skips,
                stale_index_drops=self._stale_index_drops,
                delta_applies=self._delta_applies,
                delta_patches=self._delta_patches,
                delta_patch_fallbacks=self._delta_patch_fallbacks,
                catalog_size=len(self._catalog),
                latency_by_algorithm={
                    name: record.summary()
                    for name, record in sorted(self._latencies.items())
                },
                estimator_predictions=self._estimator_predictions,
                predicted_pairs=self._predicted_pairs,
                actual_pairs=self._actual_pairs,
                predicted_tests=self._predicted_tests,
                actual_tests=self._actual_tests,
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        with self._lock:
            return (
                f"SpatialQueryService(datasets={len(self._catalog)}, "
                f"cached_results={len(self._results)}, "
                f"requests={self._requests})"
            )
