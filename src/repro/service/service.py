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
* a **query workspace** (:class:`QueryWorkspace`, shared with the
  sharded tier's router) whose per-dataset index cache serves
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
import functools
import threading
import time
from collections.abc import Callable, Iterable
from contextlib import AbstractContextManager
from dataclasses import dataclass

from repro._types import IntArray

from repro.engine.executor import BatchExecutor, JoinRequest
from repro.engine.planner import JoinPlan, plan_join
from repro.engine.report import RunReport
from repro.engine.workspace import SpatialWorkspace
from repro.geometry.box import Box
from repro.joins.base import CostModel, Dataset
from repro.service.catalog import CatalogEntry, DatasetCatalog
from repro.service.cache import ResultCache
from repro.service.fingerprint import (
    CacheKey,
    dataset_fingerprint,
    request_cache_key,
)
from repro.service.patch import advance_delta
from repro.service.stats import ServiceLedger, ServiceStats
from repro.stats.sketch import DatasetSketch, build_sketch
from repro.storage.disk import DiskModel
from repro.streaming.delta import DatasetDelta

#: Latency bucket for range queries in ``latency_by_algorithm``.
RANGE_QUERY_LATENCY_KEY = "range_query"


class QueryWorkspace:
    """The range-query path of both service tiers: a long-lived
    :class:`~repro.engine.workspace.SpatialWorkspace` whose index cache
    serves range queries, behind a lock of its own, so a cold index
    build serialises only other range queries, never joins.  The lock
    is taken under the tier's ``_lock`` (a retire's :meth:`forget`, a
    stale drop), never the other way round.
    """

    def __init__(self, workspace: SpatialWorkspace) -> None:
        self.workspace = workspace
        self._lock = threading.Lock()

    def forget(self, dataset: Dataset) -> None:
        """Drop ``dataset``'s range index, if one is cached."""
        with self._lock:
            self.workspace.forget(dataset)

    def range_query(
        self,
        tier_lock: AbstractContextManager[object],
        resolve: Callable[[], tuple[Dataset, str | None, ServiceLedger]],
        serves: Callable[[str], bool],
        query: Box,
        buffer_pages: int,
    ) -> IntArray:
        """Answer one range query: resolve, compute, re-check.

        ``resolve()`` runs under ``tier_lock`` and gives the dataset,
        the fingerprint its name resolved to (``None`` for a concrete
        side, which is never guarded) and the ledger to count in.  The
        index is built or reused under this workspace's lock only.  If
        no name serves the content any more (``serves``, under
        ``tier_lock`` again), the retire's :meth:`forget` ran before the
        build and missed it: the index is dropped here and counted in
        ``stale_index_drops``.  The hits go out as computed.
        """
        with tier_lock:
            dataset, guard, ledger = resolve()
            ledger.range_requests += 1
        start = time.perf_counter()
        with self._lock:
            hits = self.workspace.range_query(
                dataset, query, buffer_pages=buffer_pages
            )
        wall = time.perf_counter() - start
        with tier_lock:
            ledger.record_latency(RANGE_QUERY_LATENCY_KEY, wall)
            if guard is not None and not serves(guard):
                ledger.stale_index_drops += 1
                self.forget(dataset)
        return hits


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
    #: Always False: no tier answers degraded any more (the sharded
    #: router answers a known key as a plain cache hit, saturated or
    #: not).  Kept so readers of responses keep working.
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
        self._queries = QueryWorkspace(
            SpatialWorkspace(
                disk_model=disk_model,
                cost_model=cost_model,
                max_cached_indexes=max_cached_indexes,
            )
        )
        #: Guards catalog, result cache and ledger (held briefly).
        self._lock = threading.RLock()
        self._ledger = ServiceLedger()

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
        return self._queries.workspace

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
                self._invalidate(old.fingerprint, old.dataset)
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
            self._invalidate(entry.fingerprint, entry.dataset)
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
                self._ledger.delta_applies += 1
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
                # Old entries not rewritten above die here, as on a
                # rebind through register().
                self._invalidate(old.fingerprint, old.dataset)
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
                        self._ledger.cache_stale_fill_skips += 1
                self._ledger.delta_patches += len(rewritten)
                self._ledger.delta_patch_fallbacks += fallbacks
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

        A peek (no hit/miss accounting): :meth:`apply_delta` patches
        these.  The sharded tier's router runs the same flow over its
        own cache, the tier's only one.
        """
        with self._lock:
            return self._results.entries_for_fingerprint(fingerprint)

    def _invalidate(self, fingerprint: str, dataset: Dataset | None) -> None:
        """Alias-guarded drop of one content's results and range index.

        While another name still serves the content, its cached
        results stay reachable (content-addressed) and its range-query
        index may still be that name's (equal object identity implies
        equal fingerprint), so nothing is dropped.  Caller holds
        ``_lock``.
        """
        if self._catalog.names_bound_to(fingerprint):
            return
        self._results.invalidate_fingerprint(fingerprint)
        if dataset is not None:
            self._queries.forget(dataset)

    # ------------------------------------------------------------------
    # Planning (from catalog sketches)
    # ------------------------------------------------------------------
    def plan(
        self,
        a: Dataset | str,
        b: Dataset | str,
        algorithm: str = "auto",
        *,
        space: Box | None = None,
        parameters: dict[str, object] | None = None,
    ) -> JoinPlan:
        """Explain how a join over these inputs would be planned.

        For catalog names this prices the pair off the sketches the
        catalog stored at registration time — a few KB of statistics
        per side — plus each side's MBB for the shared extent, which
        is what makes planning cheap enough to answer interactively
        for any registered pair.  Concrete datasets are sketched on
        the fly.  The plan is always costed (``explain=True``).
        """
        sides: list[tuple[Dataset, DatasetSketch | None]] = []
        with self._lock:
            for side in (a, b):
                if isinstance(side, str):
                    entry = self._catalog.resolve(side)
                    sketch = self._catalog.sketch_by_fingerprint(
                        entry.fingerprint
                    )
                    sides.append((entry.dataset, sketch))
                elif isinstance(side, Dataset):
                    sides.append((side, None))
                else:
                    raise TypeError(
                        "plan() takes catalog names (str) or concrete "
                        f"Datasets, got {type(side).__name__}"
                    )
            workspace = self._queries.workspace
        (dataset_a, sketch_a), (dataset_b, sketch_b) = sides
        if sketch_a is None:
            sketch_a = build_sketch(dataset_a)
        if sketch_b is None:
            sketch_b = build_sketch(dataset_b)
        return plan_join(
            dataset_a,
            dataset_b,
            algorithm,
            space=space,
            page_size=workspace.page_size,
            parameters=parameters,
            explain=True,
            sketches=(sketch_a, sketch_b),
            disk_model=workspace.disk.model,
            cost_model=workspace.cost_model,
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
                report = self._results.get(key)
                if report is not None:
                    wall = time.perf_counter() - probe_start
                    self._ledger.hit(report.algorithm, wall)
                    responses[pos] = ServiceResponse(
                        report=report,
                        cached=True,
                        key=key,
                        label=concrete.describe(),
                        wall_seconds=wall,
                    )
                else:
                    self._ledger.miss()
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
                        self._ledger.cache_stale_fill_skips += 1
                self._ledger.executed(
                    outcome.report, outcome.wall_seconds, len(pending[key])
                )
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

        Served from the service's long-lived query workspace
        (:meth:`QueryWorkspace.range_query`): the first query against a
        dataset builds its index, subsequent ones reuse it (the paper's
        index-reuse argument, Section VII-C1, applied across requests).
        Accepts a catalog name or a concrete dataset.
        """
        resolve = functools.partial(self._range_side, dataset)
        return self._queries.range_query(
            self._lock, resolve, self._serves, query, buffer_pages
        )

    def _range_side(
        self, side: Dataset | str
    ) -> tuple[Dataset, str | None, ServiceLedger]:
        """A range query's dataset, guarded fingerprint and ledger
        (caller holds ``_lock``)."""
        if isinstance(side, str):
            entry = self._catalog.resolve(side)
            return entry.dataset, entry.fingerprint, self._ledger
        return side, None, self._ledger

    def _serves(self, fingerprint: str) -> bool:
        """Whether a name serves ``fingerprint`` (caller holds ``_lock``)."""
        return bool(self._catalog.names_bound_to(fingerprint))

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def stats(self) -> ServiceStats:
        """One immutable snapshot of the service's lifetime counters."""
        with self._lock:
            return self._ledger.snapshot(
                catalog_size=len(self._catalog), cache=self._results
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        with self._lock:
            return (
                f"SpatialQueryService(datasets={len(self._catalog)}, "
                f"cached_results={len(self._results)}, "
                f"requests={self._ledger.requests})"
            )
