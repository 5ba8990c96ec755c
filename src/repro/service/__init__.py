"""Service layer: a long-lived front-end over the join engine.

While the engine (:mod:`repro.engine`) runs one join at a time on
fresh workspaces, this package keeps state *across* requests::

    from repro import JoinRequest, SpatialQueryService

    service = SpatialQueryService()
    service.register("axons", axons)        # content-fingerprinted
    service.register("dendrites", dendrites)

    cold = service.submit(JoinRequest("axons", "dendrites"))
    warm = service.submit(JoinRequest("axons", "dendrites"))
    assert warm.cached and warm.report is cold.report

    hits = service.range_query("axons", probe_box)
    print(service.stats().as_dict())

* :mod:`~repro.service.fingerprint` — stable content fingerprints and
  request cache keys;
* :mod:`~repro.service.catalog` — :class:`DatasetCatalog`, named and
  versioned dataset bindings;
* :mod:`~repro.service.cache` — :class:`ResultCache`, the bounded LRU
  of finished reports with hit/miss/eviction/invalidation counters;
* :mod:`~repro.service.service` — :class:`ServiceResponse` and the
  range-query index cache;
* :mod:`~repro.service.stats` — :class:`ServiceStats` snapshots of
  the router's ledgers;
* :mod:`~repro.service.sharding` / :mod:`~repro.service.wire` /
  :mod:`~repro.service.sharded` — consistent-hash routing over content
  fingerprints, the router↔shard command protocol, and the router
  itself: :class:`ShardedQueryService` over N shard processes, and
  :class:`SpatialQueryService`, the same router over one in-process
  shard.
"""

from repro.service.cache import ResultCache
from repro.service.catalog import CatalogEntry, DatasetCatalog
from repro.service.fingerprint import dataset_fingerprint, request_cache_key
from repro.service.service import ServiceResponse
from repro.service.sharded import (
    ShardSaturated,
    ShardedQueryService,
    SpatialQueryService,
)
from repro.service.sharding import HashRing
from repro.service.stats import ServiceStats

__all__ = [
    "SpatialQueryService",
    "ShardedQueryService",
    "ShardSaturated",
    "HashRing",
    "ServiceResponse",
    "ServiceStats",
    "DatasetCatalog",
    "CatalogEntry",
    "ResultCache",
    "dataset_fingerprint",
    "request_cache_key",
]
