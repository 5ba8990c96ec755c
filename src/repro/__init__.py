"""repro — reproduction of "TRANSFORMERS: Robust Spatial Joins on
Non-Uniform Data Distributions" (Pavlovic et al., ICDE 2016).

Public API tour:

* **the engine** — :class:`~repro.engine.SpatialWorkspace`, the
  recommended entry point: owns the simulated disk, resolves algorithm
  names through a registry (:func:`~repro.engine.available_algorithms`),
  plans ``algorithm="auto"``, caches per-dataset indexes for reuse
  across joins and :meth:`~repro.engine.SpatialWorkspace.range_query`,
  and returns structured :class:`~repro.engine.RunReport` objects;
* **the service** — :class:`~repro.service.SpatialQueryService`, a
  long-lived front-end for sustained traffic: a content-fingerprinted
  dataset catalog, a bounded LRU result cache answering repeated joins
  synchronously, range queries off cached indexes, and
  :class:`~repro.service.ServiceStats` observability — the router of
  :class:`~repro.service.ShardedQueryService` over one in-process
  shard;
* **the contribution** — :class:`~repro.core.TransformersJoin` with
  :class:`~repro.core.TransformersConfig`;
* **baselines** — :class:`~repro.joins.PBSMJoin`,
  :class:`~repro.joins.SynchronizedRTreeJoin`,
  :class:`~repro.joins.GipsyJoin`,
  :class:`~repro.joins.IndexedNestedLoopJoin`, and the exact
  :class:`~repro.joins.BruteForceJoin` oracle;
* **statistics** — :mod:`repro.stats`, the layer the planner plans
  from: :class:`~repro.stats.DatasetSketch` density sketches and the
  selectivity/cost estimates behind cost-based ``algorithm="auto"``
  resolution; :func:`~repro.engine.plan_join` returns a
  :class:`~repro.engine.JoinPlan` carrying that evidence;
* **substrates** — :mod:`repro.geometry` (boxes, Hilbert curves,
  cylinders), :mod:`repro.storage` (simulated disk, buffer pool),
  :mod:`repro.index` (STR, R-tree, B+-tree, grids);
* **streaming** — :mod:`repro.streaming`:
  :class:`~repro.streaming.DatasetDelta` mutation records,
  :func:`~repro.joins.delta_join` result patching,
  :meth:`~repro.stats.DatasetSketch.apply_delta` sketch maintenance,
  and ``apply_delta`` on both service tiers — cached join results are
  patched to the post-delta truth instead of recomputed;
* **workloads** — :mod:`repro.datagen`, including the
  :class:`~repro.datagen.DriftingClusterStream` update generator;
* **experiments** — ``python -m repro.harness.experiments all``.

Quickstart::

    from repro import SpatialWorkspace, scaled_space, uniform_dataset

    space = scaled_space(20_000)
    a = uniform_dataset(10_000, seed=1, name="A", space=space)
    b = uniform_dataset(10_000, seed=2, name="B", id_offset=10**9,
                        space=space)

    ws = SpatialWorkspace()
    report = ws.join(a, b)          # planner picks the algorithm
    print(report.pairs_found, "intersecting pairs",
          f"(ran {report.algorithm}, cost {report.total_cost():.0f})")
    hits = ws.range_query(a, space) # reuses a's index, zero rebuilds
"""

from repro.core import (
    TransformersConfig,
    TransformersIndex,
    TransformersJoin,
    range_query,
)
from repro.engine import (
    BatchExecutor,
    JoinRequest,
    JoinPlan,
    RunReport,
    SpatialWorkspace,
    available_algorithms,
    plan_join,
)
from repro.datagen import (
    SPACE,
    DriftingClusterStream,
    dense_cluster,
    density_ladder,
    massive_cluster,
    neuro_datasets,
    scaled_space,
    uniform_cluster,
    uniform_dataset,
)
from repro.geometry import Box, BoxArray, Cylinder
from repro.joins import (
    BruteForceJoin,
    CostModel,
    Dataset,
    GipsyJoin,
    IndexedNestedLoopJoin,
    JoinResult,
    JoinStats,
    PBSMJoin,
    SynchronizedRTreeJoin,
    delta_join,
)
from repro.service import (
    ServiceResponse,
    ServiceStats,
    ShardedQueryService,
    SpatialQueryService,
    dataset_fingerprint,
)
from repro.stats import (
    DatasetSketch,
    build_sketch,
    estimate_pairs,
)
from repro.storage import BufferPool, DiskModel, SimulatedDisk
from repro.streaming import DatasetDelta

__version__ = "1.5.0"

__all__ = [
    "__version__",
    # engine (recommended entry point)
    "SpatialWorkspace",
    "RunReport",
    "BatchExecutor",
    "JoinRequest",
    "available_algorithms",
    "plan_join",
    "JoinPlan",
    "range_query",
    # stats (the layer the planner plans from)
    "DatasetSketch",
    "build_sketch",
    "estimate_pairs",
    # service (long-lived front-end: catalog + result cache)
    "SpatialQueryService",
    "ShardedQueryService",
    "ServiceResponse",
    "ServiceStats",
    "dataset_fingerprint",
    # core
    "TransformersJoin",
    "TransformersConfig",
    "TransformersIndex",
    # baselines
    "PBSMJoin",
    "SynchronizedRTreeJoin",
    "GipsyJoin",
    "IndexedNestedLoopJoin",
    "BruteForceJoin",
    # streaming (dataset deltas + delta joins)
    "DatasetDelta",
    "delta_join",
    "DriftingClusterStream",
    # shared types
    "Dataset",
    "JoinResult",
    "JoinStats",
    "CostModel",
    # geometry
    "Box",
    "BoxArray",
    "Cylinder",
    # storage
    "SimulatedDisk",
    "DiskModel",
    "BufferPool",
    # datagen
    "SPACE",
    "scaled_space",
    "uniform_dataset",
    "dense_cluster",
    "uniform_cluster",
    "massive_cluster",
    "neuro_datasets",
    "density_ladder",
]
