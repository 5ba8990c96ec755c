"""Spatial join algorithms.

Baselines (paper Sections II, VII and VIII):

* :mod:`~repro.joins.brute` — exact nested-loop oracle (correctness
  reference for everything else);
* :mod:`~repro.joins.grid_hash` — in-memory grid hash join (Tauheed,
  Heinis & Ailamaki, BICOD '15), the in-memory kernel of PBSM and
  TRANSFORMERS;
* :mod:`~repro.joins.plane_sweep` — in-memory plane sweep, the kernel
  the R-tree join uses;
* :mod:`~repro.joins.pbsm` — Partition Based Spatial-Merge join (Patel
  & DeWitt, SIGMOD '96), space-oriented partitioning;
* :mod:`~repro.joins.sync_rtree` — synchronized R-tree traversal
  (Brinkhoff, Kriegel & Seeger, SIGMOD '93), data-oriented;
* :mod:`~repro.joins.gipsy` — GIPSY crawling join (Pavlovic et al.,
  SSDBM '13), data-oriented with connectivity;
* :mod:`~repro.joins.nested_loop` — indexed nested loop (related-work
  baseline);
* :mod:`~repro.joins.distance` — distance joins via the enlargement
  reduction of Section VIII.

The paper's contribution, TRANSFORMERS, lives in :mod:`repro.core` and
implements the same :class:`~repro.joins.base.SpatialJoinAlgorithm`
interface.
"""

from repro.joins.base import (
    CostModel,
    Dataset,
    JoinResult,
    JoinStats,
    SpatialJoinAlgorithm,
    canonical_pairs,
)
from repro.joins.brute import BruteForceJoin, brute_force_pairs
from repro.joins.delta import delta_join
from repro.joins.distance import enlarged_dataset
from repro.joins.grid_hash import grid_hash_join
from repro.joins.gipsy import GipsyJoin
from repro.joins.nested_loop import IndexedNestedLoopJoin
from repro.joins.pbsm import PBSMJoin
from repro.joins.plane_sweep import plane_sweep_join
from repro.joins.sync_rtree import SynchronizedRTreeJoin

__all__ = [
    "CostModel",
    "Dataset",
    "JoinResult",
    "JoinStats",
    "SpatialJoinAlgorithm",
    "canonical_pairs",
    "BruteForceJoin",
    "brute_force_pairs",
    "grid_hash_join",
    "plane_sweep_join",
    "PBSMJoin",
    "SynchronizedRTreeJoin",
    "GipsyJoin",
    "IndexedNestedLoopJoin",
    "delta_join",
    "enlarged_dataset",
]
