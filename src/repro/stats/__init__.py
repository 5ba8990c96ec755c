"""``repro.stats`` — the statistics layer the planner plans from.

Every other layer consumes this one and none of it touches the
simulated disk: a :class:`DatasetSketch` is built in one vectorized
pass over a dataset's boxes (density grid, quadtree-refined heavy
cells, MBB, average extents), and one function,
:func:`~repro.stats.estimate.analyze_pair`, reduces two sketches to
the quantities cost-based planning needs — expected result pairs,
expected comparisons under a given partitioning, and co-location page
masses feeding the per-algorithm
:meth:`~repro.joins.base.SpatialJoinAlgorithm.estimate_join_cost`
hooks.

* :mod:`~repro.stats.sketch` — :class:`DatasetSketch` /
  :func:`build_sketch`;
* :mod:`~repro.stats.estimate` — :func:`analyze_pair`,
  :func:`estimate_pairs`, :func:`build_cost_profile` and the
  documented :data:`ESTIMATE_ERROR_BAND` accuracy contract.

Sketches are picklable and deterministic (equal content ⇒ identical
sketch in any process), which is what lets the workspace cache them
beside indexes and the service catalog store them under content
fingerprints.
"""

from repro.stats.estimate import (
    ESTIMATE_ERROR_BAND,
    CandidateCost,
    PairAnalysis,
    analyze_pair,
    build_cost_profile,
    estimate_pairs,
    within_error_band,
)
from repro.stats.sketch import DatasetSketch, build_sketch

__all__ = [
    "DatasetSketch",
    "build_sketch",
    "PairAnalysis",
    "analyze_pair",
    "CandidateCost",
    "estimate_pairs",
    "build_cost_profile",
    "within_error_band",
    "ESTIMATE_ERROR_BAND",
]
