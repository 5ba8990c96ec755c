"""Streaming tier: mutable datasets and deterministic delta batches.

The package owns the *data model* of mutation — ``DatasetDelta`` (one
canonical insert/delete batch) and ``MutableDataset`` (base snapshot +
delta log with bit-identical replay).  The structures that *consume*
deltas live beside the structures they maintain:

* ``repro.stats.sketch.DatasetSketch.apply_delta`` — the post-delta
  sketch (a rebuild: it measured faster than patching the counts);
* ``repro.joins.delta_join`` — patches a cached pair set to the
  post-delta truth, exactly equal to a full recompute;
* ``SpatialQueryService.apply_delta`` / sharded routing — advances
  catalog fingerprints along the delta lineage and patches affected
  result-cache entries;
* ``repro.datagen.stream.DriftingClusterStream`` — the seeded
  moving-window workload generator that drives it all.
"""

from repro.streaming.delta import DatasetDelta
from repro.streaming.mutable import MutableDataset

__all__ = [
    "DatasetDelta",
    "MutableDataset",
]
