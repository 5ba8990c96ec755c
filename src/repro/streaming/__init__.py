"""Streaming tier: deterministic delta batches.

The package owns the *data model* of mutation — ``DatasetDelta``, one
canonical insert/delete batch whose ``apply`` is a pure function of
content: it returns a fresh immutable dataset, and applying one delta
to equal content gives byte-identical arrays.  Nothing keeps a log of
applied deltas; whoever applies one keeps the dataset it returns.  The
structures that *consume* deltas live beside the structures they
maintain:

* ``repro.stats.sketch.DatasetSketch.apply_delta`` — the post-delta
  sketch (a rebuild: it measured faster than patching the counts);
* ``repro.joins.delta_join`` — patches a cached pair set to the
  post-delta truth, exactly equal to a full recompute;
* ``apply_delta`` on the service router (both tiers) — advances
  catalog fingerprints along the delta lineage and patches affected
  result-cache entries;
* ``repro.datagen.stream.DriftingClusterStream`` — the seeded
  moving-window workload generator that drives it all.
"""

from repro.streaming.delta import DatasetDelta

__all__ = [
    "DatasetDelta",
]
