"""TRANSFORMERS — the paper's contribution.

An adaptive, disk-based spatial join that is robust to locally varying
density contrasts between the joined datasets:

* :mod:`~repro.core.indexing` builds the three-level hierarchy (spatial
  elements → page-sized *space units* → *space nodes*) with gap-free
  partition MBBs, neighbourhood links between nodes, and a B+-tree over
  Hilbert values of node centres (paper Section IV);
* :mod:`~repro.core.walk` implements the Adaptive Walk (Algorithm 1);
* :mod:`~repro.core.crawl` implements Adaptive Crawling;
* :mod:`~repro.core.transformations` implements the cost model and the
  role/data-layout transformation thresholds (Section VI);
* :mod:`~repro.core.join` ties everything together into the Adaptive
  Exploration loop (Algorithm 2) behind the standard
  :class:`~repro.joins.base.SpatialJoinAlgorithm` interface.
"""

from repro.core.config import TransformersConfig
from repro.core.indexing import TransformersIndex, build_transformers_index
from repro.core.join import TransformersJoin
from repro.core.query import range_query

__all__ = [
    "TransformersConfig",
    "TransformersIndex",
    "build_transformers_index",
    "TransformersJoin",
    "range_query",
]
