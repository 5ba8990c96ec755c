"""Index substrates shared by the join algorithms.

* :mod:`~repro.index.str_pack` — Sort-Tile-Recursive packing
  (Leutenegger et al., ICDE '97), the partitioner behind the R-tree
  bulk-load, GIPSY's pages and TRANSFORMERS' space units/nodes;
* :mod:`~repro.index.grid` — uniform grids (PBSM's partitioning and the
  grid hash join's probe structure);
* :mod:`~repro.index.rtree` — a disk-based, STR bulk-loaded R-tree;
* :mod:`~repro.index.bplustree` — a bulk-loaded B+-tree, used by
  TRANSFORMERS over Hilbert values of space-node centres.
"""

from repro.index.bplustree import BPlusTree
from repro.index.grid import UniformGrid
from repro.index.rtree import RTree
from repro.index.str_pack import str_partition

__all__ = [
    "BPlusTree",
    "UniformGrid",
    "RTree",
    "str_partition",
]
