"""Synthetic spatial datasets (paper Section VII-B).

"We create synthetic datasets by distributing spatial boxes in a space
of 1000 units in each dimension of a three-dimensional space.  The
length of each side of each box is determined uniform randomly between
0 and 1."  Three clustered families are defined:

* **DenseCluster** — ≈700 densely populated clusters; cluster centres
  drawn from N(500, 220) per axis.
* **UniformCluster** — 100 clusters spread so widely the result is
  nearly uniform; same centre distribution.
* **MassiveCluster** — 5 dense clusters, each with a fixed share of the
  elements, uniformly filled.

Sizes here are scaled down from the paper's 50M–650M elements per
dataset, with the page size scaled down alongside so page counts and
hierarchy depths stay realistic; the *relative* parameters — cluster
counts, centre distribution, element sizes — match the paper.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.box import Box
from repro.geometry.boxes import BoxArray
from repro.joins.base import Dataset

#: The paper's data space: 1000 units per axis, three dimensions.
SPACE = Box((0.0, 0.0, 0.0), (1000.0, 1000.0, 1000.0))

#: Cluster-centre distribution (paper: "a normal distribution
#: (µ = 500, σ = 220) to determine the centers of the clusters").
CLUSTER_MU = 500.0
CLUSTER_SIGMA = 220.0

#: The paper's experiments put 100M–1300M elements into the 1000³
#: space, i.e. 0.1–1.3 elements per unit volume.  Scaled-down runs keep
#: that density (and hence the paper's join selectivity and overlap
#: regime) by shrinking the space instead of growing the elements.
PAPER_DENSITY = 0.2


def scaled_space(n_total: int, density: float = PAPER_DENSITY) -> Box:
    """A cubic space sized so ``n_total`` elements match ``density``.

    All cluster parameters (`CLUSTER_MU`, `CLUSTER_SIGMA`, spreads) are
    defined relative to the 1000-unit space, so generators rescale them
    by ``side / 1000`` internally when given a smaller space.

    >>> s = scaled_space(200_000)
    >>> round(s.hi[0])
    100
    """
    if n_total < 1:
        raise ValueError("n_total must be >= 1")
    if density <= 0:
        raise ValueError("density must be positive")
    side = (n_total / density) ** (1.0 / 3.0)
    return Box((0.0, 0.0, 0.0), (side, side, side))


def _boxes_around_centers(
    centers: np.ndarray, rng: np.random.Generator, space: Box
) -> BoxArray:
    """Boxes with sides ~ U(0, 1] centred on ``centers``, clipped to space."""
    n, ndim = centers.shape
    sides = rng.uniform(0.0, 1.0, size=(n, ndim))
    lo = centers - sides / 2.0
    hi = centers + sides / 2.0
    space_lo = np.asarray(space.lo)
    space_hi = np.asarray(space.hi)
    lo = np.clip(lo, space_lo, space_hi)
    hi = np.clip(hi, space_lo, space_hi)
    return BoxArray.adopt(lo, hi)


def _dataset(name: str, id_offset: int, boxes: BoxArray) -> Dataset:
    """The generated dataset: ids from ``id_offset`` on, made for it and
    handed over (frozen here, so the dataset shares them)."""
    ids = np.arange(id_offset, id_offset + len(boxes))
    ids.setflags(write=False)
    return Dataset(name, ids, boxes)


def _clip_centers(centers: np.ndarray, space: Box) -> np.ndarray:
    return np.clip(
        centers, np.asarray(space.lo) + 0.5, np.asarray(space.hi) - 0.5
    )


def uniform_dataset(
    n: int,
    seed: int,
    name: str = "uniform",
    id_offset: int = 0,
    space: Box = SPACE,
) -> Dataset:
    """Uniformly distributed boxes over the whole space.

    The datasets behind Figure 1/10's density ladder and Table I.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    ndim = space.ndim
    centers = rng.uniform(
        np.asarray(space.lo), np.asarray(space.hi), size=(n, ndim)
    )
    centers = _clip_centers(centers, space)
    boxes = _boxes_around_centers(centers, rng, space)
    return _dataset(name, id_offset, boxes)


def _space_scale(space: Box) -> float:
    """Rescaling factor for parameters defined in the 1000-unit space."""
    return (space.hi[0] - space.lo[0]) / 1000.0


def _clustered(
    n: int,
    seed: int,
    num_clusters: int,
    cluster_spread: float,
    name: str,
    id_offset: int,
    space: Box,
) -> Dataset:
    """Shared machinery of DenseCluster / UniformCluster.

    ``cluster_spread`` and the centre distribution are specified in
    1000-unit-space terms and rescaled to ``space`` so a scaled-down
    run keeps the same *relative* geometry.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if num_clusters < 1:
        raise ValueError("num_clusters must be >= 1")
    rng = np.random.default_rng(seed)
    ndim = space.ndim
    scale = _space_scale(space)
    mid = np.asarray(space.center)
    cluster_centers = rng.normal(
        mid, CLUSTER_SIGMA * scale, size=(num_clusters, ndim)
    )
    cluster_centers = _clip_centers(cluster_centers, space)
    assignment = rng.integers(0, num_clusters, size=n)
    centers = cluster_centers[assignment] + rng.normal(
        0.0, max(cluster_spread * scale, 1e-9), size=(n, ndim)
    )
    centers = _clip_centers(centers, space)
    boxes = _boxes_around_centers(centers, rng, space)
    return _dataset(name, id_offset, boxes)


def dense_cluster(
    n: int,
    seed: int,
    name: str = "dense_cluster",
    id_offset: int = 0,
    space: Box = SPACE,
    num_clusters: int = 700,
    cluster_spread: float = 10.0,
) -> Dataset:
    """DenseCluster: ~700 tight clusters (strong local skew)."""
    return _clustered(
        n, seed, num_clusters, cluster_spread, name, id_offset, space
    )


def uniform_cluster(
    n: int,
    seed: int,
    name: str = "uniform_cluster",
    id_offset: int = 0,
    space: Box = SPACE,
    num_clusters: int = 100,
    cluster_spread: float = 200.0,
) -> Dataset:
    """UniformCluster: 100 wide clusters, nearly uniform overall."""
    return _clustered(
        n, seed, num_clusters, cluster_spread, name, id_offset, space
    )


def massive_cluster(
    n: int,
    seed: int,
    name: str = "massive_cluster",
    id_offset: int = 0,
    space: Box = SPACE,
    num_clusters: int = 5,
    cluster_radius: float = 60.0,
) -> Dataset:
    """MassiveCluster: 5 dense clusters with equal, fixed element counts.

    The paper fills each cluster with a fixed number (100K) of
    uniformly distributed elements; scaled, each cluster holds
    ``n // num_clusters`` elements (the remainder goes to the last
    cluster).  This family exhibits the most extreme local skew and
    drives the transformation-impact experiments (Figures 13/14).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    ndim = space.ndim
    radius = max(cluster_radius * _space_scale(space), 1e-9)
    lo_c = np.asarray(space.lo) + radius
    hi_c = np.asarray(space.hi) - radius
    hi_c = np.maximum(hi_c, lo_c)  # degenerate tiny spaces
    cluster_centers = rng.uniform(lo_c, hi_c, size=(num_clusters, ndim))
    per = n // num_clusters
    counts = [per] * num_clusters
    counts[-1] += n - per * num_clusters
    parts = []
    for c in range(num_clusters):
        offsets = rng.uniform(-radius, radius, size=(counts[c], ndim))
        parts.append(cluster_centers[c] + offsets)
    centers = _clip_centers(np.concatenate(parts), space)
    boxes = _boxes_around_centers(centers, rng, space)
    return _dataset(name, id_offset, boxes)
