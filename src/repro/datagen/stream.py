"""Moving-window streaming workloads: drifting clusters emitting deltas.

The streaming tier needs a workload that looks like live spatial data:
a window of recent elements where each tick retires the oldest and
admits fresh ones near cluster centres that *drift* through the space
(sensors moving, activity migrating).  :class:`DriftingClusterStream`
produces exactly that as a sequence of
:class:`~repro.streaming.DatasetDelta` batches, applying each to the
window it keeps (its base snapshot and its current dataset, no delta
log) — fully seeded, so a stream replayed with the same parameters
emits bit-identical deltas and windows in any process.

Geometry reuses the paper-calibrated synthetic machinery: cluster
centres start from the Section VII-B normal distribution (rescaled to
the target space), elements get sides ~ U(0, 1] clipped to the space,
and the default space keeps :data:`~repro.datagen.synthetic.PAPER_DENSITY`
for the window size.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro._types import FloatArray
from repro.datagen.synthetic import (
    CLUSTER_MU,
    CLUSTER_SIGMA,
    _boxes_around_centers,
    _clip_centers,
    scaled_space,
)
from repro.geometry.box import Box
from repro.joins.base import Dataset
from repro.streaming import DatasetDelta


class DriftingClusterStream:
    """A seeded moving-window workload over drifting clusters.

    Parameters
    ----------
    n:
        Window size — the dataset holds ~``n`` elements at all times.
    seed:
        Master seed; every tick's drift, retirement and admission draw
        from one ``default_rng(seed)`` stream, so equal parameters
        replay equal deltas.
    clusters:
        Number of drifting cluster centres.
    churn:
        Fraction of the window replaced per tick (at least one
        element).
    drift:
        Per-tick cluster-centre step, as a fraction of the space side
        (a Gaussian step with this standard deviation).
    space:
        The data space; defaults to
        :func:`~repro.datagen.synthetic.scaled_space` at paper density
        for ``n``.
    name / id_offset:
        Dataset naming and the base of the monotonically increasing
        element-id sequence (fresh ids never repeat, so deltas compose
        without collisions).
    """

    def __init__(
        self,
        n: int,
        *,
        seed: int,
        clusters: int = 8,
        churn: float = 0.05,
        drift: float = 0.01,
        space: Box | None = None,
        name: str = "stream",
        id_offset: int = 0,
    ) -> None:
        if n < 1:
            raise ValueError("window size must be >= 1")
        if clusters < 1:
            raise ValueError("clusters must be >= 1")
        self.space = space if space is not None else scaled_space(n)
        self.churn = float(churn)
        if not 0.0 <= self.churn <= 1.0:
            raise ValueError("churn must be within [0, 1]")
        self.drift = float(drift)
        self._rng = np.random.default_rng(seed)
        self._next_id = int(id_offset)
        side = float(
            np.asarray(self.space.hi)[0] - np.asarray(self.space.lo)[0]
        )
        scale = side / 1000.0
        self._step = self.drift * side
        self._spread = CLUSTER_SIGMA * scale / 4.0
        self._centers: FloatArray = _clip_centers(
            np.asarray(self.space.lo)
            + self._rng.normal(
                CLUSTER_MU * scale,
                CLUSTER_SIGMA * scale,
                size=(clusters, self.space.ndim),
            ),
            self.space,
        )
        base = Dataset(
            name,
            self._take_ids(n),
            _boxes_around_centers(self._emit_centers(n), self._rng, self.space),
        )
        self._base = base
        self._current = base

    # ------------------------------------------------------------------
    # Internal draws (each consumes from the single seeded stream)
    # ------------------------------------------------------------------
    def _take_ids(self, k: int) -> np.ndarray:
        ids = np.arange(
            self._next_id, self._next_id + k, dtype=np.int64
        )
        self._next_id += k
        return ids

    def _emit_centers(self, k: int) -> FloatArray:
        which = self._rng.integers(0, len(self._centers), size=k)
        around: FloatArray = self._centers[which] + self._rng.normal(
            0.0, self._spread, size=(k, self.space.ndim)
        )
        return _clip_centers(around, self.space)

    # ------------------------------------------------------------------
    # Stream protocol
    # ------------------------------------------------------------------
    @property
    def current(self) -> Dataset:
        """The window's current contents."""
        return self._current

    def base(self) -> Dataset:
        """The initial window snapshot (before any tick)."""
        return self._base

    def tick(self) -> DatasetDelta:
        """Advance one step: drift, retire the oldest, admit fresh.

        Returns the applied delta (already folded into
        :attr:`current`).  Ids retire in admission order — the moving
        window — and fresh elements are drawn around the drifted
        centres.
        """
        self._centers = _clip_centers(
            self._centers
            + self._rng.normal(0.0, self._step, size=self._centers.shape),
            self.space,
        )
        current = self._current
        k = max(1, int(round(len(current) * self.churn)))
        k = min(k, len(current))
        # Oldest first: admission order is ascending id by construction.
        oldest = np.sort(current.ids)[:k]
        delta = DatasetDelta(
            delete_ids=oldest,
            insert_ids=self._take_ids(k),
            insert_boxes=_boxes_around_centers(
                self._emit_centers(k), self._rng, self.space
            ),
        )
        self._current = delta.apply(current)
        return delta

    def ticks(self, count: int) -> Iterator[DatasetDelta]:
        """Yield ``count`` consecutive deltas."""
        for _ in range(count):
            yield self.tick()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DriftingClusterStream(n={len(self._current)}, "
            f"churn={self.churn}, drift={self.drift})"
        )
