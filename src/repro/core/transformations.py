"""Transformation decisions and the cost model (paper Section VI).

TRANSFORMERS adapts two things while joining, both driven by the ratio
``Vg / Vf`` of the guide-side and follower-side MBB volumes at the
pivot's location (both datasets pack the same number of elements per
unit/node, so a larger volume means a locally *sparser* area):

* **role transformation** — if ``Vg/Vf <= 1/tsu`` the *follower* is
  locally sparser; guide and follower switch so the sparse side always
  guides (Equation 5);
* **data-layout transformation** — if ``Vg/Vf >= tsu`` the pivot is
  split from space-node to space-unit granularity (and from unit to
  single elements when the unit-level ratio exceeds ``tso``).

The thresholds come from a cost/benefit model (Equations 1-8):
splitting costs ``nSU × Tae`` extra exploration and saves
``(Vg/Vf) · cflt · nSU · (Tio + nSO · Tcomp)`` of reads and
comparisons, where

* ``Tae`` — cost of traversing/exploring one more descriptor,
* ``Tio`` — cost of reading one data page,
* ``Tcomp`` — cost of one element intersection test,
* ``cflt ∈ (0, 1)`` — fraction of the theoretically filterable data
  actually filtered,
* ``nSU``/``nSO`` — units per node / elements per unit.

All four are "best determined at runtime" (Section VI-C):
:class:`ThresholdController` starts from the paper's initial values
(tsu = 8, tso = 27) and re-estimates the thresholds from measured
exploration cost, I/O cost and filter rates once transformations start
happening.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro._types import BoolArray, FloatArray
from repro.core.config import TransformersConfig


@dataclass(frozen=True)
class Decision:
    """Outcome of a node-level transformation check."""

    #: One of "none", "role", "split".
    action: str
    #: The ratio the decision was based on (for tracing/tests).
    ratio: float


class ThresholdController:
    """Maintains tsu/tso and the runtime cost-model estimates.

    The controller observes three streams during the join —
    exploration work (descriptor visits and their cost), data-page
    reads, and per-pivot filter fractions — and recomputes the
    thresholds from Equations 4 and 8 after every processed pivot,
    provided the configuration asks for adaptivity and at least one
    transformation has happened (the paper updates parameters "once
    the first transformation is executed").
    """

    def __init__(
        self, config: TransformersConfig, n_su: int, n_so: int
    ) -> None:
        if n_su < 1 or n_so < 1:
            raise ValueError("n_su and n_so must be >= 1")
        self.config = config
        self.n_su = n_su
        self.n_so = n_so
        self.t_su = config.t_su_init
        self.t_so = config.t_so_init
        self.first_transformation_done = False
        # Measurement accumulators.
        self._exploration_cost = 0.0
        self._exploration_steps = 0
        self._data_cost = 0.0
        self._data_pages = 0
        self._cflt = 0.5  # neutral prior until measured

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------
    def decide_node(self, ratio: float, allow_role: bool = True) -> Decision:
        """Node-level decision for a pivot with volume ratio ``Vg/Vf``."""
        if not self.config.enable_transformations:
            return Decision("none", ratio)
        if allow_role and ratio <= 1.0 / self.t_su:
            return Decision("role", ratio)
        if ratio >= self.t_su:
            return Decision("split", ratio)
        return Decision("none", ratio)

    def split_units(self, ratios: FloatArray) -> BoolArray:
        """Unit-level decisions for a pivot's units with volume ratios
        ``ratios``: which to split to single elements (extreme skew)."""
        if not self.config.enable_transformations:
            return np.zeros(len(ratios), dtype=bool)
        split: BoolArray = ratios >= self.t_so
        return split

    # ------------------------------------------------------------------
    # Runtime measurements
    # ------------------------------------------------------------------
    def record_exploration(self, cost: float, steps: int) -> None:
        """Account walk/crawl work: simulated cost and descriptor visits."""
        self._exploration_cost += cost
        self._exploration_steps += steps

    def record_data_reads(self, costs: Sequence[float]) -> None:
        """Account data-page reads performed for in-memory joins: one
        cost per page read from disk, added in read order."""
        total = self._data_cost
        for cost in costs:
            total += cost
        self._data_cost = total
        self._data_pages += len(costs)

    def record_filter_fraction(self, fraction: float) -> None:
        """Fold one pivot's observed filter rate into the cflt estimate.

        ``fraction`` is the share of candidate units the page-MBB filter
        eliminated; an exponential moving average smooths it.
        """
        fraction = min(max(fraction, 0.0), 1.0)
        self._cflt = 0.8 * self._cflt + 0.2 * fraction

    def note_transformation(self) -> None:
        """Mark that a transformation happened (enables re-estimation)."""
        self.first_transformation_done = True

    # ------------------------------------------------------------------
    # Estimates (Equations 4 and 8)
    # ------------------------------------------------------------------
    @property
    def tae(self) -> float | None:
        """Measured exploration cost per descriptor visit, if any."""
        if self._exploration_steps == 0:
            return None
        return self._exploration_cost / self._exploration_steps

    @property
    def data_cost(self) -> float:
        """Summed cost of the data-page reads recorded so far."""
        return self._data_cost

    @property
    def tio(self) -> float | None:
        """Measured cost per data-page read, if any."""
        if self._data_pages == 0:
            return None
        return self._data_cost / self._data_pages

    @property
    def cflt(self) -> float:
        """Current filter-fraction estimate."""
        return self._cflt

    def update_thresholds(self) -> None:
        """Re-derive tsu (Eq. 4) and tso (Eq. 8) from the measurements.

        No-ops until the configuration allows adaptivity, the first
        transformation has happened, and both Tae and Tio have been
        observed.  Results are clamped to the configured floor/ceiling.
        """
        if not (
            self.config.adaptive_thresholds
            and self.config.enable_transformations
            and self.first_transformation_done
        ):
            return
        tae = self.tae
        tio = self.tio
        if tae is None or tio is None:
            return
        cflt = max(self._cflt, 1e-3)
        tcomp = self.config.cost_model.intersection_test_cost
        denominator = cflt * (tio + self.n_so * tcomp)
        if denominator <= 0.0:
            return
        t_su = tae / denominator
        t_so = (self.n_so * tae) / (self.n_su * denominator)
        lo = self.config.threshold_floor
        hi = self.config.threshold_ceiling
        self.t_su = min(max(t_su, lo), hi)
        self.t_so = min(max(t_so, lo), hi)
