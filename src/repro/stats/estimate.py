"""Selectivity and cost estimation over dataset sketches.

The estimators answer two questions the planner needs *before* running
anything:

* **How many pairs will this join produce?**
  :func:`estimate_pairs` integrates the product of the two sketches'
  density grids and multiplies by the expected per-pair overlap window
  (the Minkowski sum of the average extents) — the classic
  histogram-based spatial selectivity estimate, refined by the
  sketches' quadtree levels on heavy cells.
* **What will each algorithm cost?**  :func:`build_cost_profile`
  assembles a :class:`~repro.joins.base.CostProfile` (page counts,
  co-location masses, a collision kernel) that the planner hands to
  every algorithm's
  :meth:`~repro.joins.base.SpatialJoinAlgorithm.estimate_join_cost`
  hook, which combines it with per-algorithm calibration constants.

Both rest on one function, :func:`analyze_pair`, which reduces two
sketches to a :class:`PairAnalysis`.  Estimation is approximate by
design; the documented accuracy contract is
:data:`ESTIMATE_ERROR_BAND` (the pair estimate stays within that
multiplicative band of the true count on the repository's oracle
corpus — enforced by ``tests/test_stats_estimate.py`` and the planner
rows of ``tests/test_paper_figures_golden.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from repro._types import FloatArray

from repro.joins.base import CostBreakdown, CostProfile
from repro.stats.sketch import DatasetSketch
from repro.storage.page import element_page_capacity

#: Documented multiplicative accuracy band of :func:`estimate_pairs`
#: on the oracle corpus (uniform and clustered families).  Recorded in
#: every costed :class:`~repro.engine.planner.JoinPlan` so callers see
#: the contract next to the estimate.
ESTIMATE_ERROR_BAND = 4.0

#: Laplace-style smoothing applied when judging the band on tiny true
#: counts: a 3-pair ground truth must not fail the band because the
#: estimate says 14.
ERROR_BAND_SMOOTHING = 8.0


@dataclass
class PairAnalysis:
    """The one-pass cross-statistics of a sketch pair.

    ``base`` is the density-product integral
    ``∫ d_a(x) · d_b(x) dx`` evaluated piecewise over both effective
    cell sets; ``mass_b_at_a[i]`` is the expected number of B elements
    geometrically inside A's i-th effective cell (and vice versa).
    Everything an estimate needs derives from these without touching
    the raw datasets again.
    """

    sketch_a: DatasetSketch
    sketch_b: DatasetSketch
    base: float
    counts_a: FloatArray
    counts_b: FloatArray
    mass_b_at_a: FloatArray
    mass_a_at_b: FloatArray

    @property
    def kernel0(self) -> FloatArray:
        """Per-axis Minkowski window: sum of both average extents."""
        return self.sketch_a.avg_extent + self.sketch_b.avg_extent

    @property
    def max_pairs(self) -> float:
        """The cross product — no estimate may exceed it."""
        return float(self.sketch_a.n) * float(self.sketch_b.n)

    def collision(self, extra: float = 0.0) -> float:
        """Expected co-located pairs with each element dilated ``extra``.

        ``collision(0.0)`` estimates result pairs; ``collision(s)``
        estimates the candidate comparisons of a partitioning with
        cell side ``s`` (two elements collide when their centres fall
        within the dilated window).  Clamped to the cross product.
        """
        if self.base <= 0.0:
            return 0.0
        kernel = float(np.prod(self.kernel0 + extra))
        return float(min(self.base * kernel, self.max_pairs))

    def active_pages(self, page_capacity: int) -> tuple[float, float]:
        """Expected data pages of each side co-located with the other.

        A page is *active* when at least one partner element falls in
        its region; with ``m`` partner elements spread over ``p``
        pages of one cell, the expected active fraction is
        ``1 - exp(-m/p)``.  Balanced pairs saturate at the full page
        count; a tiny outer side pins the partner's active pages near
        its own cardinality — the regime where adaptive joins win.
        """
        cap = max(page_capacity, 1)

        def one_side(counts: FloatArray, partner_mass: FloatArray) -> float:
            if counts.size == 0:
                return 0.0
            pages = counts / cap
            safe = np.maximum(pages, 1.0)
            return float(np.sum(pages * -np.expm1(-partner_mass / safe)))

        return (
            one_side(self.counts_a, self.mass_b_at_a),
            one_side(self.counts_b, self.mass_a_at_b),
        )


def analyze_pair(
    sketch_a: DatasetSketch, sketch_b: DatasetSketch
) -> PairAnalysis:
    """Cross-integrate the two fine grids (heavy cells refined).

    Both sketches are regular grids (the quadtree refinement folds
    into the doubled :meth:`~repro.stats.sketch.DatasetSketch.fine_counts`
    grid), so the overlap volume between any two cells factorizes into
    per-axis interval overlaps.  The density-product integral then
    reduces to ``ndim`` small tensor contractions — linear in the cell
    count instead of quadratic.  Planning is still not free: a traced
    ``cold_skewed`` bench run (seed 777, shared 2-CPU Xeon) reads
    ``engine.plan_ms`` 1.99 ms of a 25.8 ms op (``client.op_p50_ms``;
    about 8 %), plus ``stats.sketch_ms`` 0.92 ms for each side's
    sketch.
    """
    if sketch_a.is_empty or sketch_b.is_empty:
        empty = np.empty(0)
        return PairAnalysis(
            sketch_a, sketch_b, 0.0, empty, empty, empty.copy(),
            empty.copy(),
        )
    counts_a = sketch_a.fine_counts()
    counts_b = sketch_b.fine_counts()
    vol_a = float(np.prod(sketch_a.cell_sides / 2.0))
    vol_b = float(np.prod(sketch_b.cell_sides / 2.0))
    dens_a = counts_a / max(vol_a, 1e-300)
    dens_b = counts_b / max(vol_b, 1e-300)
    edges_a = sketch_a.fine_edges()
    edges_b = sketch_b.fine_edges()
    ndim = sketch_a.ndim
    # Per-axis interval overlap matrices; their outer product is
    # the overlap volume of any fine cell pair.
    overlaps = [
        np.clip(
            np.minimum(edges_a[k][1:, None], edges_b[k][None, 1:])
            - np.maximum(edges_a[k][:-1, None], edges_b[k][None, :-1]),
            0.0,
            None,
        )
        for k in range(ndim)
    ]
    mass_b_at_a = _contract(dens_b, overlaps, transpose=False)
    mass_a_at_b = _contract(dens_a, overlaps, transpose=True)
    base = float(np.sum(dens_a * mass_b_at_a))
    return PairAnalysis(
        sketch_a,
        sketch_b,
        base,
        counts_a.ravel(),
        counts_b.ravel(),
        mass_b_at_a.ravel(),
        mass_a_at_b.ravel(),
    )


def _contract(
    density: FloatArray,
    overlaps: list[FloatArray],
    transpose: bool,
) -> FloatArray:
    """Apply the per-axis overlap matrices to a density tensor.

    Returns, per cell of the *other* grid, the partner mass
    geometrically inside that cell: ``Σ_j overlap_volume(i, j) · d[j]``
    evaluated axis by axis.  ``transpose`` selects which grid the
    result is indexed by.
    """
    out = density
    for axis, matrix in enumerate(overlaps):
        m = matrix.T if transpose else matrix
        out = np.moveaxis(np.tensordot(m, out, axes=(1, axis)), 0, axis)
    return out


def estimate_pairs(sketch_a: DatasetSketch, sketch_b: DatasetSketch) -> float:
    """Expected result pairs of joining the two sketched datasets.

    >>> import numpy as np
    >>> from repro.datagen import scaled_space, uniform_dataset
    >>> from repro.stats.sketch import build_sketch
    >>> space = scaled_space(4000)
    >>> a = build_sketch(uniform_dataset(2000, seed=1, space=space))
    >>> b = build_sketch(uniform_dataset(2000, seed=2, space=space))
    >>> 50 < estimate_pairs(a, b) < 800   # true count is ~200
    True
    """
    return analyze_pair(sketch_a, sketch_b).collision(0.0)


def within_error_band(
    estimate: float,
    actual: float,
    band: float = ESTIMATE_ERROR_BAND,
    smoothing: float = ERROR_BAND_SMOOTHING,
) -> bool:
    """Whether ``estimate`` is within the documented band of ``actual``.

    Both sides are smoothed by :data:`ERROR_BAND_SMOOTHING` so the
    band is meaningful on near-zero true counts (an estimate of 6
    against a truth of 1 is fine; 600 against 10 is not).
    """
    lo = (actual + smoothing) / band
    hi = (actual + smoothing) * band
    return lo <= estimate + smoothing <= hi


@dataclass(frozen=True)
class CandidateCost:
    """One algorithm's predicted cost, as ranked by the planner."""

    algorithm: str
    index_io: float
    join_io: float
    join_cpu: float
    total: float
    est_tests: float

    @classmethod
    def from_breakdown(
        cls, algorithm: str, breakdown: CostBreakdown
    ) -> "CandidateCost":
        """Freeze a hook's breakdown under the algorithm's name.

        The total is summed from the *rounded* components so the
        breakdown shown in a report is internally consistent (the
        components always add up to the total).
        """
        index_io = round(breakdown.index_io, 1)
        join_io = round(breakdown.join_io, 1)
        join_cpu = round(breakdown.join_cpu, 1)
        return cls(
            algorithm=algorithm,
            index_io=index_io,
            join_io=join_io,
            join_cpu=join_cpu,
            total=round(index_io + join_io + join_cpu, 1),
            est_tests=round(breakdown.est_tests, 1),
        )


def build_cost_profile(
    sketch_a: DatasetSketch,
    sketch_b: DatasetSketch,
    *,
    page_size: int,
    resolution: int,
    space_volume: float | None = None,
    seq_read_cost: float = 1.0,
    random_read_cost: float = 20.0,
    write_cost: float = 1.0,
    intersection_test_cost: float = 0.002,
    metadata_test_cost: float = 0.002,
) -> CostProfile:
    """Assemble the :class:`~repro.joins.base.CostProfile` for a pair.

    One :func:`analyze_pair` pass feeds both the pair estimate and the
    page masses; ``space_volume`` defaults to the union of both sketch
    MBBs.
    """
    analysis = analyze_pair(sketch_a, sketch_b)
    ndim = sketch_a.ndim if not sketch_a.is_empty else sketch_b.ndim
    cap = element_page_capacity(page_size, max(ndim, 1))
    if space_volume is None:
        lo = np.minimum(sketch_a.lo, sketch_b.lo)
        hi = np.maximum(sketch_a.hi, sketch_b.hi)
        space_volume = float(np.prod(np.maximum(hi - lo, 1e-12)))
    active_a, active_b = analysis.active_pages(cap)
    return CostProfile(
        n_a=sketch_a.n,
        n_b=sketch_b.n,
        ndim=max(ndim, 1),
        pages_a=-(-sketch_a.n // cap) if sketch_a.n else 0,
        pages_b=-(-sketch_b.n // cap) if sketch_b.n else 0,
        page_capacity=cap,
        space_volume=space_volume,
        seq_read_cost=seq_read_cost,
        random_read_cost=random_read_cost,
        write_cost=write_cost,
        intersection_test_cost=intersection_test_cost,
        metadata_test_cost=metadata_test_cost,
        est_pairs=analysis.collision(0.0),
        active_pages_a=active_a,
        active_pages_b=active_b,
        collision=analysis.collision,
        resolution=resolution,
    )

