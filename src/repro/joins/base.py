"""Common interface, statistics and cost model for all join algorithms.

Every disk-based join in the repository (PBSM, synchronized R-tree,
GIPSY, TRANSFORMERS, indexed nested loop) implements
:class:`SpatialJoinAlgorithm`: an index phase that writes structures to
a simulated disk and a join phase that reads them back.  Both phases
report a :class:`JoinStats`, which carries exactly the quantities the
paper's figures break down:

* page I/O split into sequential vs. random reads (Figs. 11/12 "I/O"),
* element-level intersection tests (Figs. 11/12 right panels),
* metadata comparisons (the paper notes TRANSFORMERS' counts "also
  include metadata comparisons"),
* wall-clock seconds, and
* a *simulated time* combining I/O and CPU through :class:`CostModel`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro.geometry.boxes import BoxArray
from repro.storage.disk import DiskStats, SimulatedDisk


@dataclass(frozen=True)
class CostModel:
    """Converts work counters into simulated time.

    Unit: one sequential 8 KB page read = 1.0 cost unit (≈80 µs on the
    paper's 10kRPM SAS testbed at ~100 MB/s sequential throughput).
    An MBB intersection test costs ``intersection_test_cost`` units;
    the default 0.002 corresponds to ≈160 ns per test, the effective
    rate of a cache-unfriendly pointer-chasing C++ implementation.
    Metadata (descriptor/node MBB) comparisons are the same machine
    operation, hence the same default.

    These two constants do not change who wins any experiment — they
    shift the I/O:CPU balance inside a bar, which is why the harness
    exposes them for sensitivity sweeps (see the ablation benches).
    """

    intersection_test_cost: float = 0.002
    metadata_test_cost: float = 0.002

    def cpu_cost(self, intersection_tests: int, metadata_comparisons: int) -> float:
        """Simulated CPU time of the given comparison counts."""
        return (
            intersection_tests * self.intersection_test_cost
            + metadata_comparisons * self.metadata_test_cost
        )


@dataclass
class JoinStats:
    """Work performed by one phase (index build or join) of an algorithm."""

    algorithm: str = ""
    phase: str = "join"
    pairs_found: int = 0
    intersection_tests: int = 0
    metadata_comparisons: int = 0
    pages_read: int = 0
    seq_reads: int = 0
    random_reads: int = 0
    pages_written: int = 0
    io_cost: float = 0.0
    wall_seconds: float = 0.0
    #: Algorithm-specific extra metrics (e.g. TRANSFORMERS transformation
    #: counts, PBSM replication factor).  Values are floats for uniform
    #: reporting.
    extras: dict[str, float] = field(default_factory=dict)

    def absorb_io(self, delta: DiskStats) -> None:
        """Fold a disk-stats delta into this record."""
        self.pages_read += delta.pages_read
        self.seq_reads += delta.seq_reads
        self.random_reads += delta.random_reads
        self.pages_written += delta.pages_written
        self.io_cost += delta.total_cost

    def cpu_cost(self, cost_model: CostModel) -> float:
        """Simulated CPU time of this phase."""
        return cost_model.cpu_cost(
            self.intersection_tests, self.metadata_comparisons
        )

    def total_cost(self, cost_model: CostModel) -> float:
        """Simulated time: I/O plus CPU (the paper's join-time analogue)."""
        return self.io_cost + self.cpu_cost(cost_model)

    def as_dict(self, cost_model: CostModel | None = None) -> dict[str, float]:
        """Flat dictionary for reporting; adds costs when a model is given."""
        out: dict[str, float] = {
            "pairs_found": self.pairs_found,
            "intersection_tests": self.intersection_tests,
            "metadata_comparisons": self.metadata_comparisons,
            "pages_read": self.pages_read,
            "seq_reads": self.seq_reads,
            "random_reads": self.random_reads,
            "pages_written": self.pages_written,
            "io_cost": self.io_cost,
            "wall_seconds": self.wall_seconds,
        }
        if cost_model is not None:
            out["cpu_cost"] = self.cpu_cost(cost_model)
            out["total_cost"] = self.total_cost(cost_model)
        out.update(self.extras)
        return out


@dataclass(frozen=True)
class Dataset:
    """A named spatial dataset: element ids and their MBBs.

    Ids are globally meaningful (the join result pairs them up), so two
    datasets being joined must not share ids unless they really are the
    same elements.
    """

    name: str
    ids: np.ndarray
    boxes: BoxArray

    def __post_init__(self) -> None:
        ids = np.asarray(self.ids, dtype=np.int64)
        if ids.ndim != 1:
            raise ValueError("ids must be one-dimensional")
        if len(ids) != len(self.boxes):
            raise ValueError("ids and boxes must have equal length")
        if len(np.unique(ids)) != len(ids):
            raise ValueError("dataset ids must be unique")
        object.__setattr__(self, "ids", ids)

    def __len__(self) -> int:
        return len(self.boxes)

    @property
    def ndim(self) -> int:
        """Dimensionality of the elements."""
        return self.boxes.ndim


@dataclass
class JoinResult:
    """Outcome of a join: id pairs plus the work it took."""

    pairs: np.ndarray  # (m, 2) int64: (id from A, id from B)
    stats: JoinStats

    def pair_set(self) -> set[tuple[int, int]]:
        """The result as a Python set (for comparisons in tests)."""
        return {(int(a), int(b)) for a, b in self.pairs}


def canonical_pairs(pairs: np.ndarray) -> np.ndarray:
    """Sort and deduplicate an ``(m, 2)`` id-pair array: the final step
    of every join and delta patch (PBSM's multiple assignment, and any
    algorithm whose visits overlap, can report a pair several times).

    The result is ``np.unique(pairs, axis=0)`` byte for byte — int64,
    C order, rows ascending by ``(a, b)`` — without its structured-row
    sort: each row becomes the one integer key ``(a - a_min) * span_b +
    (b - b_min)``, which orders like the row, so a plain 1-D sort and a
    compare of neighbours do the work (543 → 34 µs for 1 320 rows,
    1 684 → 72 µs for 3 630; see :mod:`repro.vectorize`).  Only when
    the two id ranges multiply to 2**62 or more, where the key could
    overflow, are the rows ordered by ``lexsort`` instead.
    """
    pairs = np.asarray(pairs, dtype=np.int64)
    if pairs.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError("pairs must have shape (m, 2)")
    a, b = pairs[:, 0], pairs[:, 1]
    a_min, b_min = int(a.min()), int(b.min())
    span_b = int(b.max()) - b_min + 1
    if (int(a.max()) - a_min + 1) * span_b < 1 << 62:
        key = np.sort((a - a_min) * span_b + (b - b_min))
        key = key[np.concatenate(([True], key[1:] != key[:-1]))]
        a, b = np.divmod(key, span_b)
        return np.column_stack((a + a_min, b + b_min))
    rows = pairs[np.lexsort((b, a))]
    a, b = rows[:, 0], rows[:, 1]
    first = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
    return rows[np.concatenate(([True], first))]


@dataclass(frozen=True)
class CostProfile:
    """Workload statistics handed to the per-algorithm cost hooks.

    Built by :func:`repro.stats.estimate.build_cost_profile` from two
    :class:`~repro.stats.sketch.DatasetSketch` objects plus the
    planner's storage parameters, and consumed by
    :meth:`SpatialJoinAlgorithm.estimate_join_cost` implementations.
    All quantities are *estimates about the pair*, not measurements:
    the hooks combine them with per-algorithm calibration constants
    into predicted index/join costs in the same simulated-time units
    the reports use.
    """

    n_a: int
    n_b: int
    ndim: int
    #: Leaf data pages each side occupies at ``page_capacity``.
    pages_a: int
    pages_b: int
    #: Elements per data page (:func:`~repro.storage.page.element_page_capacity`).
    page_capacity: int
    #: Volume of the pair's shared space.
    space_volume: float
    #: Per-page costs of the simulated disk.
    seq_read_cost: float
    random_read_cost: float
    write_cost: float
    #: Per-comparison CPU costs of the report cost model.
    intersection_test_cost: float
    metadata_test_cost: float
    #: Estimated result pairs (the selectivity estimate).
    est_pairs: float
    #: Expected pages of each side located where the *other* side has
    #: mass — the pages a data-adaptive join actually needs to touch.
    #: Balanced pairs saturate at ``pages_x``; a tiny outer side pins
    #: these near its own cardinality.
    active_pages_a: float
    active_pages_b: float
    #: ``collision(extra)`` estimates candidate pairs when every
    #: element is dilated by ``extra`` per axis — ``collision(0.0)``
    #: is the pair estimate, ``collision(cell_side)`` approximates the
    #: comparisons a partitioning with that cell side performs.
    collision: Callable[[float], float]
    #: The planner's PBSM grid resolution for this pair.
    resolution: int

    @property
    def pages_total(self) -> int:
        """Data pages of both sides together."""
        return self.pages_a + self.pages_b

    @property
    def active_pages_total(self) -> float:
        """Co-located pages of both sides together."""
        return self.active_pages_a + self.active_pages_b

    @property
    def n_outer(self) -> int:
        """Cardinality of the smaller (outer/probing) side."""
        return min(self.n_a, self.n_b)

    @property
    def pages_inner(self) -> int:
        """Data pages of the larger (inner/indexed) side."""
        return max(self.pages_a, self.pages_b)

    def partition_side(self, per_elements: float) -> float:
        """Side length of a cube holding ``per_elements`` at pair density."""
        n_total = max(self.n_a + self.n_b, 1)
        volume = per_elements * self.space_volume / n_total
        return float(max(volume, 1e-12) ** (1.0 / self.ndim))


@dataclass(frozen=True)
class CostBreakdown:
    """One algorithm's predicted cost for one pair (simulated time)."""

    index_io: float
    join_io: float
    join_cpu: float
    est_tests: float

    @property
    def total(self) -> float:
        """Predicted end-to-end cost: indexing plus join I/O plus CPU."""
        return self.index_io + self.join_io + self.join_cpu


class SpatialJoinAlgorithm(ABC):
    """Base class for disk-based spatial join algorithms.

    Subclasses allocate their index structures on the
    :class:`~repro.storage.disk.SimulatedDisk` handed to
    :meth:`build_index` and read them back through buffer pools during
    :meth:`join`, so that every page access is accounted.
    """

    #: Short name used in reports ("PBSM", "R-TREE", ...).
    name: str = "abstract"

    @abstractmethod
    def build_index(self, disk: SimulatedDisk, dataset: Dataset) -> tuple[object, JoinStats]:
        """Index one dataset; return ``(index_handle, build_stats)``.

        The handle is opaque to callers and is passed back to
        :meth:`join`.  Implementations must reset the disk's stats at
        entry or snapshot/delta them so the returned stats cover only
        this build.
        """

    @abstractmethod
    def join(self, index_a: object, index_b: object) -> JoinResult:
        """Join two datasets previously indexed by this algorithm."""

    # ------------------------------------------------------------------
    # Cost hook (optional)
    # ------------------------------------------------------------------
    def estimate_join_cost(self, profile: CostProfile) -> CostBreakdown | None:
        """Predicted cost of running this algorithm on ``profile``.

        The cost-based planner (:func:`~repro.engine.planner.plan_join`
        with ``algorithm="auto"``) calls this hook on every plannable
        candidate and picks the cheapest prediction.  Returning
        ``None`` (the default) opts the algorithm out of cost-based
        selection — it stays runnable by explicit name.

        Implementations should derive the prediction from the profile's
        page counts, co-location masses and collision estimates; the
        shipped hooks document their calibration against the pinned
        benchmark suite.
        """
        return None
