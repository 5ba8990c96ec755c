"""Algorithm registry: string names to configured join instances.

Every join algorithm in the repository self-registers here under a
stable lower-case name (``"transformers"``, ``"pbsm"``, ``"rtree"``,
``"gipsy"``, ``"nested-loop"``, ``"brute"``) with a factory that
accepts :class:`~repro.engine.planner.PlanHints` — the
planner-resolved parameters (shared space, PBSM grid resolution) a
caller would otherwise have to hand-wire.  The
:class:`~repro.engine.workspace.SpatialWorkspace` resolves
``algorithm="pbsm"`` through this table, so no user code needs to know
which class implements which name or which constructor arguments it
takes.

The registry also records whether an algorithm's per-dataset index can
be *reused* across joins (Section VII-C1): TRANSFORMERS, the R-tree
family and GIPSY index each dataset independently, while
PBSM partitions the *pair* (its resolution depends on the combined
cardinality), so its partitions are rebuilt for every pairing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.core import TransformersJoin
from repro.joins import (
    BruteForceJoin,
    GipsyJoin,
    IndexedNestedLoopJoin,
    PBSMJoin,
    SynchronizedRTreeJoin,
)
from repro.joins.base import Dataset, JoinResult, JoinStats, SpatialJoinAlgorithm
from repro.storage.disk import SimulatedDisk

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (planner -> registry)
    from repro.engine.planner import PlanHints


@dataclass(frozen=True)
class AlgorithmSpec:
    """One registry entry: how to build an algorithm and what it can do."""

    name: str
    factory: Callable[["PlanHints"], SpatialJoinAlgorithm]
    description: str = ""
    #: Whether an index built for one dataset stays valid when the join
    #: partner changes (drives the workspace's index cache).
    reusable_index: bool = True
    #: Whether the auto-planner may select this algorithm
    #: (:func:`~repro.engine.planner.plan_join` consults this before
    #: resolving ``"auto"`` to a non-default choice).
    plannable: bool = True


_REGISTRY: dict[str, AlgorithmSpec] = {}


def register_algorithm(
    name: str,
    factory: Callable[["PlanHints"], SpatialJoinAlgorithm] | None = None,
    *,
    description: str = "",
    reusable_index: bool = True,
    plannable: bool = True,
) -> Callable:
    """Register ``factory`` under ``name`` (usable as a decorator).

    Third-party algorithms can plug into the workspace with::

        @register_algorithm("my-join", description="...")
        def _make(hints):
            return MyJoin(space=hints.space)

    after which ``workspace.join(a, b, algorithm="my-join")`` resolves
    it like any built-in.  Registering an existing name raises.
    """
    key = name.strip().lower()
    if not key:
        raise ValueError("algorithm name must be non-empty")

    def _register(fn: Callable[["PlanHints"], SpatialJoinAlgorithm]):
        if key in _REGISTRY:
            raise ValueError(f"algorithm {key!r} is already registered")
        _REGISTRY[key] = AlgorithmSpec(
            name=key,
            factory=fn,
            description=description,
            reusable_index=reusable_index,
            plannable=plannable,
        )
        return fn

    if factory is not None:
        return _register(factory)
    return _register


def available_algorithms() -> tuple[str, ...]:
    """Sorted names accepted by ``SpatialWorkspace.join(algorithm=...)``."""
    return tuple(sorted(_REGISTRY))


def algorithm_spec(name: str) -> AlgorithmSpec:
    """Look up one registry entry; raise with the valid names otherwise."""
    key = name.strip().lower()
    try:
        return _REGISTRY[key]
    except KeyError:
        raise ValueError(
            f"unknown algorithm {name!r}; available: "
            f"{', '.join(available_algorithms())} (or 'auto')"
        ) from None


def create_algorithm(name: str, hints: "PlanHints") -> SpatialJoinAlgorithm:
    """Instantiate the named algorithm, configured from planner hints."""
    return algorithm_spec(name).factory(hints)


def spec_for_instance(algo: object) -> AlgorithmSpec | None:
    """Best-effort registry entry for a caller-supplied instance.

    Matches on display name (``algo.name``), so configured instances
    (e.g. ``TransformersJoin(custom_config)``) inherit their class's
    reuse semantics.
    """
    display = str(getattr(algo, "name", "")).lower()
    aliases = {"r-tree": "rtree", "inl": "nested-loop"}
    return _REGISTRY.get(aliases.get(display, display))


class OracleJoin(SpatialJoinAlgorithm):
    """Adapter giving :class:`BruteForceJoin` the standard two-phase shape.

    The oracle has no index: ``build_index`` hands the dataset itself
    back as the handle (zero pages written) and ``join`` delegates to
    the exhaustive comparison.  This lets the workspace treat all
    registered algorithms uniformly.
    """

    name = "BRUTE"

    def __init__(self) -> None:
        self._inner = BruteForceJoin()

    def build_index(
        self, disk: SimulatedDisk, dataset: Dataset
    ) -> tuple[Dataset, JoinStats]:
        return dataset, JoinStats(algorithm=self.name, phase="index")

    def join(self, index_a: Dataset, index_b: Dataset) -> JoinResult:
        return self._inner.join(index_a, index_b)


# ----------------------------------------------------------------------
# Built-in registrations
# ----------------------------------------------------------------------
@register_algorithm(
    "transformers",
    description="adaptive exploration with role/layout transformations "
    "(the paper's contribution; robust default)",
)
def _make_transformers(hints: "PlanHints") -> SpatialJoinAlgorithm:
    return TransformersJoin(hints.param("config", None))


@register_algorithm(
    "pbsm",
    description="Partition Based Spatial-Merge (Patel & DeWitt '96); "
    "grid resolution resolved per dataset pair",
    reusable_index=False,  # the shared grid depends on both inputs
)
def _make_pbsm(hints: "PlanHints") -> SpatialJoinAlgorithm:
    return PBSMJoin(
        space=hints.space, resolution=int(hints.param("resolution", 10))
    )


@register_algorithm(
    "rtree",
    description="synchronized R-tree traversal (Brinkhoff et al. '93)",
)
def _make_rtree(hints: "PlanHints") -> SpatialJoinAlgorithm:
    return SynchronizedRTreeJoin(
        buffer_pages=int(hints.param("buffer_pages", 256))
    )


@register_algorithm(
    "gipsy",
    description="GIPSY crawling join (Pavlovic et al. '13); wins at "
    "extreme density ratios",
)
def _make_gipsy(hints: "PlanHints") -> SpatialJoinAlgorithm:
    return GipsyJoin(
        outer=str(hints.param("outer", "auto")),
        buffer_pages=int(hints.param("buffer_pages", 256)),
    )


@register_algorithm(
    "nested-loop",
    description="indexed nested loop: one R-tree probe per outer element",
)
def _make_nested_loop(hints: "PlanHints") -> SpatialJoinAlgorithm:
    return IndexedNestedLoopJoin(
        outer=str(hints.param("outer", "auto")),
        buffer_pages=int(hints.param("buffer_pages", 256)),
    )


@register_algorithm(
    "brute",
    description="exhaustive O(|A|*|B|) oracle (correctness reference)",
    plannable=False,
)
def _make_brute(hints: "PlanHints") -> SpatialJoinAlgorithm:
    return OracleJoin()
