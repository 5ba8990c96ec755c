"""Algorithm registry: string names to configured join instances.

Every join algorithm in the repository has one row in a fixed table,
:data:`_REGISTRY`, under a stable lower-case name (``"transformers"``,
``"pbsm"``, ``"rtree"``, ``"gipsy"``, ``"nested-loop"``, ``"brute"``)
with a factory that accepts :class:`~repro.engine.planner.PlanHints` —
the planner-resolved parameters (shared space, PBSM grid resolution) a
caller would otherwise have to hand-wire.  The
:class:`~repro.engine.workspace.SpatialWorkspace` resolves
``algorithm="pbsm"`` through this table, so no user code needs to know
which class implements which name or which constructor arguments it
takes; an algorithm outside the table joins as a configured instance
(``workspace.join(a, b, algorithm=MyJoin())``).

The table also records whether an algorithm's per-dataset index can
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
from repro.joins.base import SpatialJoinAlgorithm

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (planner -> registry)
    from repro.engine.planner import PlanHints


@dataclass(frozen=True)
class AlgorithmSpec:
    """One registry entry: how to build an algorithm and what it can do."""

    name: str
    factory: Callable[["PlanHints"], SpatialJoinAlgorithm]
    #: Whether an index built for one dataset stays valid when the join
    #: partner changes (drives the workspace's index cache).
    reusable_index: bool = True
    #: Whether the auto-planner may select this algorithm
    #: (:func:`~repro.engine.planner.plan_join` consults this before
    #: resolving ``"auto"`` to a non-default choice).
    plannable: bool = True


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


# ----------------------------------------------------------------------
# The table
# ----------------------------------------------------------------------
def _make_transformers(hints: "PlanHints") -> SpatialJoinAlgorithm:
    """Adaptive exploration with role/layout transformations (the
    paper's contribution; robust default)."""
    return TransformersJoin(hints.param("config", None))


def _make_pbsm(hints: "PlanHints") -> SpatialJoinAlgorithm:
    """Partition Based Spatial-Merge (Patel & DeWitt '96); grid
    resolution resolved per dataset pair."""
    return PBSMJoin(
        space=hints.space, resolution=int(hints.param("resolution", 10))
    )


def _make_rtree(hints: "PlanHints") -> SpatialJoinAlgorithm:
    """Synchronized R-tree traversal (Brinkhoff et al. '93)."""
    return SynchronizedRTreeJoin(
        buffer_pages=int(hints.param("buffer_pages", 256))
    )


def _make_gipsy(hints: "PlanHints") -> SpatialJoinAlgorithm:
    """GIPSY crawling join (Pavlovic et al. '13); wins at extreme
    density ratios."""
    return GipsyJoin(
        outer=str(hints.param("outer", "auto")),
        buffer_pages=int(hints.param("buffer_pages", 256)),
    )


def _make_nested_loop(hints: "PlanHints") -> SpatialJoinAlgorithm:
    """Indexed nested loop: one R-tree probe per outer element."""
    return IndexedNestedLoopJoin(
        outer=str(hints.param("outer", "auto")),
        buffer_pages=int(hints.param("buffer_pages", 256)),
    )


def _make_brute(hints: "PlanHints") -> SpatialJoinAlgorithm:
    """Exhaustive O(|A|*|B|) oracle (correctness reference)."""
    return BruteForceJoin()


#: Every algorithm a name resolves to, keyed by that name.
_REGISTRY: dict[str, AlgorithmSpec] = {
    spec.name: spec
    for spec in (
        AlgorithmSpec("transformers", _make_transformers),
        # The shared grid depends on both inputs.
        AlgorithmSpec("pbsm", _make_pbsm, reusable_index=False),
        AlgorithmSpec("rtree", _make_rtree),
        AlgorithmSpec("gipsy", _make_gipsy),
        AlgorithmSpec("nested-loop", _make_nested_loop),
        AlgorithmSpec("brute", _make_brute, plannable=False),
    )
}
