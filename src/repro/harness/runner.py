"""Single-run machinery: one algorithm, one dataset pair, cold caches.

Mirrors the paper's measurement protocol (Section VII-A): each
algorithm gets its own disk, the index phase is timed separately from
the join phase, and caches are cold at the start of each phase ("we
clear OS caches and disk buffers before each experiment").
"""

from __future__ import annotations

import math

from repro.engine.report import RunReport
from repro.engine.workspace import SpatialWorkspace
from repro.joins.base import CostModel, Dataset, SpatialJoinAlgorithm
from repro.storage.disk import DiskModel


def run_pair(
    algorithm: SpatialJoinAlgorithm | str,
    a: Dataset,
    b: Dataset,
    disk_model: DiskModel | None = None,
    cost_model: CostModel | None = None,
) -> RunReport:
    """Index both datasets and join them on a fresh workspace.

    One :class:`~repro.engine.workspace.SpatialWorkspace` per run keeps
    the paper's protocol: nothing is shared between runs, and the
    workspace resets disk statistics between the index and join phases
    so the join starts with the cold caches the paper mandates.
    ``algorithm`` may be a configured instance or a registry name.
    """
    workspace = SpatialWorkspace(
        disk_model=disk_model, cost_model=cost_model
    )
    return workspace.join(a, b, algorithm=algorithm)


def geometric_sizes(start: int, stop: int, steps: int) -> list[int]:
    """``steps`` geometrically spaced integer sizes from start to stop."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if steps == 1:
        return [start]
    ratio = (stop / start) ** (1.0 / (steps - 1))
    return [round(start * ratio**i) for i in range(steps)]


def scale_counts(counts: list[int], scale: float) -> list[int]:
    """Scale experiment sizes by a factor, keeping them >= 10."""
    return [max(10, math.ceil(c * scale)) for c in counts]
