"""Experiment sizing: the paper's dataset sizes scaled for a run."""

from __future__ import annotations

import math


def scale_counts(counts: list[int], scale: float) -> list[int]:
    """Scale experiment sizes by a factor, keeping them >= 10."""
    return [max(10, math.ceil(c * scale)) for c in counts]
