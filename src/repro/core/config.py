"""Configuration of the TRANSFORMERS join.

Collects every tunable the paper discusses in one frozen dataclass:
the initial transformation thresholds of Section VII-D2, the switches
that produce the paper's ablation configurations (No-TR, OverFit,
UnderFit), and the buffer-pool size.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.joins.base import CostModel


@dataclass(frozen=True)
class TransformersConfig:
    """Tunables of the adaptive exploration.

    Attributes
    ----------
    t_su_init:
        Initial node→unit split threshold.  Paper VII-D2: "To trigger
        the first transformation we set the corresponding thresholds to
        initial values, i.e. tsu = 8" — the volume ratio of two MBBs
        one of whose edges is twice the other's (2³ = 8).
    t_so_init:
        Initial unit→element split threshold; 27 = 3³ (one edge three
        times larger).
    adaptive_thresholds:
        When True (default) the thresholds are re-estimated at runtime
        from the measured cost-model parameters (Tae, Tio, Tcomp,
        cflt) after the first transformation, per Equations 4 and 8.
        The paper's *OverFit*/*UnderFit* configurations set this to
        False and pin ``t_su_init``/``t_so_init``.
    enable_transformations:
        When False, no role or layout transformations happen at all and
        the join stays at space-node granularity throughout — the
        paper's *No TR* configuration (Figure 13 left).
    threshold_floor / threshold_ceiling:
        Clamp for runtime-estimated thresholds.  The floor defaults to
        the paper's initial tsu (8 = one MBB edge twice as long as the
        other): on the simulated disk, descriptor exploration is much
        cheaper relative to data I/O than on the paper's hardware
        (metadata is pool-resident), so an unclamped Equation 4 would
        drive the threshold towards "always split" even where splitting
        only costs batching.  The floor keeps the paper's minimum
        worth-acting-on contrast; the adaptive model can still *raise*
        the threshold when it observes poor filter rates.  The ceiling
        keeps a mis-estimated model from disabling transformations
        entirely.
    buffer_pages:
        Data buffer-pool capacity (pages) during the join.
    metadata_buffer_pages:
        Separate pool for descriptor/metadata pages, mirroring how real
        systems keep directory pages resident instead of letting bulk
        data reads evict them.  Descriptors are ~1 % of the data size
        at the paper's 8 KB pages, so pinning them is the realistic
        regime.
    cost_model:
        CPU cost constants used both for reporting and for the runtime
        threshold estimation.
    """

    t_su_init: float = 8.0
    t_so_init: float = 27.0
    adaptive_thresholds: bool = True
    enable_transformations: bool = True
    threshold_floor: float = 8.0
    threshold_ceiling: float = 1.0e6
    buffer_pages: int = 256
    metadata_buffer_pages: int = 512
    cost_model: CostModel = CostModel()

    def __post_init__(self) -> None:
        if self.t_su_init <= 0 or self.t_so_init <= 0:
            raise ValueError("initial thresholds must be positive")
        if self.threshold_floor <= 0:
            raise ValueError("threshold_floor must be positive")
        if self.threshold_ceiling < self.threshold_floor:
            raise ValueError("threshold_ceiling must be >= threshold_floor")
        if self.buffer_pages < 1:
            raise ValueError("buffer_pages must be >= 1")
        if self.metadata_buffer_pages < 1:
            raise ValueError("metadata_buffer_pages must be >= 1")

    @staticmethod
    def no_transformations() -> "TransformersConfig":
        """The paper's *No TR* ablation (Figure 13 left)."""
        return TransformersConfig(enable_transformations=False)

    @staticmethod
    def overfit() -> "TransformersConfig":
        """The paper's *OverFit* configuration: fixed threshold 1.5."""
        return TransformersConfig(
            t_su_init=1.5,
            t_so_init=1.5,
            adaptive_thresholds=False,
            threshold_floor=1.0,
        )

    @staticmethod
    def underfit() -> "TransformersConfig":
        """The paper's *UnderFit* configuration: threshold 10⁶ (never split)."""
        return TransformersConfig(
            t_su_init=1.0e6,
            t_so_init=1.0e6,
            adaptive_thresholds=False,
        )
