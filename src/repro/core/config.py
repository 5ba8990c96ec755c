"""Configuration of the TRANSFORMERS join — and the env-var registry.

Collects every tunable the paper discusses in one frozen dataclass:
the initial transformation thresholds of Section VII-D2, the switches
that produce the paper's ablation configurations (No-TR, OverFit,
UnderFit), and the buffer-pool size.

This module is also the **single owner of every ``REPRO_*``
environment variable**.  Each knob is declared once in
:data:`ENV_REGISTRY` with its type, default, bounds and documentation;
callers read it through the typed accessors (:func:`env_int` /
:func:`env_float` / :func:`env_bool`, or the named helpers below).
The static-analysis rule RPL005 rejects any direct ``os.environ`` /
``os.getenv`` access of a ``REPRO_*`` name outside this module, and
the README's environment-variable table is generated from the
registry by :func:`env_table_markdown` (via
``python -m repro.analysis --env-table``).
"""

from __future__ import annotations

import os
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass

from repro.joins.base import CostModel

#: Strings :func:`env_bool` accepts, by truth value.
_TRUE_WORDS = frozenset({"1", "true", "yes", "on"})
_FALSE_WORDS = frozenset({"0", "false", "no", "off", ""})


@dataclass(frozen=True)
class EnvVar:
    """Declaration of one ``REPRO_*`` environment variable."""

    name: str
    #: ``"int"`` | ``"float"`` | ``"bool"`` — selects the parser and
    #: documents the type in the generated table.
    kind: str
    default: int | float | bool
    description: str
    #: Parsed numeric values are clamped up to this floor (``None``
    #: disables clamping).  Worker counts use 1.
    minimum: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("int", "float", "bool"):
            raise ValueError(f"unsupported env-var kind {self.kind!r}")
        if not self.name.startswith("REPRO_"):
            raise ValueError(
                f"registry owns REPRO_* names only, got {self.name!r}"
            )


#: Every supported ``REPRO_*`` variable.  Adding a knob means adding a
#: row here — RPL005 keeps ad-hoc ``os.environ`` reads out of the rest
#: of the tree, so this table is complete by construction.
ENV_REGISTRY: tuple[EnvVar, ...] = (
    EnvVar(
        name="REPRO_SHM",
        kind="bool",
        default=True,
        description=(
            "Publish datasets registered with the sharded service "
            "tier to its shard processes through multiprocessing "
            "shared memory (shards attach to one published copy). Set "
            "to 0 to force the pickling fallback; results are "
            "byte-identical either way."
        ),
    ),
    EnvVar(
        name="REPRO_SHARDS",
        kind="int",
        default=4,
        minimum=1,
        description=(
            "Default shard count of the sharded service tier "
            "(ShardedQueryService): worker processes the router "
            "partitions the catalog, result cache and range indexes "
            "across by content fingerprint."
        ),
    ),
    EnvVar(
        name="REPRO_SOAK_REQUESTS",
        kind="int",
        default=600,
        minimum=1,
        description=(
            "Request count for the service soak suite; tier-1 runs "
            "the smoke-sized default, CI's service-soak job raises "
            "it to 3000."
        ),
    ),
    EnvVar(
        name="REPRO_STREAM_PATCH",
        kind="bool",
        default=True,
        description=(
            "Patch cached join results through delta_join when a "
            "dataset takes a delta (SpatialQueryService.apply_delta). "
            "Set to 0 to always invalidate instead; results are "
            "byte-identical either way, patching just skips the cold "
            "re-join."
        ),
    ),
    EnvVar(
        name="REPRO_STREAM_PATCH_MAX_FRACTION",
        kind="float",
        default=0.25,
        minimum=0.0,
        description=(
            "Largest delta fraction (delta size / dataset size) the "
            "service still patches cached results for; larger deltas "
            "fall back to invalidation because re-joining approaches "
            "the patch cost."
        ),
    ),
    EnvVar(
        name="REPRO_STREAM_CHURN",
        kind="float",
        default=0.05,
        minimum=0.0,
        description=(
            "Default per-tick churn fraction of the drifting-cluster "
            "stream generator (repro.datagen.stream): each tick "
            "deletes and inserts this fraction of the window."
        ),
    ),
)

_BY_NAME: dict[str, EnvVar] = {var.name: var for var in ENV_REGISTRY}


def env_var(name: str) -> EnvVar:
    """The registry row for ``name``; ``KeyError`` if undeclared."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise KeyError(
            f"{name!r} is not a registered REPRO_* variable; declare "
            "it in repro.core.config.ENV_REGISTRY"
        ) from None


def _raw(name: str) -> str | None:
    env_var(name)  # undeclared names must fail loudly, even unset
    return os.environ.get(name)


def env_int(name: str) -> int:
    """Registered variable parsed as an int (clamped to its minimum)."""
    var = env_var(name)
    raw = _raw(name)
    if raw is None:
        value = int(var.default)
    else:
        try:
            value = int(raw)
        except ValueError:
            raise ValueError(
                f"{name} must be an integer, got {raw!r}"
            ) from None
    if var.minimum is not None:
        value = max(value, int(var.minimum))
    return value


def env_float(name: str) -> float:
    """Registered variable parsed as a float (clamped to its minimum)."""
    var = env_var(name)
    raw = _raw(name)
    if raw is None:
        value = float(var.default)
    else:
        try:
            value = float(raw)
        except ValueError:
            raise ValueError(
                f"{name} must be a number, got {raw!r}"
            ) from None
    if var.minimum is not None:
        value = max(value, var.minimum)
    return value


def env_bool(name: str) -> bool:
    """Registered variable parsed as a bool (1/true/yes/on vs 0/...)."""
    var = env_var(name)
    raw = _raw(name)
    if raw is None:
        return bool(var.default)
    lowered = raw.strip().lower()
    if lowered in _TRUE_WORDS:
        return True
    if lowered in _FALSE_WORDS:
        return False
    raise ValueError(
        f"{name} must be a boolean flag "
        f"(one of {sorted(_TRUE_WORDS | _FALSE_WORDS)}), got {raw!r}"
    )


@contextmanager
def env_override(name: str, value: object | None) -> Iterator[None]:
    """Temporarily pin a registered variable (``None`` unsets it).

    The previous state is restored on exit, error or not — e.g. to run
    one sharded service with ``REPRO_SHM`` off regardless of the ambient
    environment.
    """
    env_var(name)
    previous = os.environ.get(name)
    try:
        if value is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = str(value)
        yield
    finally:
        if previous is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = previous


# ----------------------------------------------------------------------
# Named accessors (one per knob, typed end to end)
# ----------------------------------------------------------------------
def shm_transport_enabled() -> bool:
    """``REPRO_SHM``: publish sharded-tier datasets via shared memory?"""
    return env_bool("REPRO_SHM")


def default_shards() -> int:
    """``REPRO_SHARDS``: sharded-tier worker process count."""
    return env_int("REPRO_SHARDS")


def soak_requests() -> int:
    """``REPRO_SOAK_REQUESTS``: service soak-suite request count."""
    return env_int("REPRO_SOAK_REQUESTS")


def stream_patch_enabled() -> bool:
    """``REPRO_STREAM_PATCH``: patch cached results under deltas?"""
    return env_bool("REPRO_STREAM_PATCH")


def stream_patch_max_fraction() -> float:
    """``REPRO_STREAM_PATCH_MAX_FRACTION``: patch-vs-invalidate cap."""
    return env_float("REPRO_STREAM_PATCH_MAX_FRACTION")


def stream_default_churn() -> float:
    """``REPRO_STREAM_CHURN``: stream generator per-tick churn."""
    return env_float("REPRO_STREAM_CHURN")


def env_table_markdown() -> str:
    """The README's environment-variable table, straight from the
    registry (``python -m repro.analysis --env-table`` prints this)."""
    header = (
        "| Variable | Type | Default | Description |\n"
        "| --- | --- | --- | --- |"
    )
    rows: list[str] = []
    for var in ENV_REGISTRY:
        default = (
            ("1" if var.default else "0")
            if var.kind == "bool"
            else str(var.default)
        )
        description = " ".join(str(var.description).split())
        rows.append(
            f"| `{var.name}` | {var.kind} | `{default}` | {description} |"
        )
    return "\n".join([header, *rows])


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
