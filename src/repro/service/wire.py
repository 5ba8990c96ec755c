"""Wire protocol of the sharded service tier.

Everything that crosses a router↔shard pipe is defined here, as plain
picklable dataclasses: commands down (each tagged with a router-chosen
sequence number), one :class:`ShardReply` back per command, matched by
that sequence number.  Shards hold no names, no results and no
counters: every command that reads a dataset carries it, a join's
reply is its :class:`~repro.engine.executor.RequestOutcome` and a
range query's its ids with the shard-side wall, and the router keeps
the tier's catalog, result cache and counters.  So there is no stats
command, and :class:`InvalidateCommand` only drops a shard's realised
dataset and range index.  Keeping the vocabulary in one module makes
the protocol auditable — a shard worker can do exactly the things
below, nothing else — and keeps :mod:`repro.service.sharded` importable by
``multiprocessing`` spawn children without dragging the router's
threading machinery along.

Datasets travel as :class:`DatasetPayload`: a shared-memory reference
(:class:`~repro.storage.shm.SharedDatasetRef`, a few hundred bytes;
the shard attaches zero-copy) when the router could publish the
content, or the pickled dataset itself as the fallback — the
fingerprint rides along either way so workers can cache realised
datasets by content without re-hashing.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.executor import JoinRequest
from repro.geometry.box import Box
from repro.joins.base import Dataset
from repro.storage.shm import SharedDatasetRef

__all__ = [
    "DatasetPayload",
    "InvalidateCommand",
    "JoinCommand",
    "RangeCommand",
    "CrashCommand",
    "ShutdownCommand",
    "ShardCommand",
    "ShardReply",
]


@dataclass(frozen=True)
class DatasetPayload:
    """One dataset side on the wire: shm ref, or pickled fallback.

    Exactly one of ``ref`` / ``dataset`` is set.  ``fingerprint`` is
    the content fingerprint in either case — the worker's realisation
    cache is keyed by it, so repeated commands over the same content
    realise one ``Dataset`` object per shard process (which is what
    keeps the workspace's identity-keyed index cache hot even on the
    pickling fallback path).
    """

    fingerprint: str
    ref: SharedDatasetRef | None = None
    dataset: Dataset | None = None

    def __post_init__(self) -> None:
        if (self.ref is None) == (self.dataset is None):
            raise ValueError(
                "DatasetPayload carries exactly one of ref/dataset"
            )


@dataclass(frozen=True)
class InvalidateCommand:
    """Drop cached state of a fingerprint no name serves any more.

    Broadcast to every shard on rebind/unregister: joins are routed by
    *pair*, so any shard may have realised the retired content.  Each
    shard forgets the dataset it realised for the fingerprint and that
    dataset's range index — no cross-shard coordination.
    """

    seq: int
    fingerprint: str


@dataclass(frozen=True)
class JoinCommand:
    """Execute one join over two realisable payloads."""

    seq: int
    a: DatasetPayload
    b: DatasetPayload
    algorithm: object  # str | SpatialJoinAlgorithm (both picklable)
    space: Box | None
    parameters: dict[str, object] | None
    label: str
    within: float | None

    def to_request(self, a: Dataset, b: Dataset) -> JoinRequest:
        """The concrete request once both sides are realised."""
        return JoinRequest(
            a=a,
            b=b,
            algorithm=self.algorithm,  # type: ignore[arg-type]
            space=self.space,
            parameters=self.parameters,
            label=self.label,
            within=self.within,
        )


@dataclass(frozen=True)
class RangeCommand:
    """Range query against the payload's content (owner shard only)."""

    seq: int
    payload: DatasetPayload
    query: Box
    buffer_pages: int


@dataclass(frozen=True)
class CrashCommand:
    """Failure injection: the worker dies without replying.

    Exists so the crash-recovery path (respawn, in-flight resend) is
    testable deterministically; never sent by production paths.
    """

    seq: int


@dataclass(frozen=True)
class ShutdownCommand:
    """Graceful stop: the worker acknowledges, then exits its loop."""

    seq: int


#: Everything a shard worker may be asked to do.
ShardCommand = (
    InvalidateCommand
    | JoinCommand
    | RangeCommand
    | CrashCommand
    | ShutdownCommand
)


@dataclass(frozen=True)
class ShardReply:
    """One reply per command, matched by sequence number.

    ``ok=False`` carries the captured exception as strings — shard
    workers never let an exception escape the command loop, mirroring
    the batch executor's per-request failure isolation.
    """

    seq: int
    ok: bool
    payload: object = None
    error: str | None = None
    error_type: str | None = None
