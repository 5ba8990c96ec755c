"""Wire protocol of the sharded service tier.

Everything that crosses a router↔shard pipe is defined here, as plain
picklable dataclasses: commands down (each tagged with a router-chosen
sequence number), one :class:`ShardReply` back per command, matched by
that sequence number.  Shards hold nothing between commands: every
command that reads a dataset carries it, a join's reply is its
:class:`~repro.engine.report.RunReport` and the shard-side wall of the
run, and the router keeps
the tier's catalog, result cache, range indexes, counters and the
lifetime of every shared-memory segment.  So the one real command is
:class:`JoinCommand`: the router answers stats and range queries
itself, and a retire has nothing to tell a shard.  Keeping the
vocabulary in one module makes
the protocol auditable — a shard worker can do exactly the things
below, nothing else — and keeps :mod:`repro.service.sharded` importable by
``multiprocessing`` spawn children without dragging the router's
threading machinery along.

Datasets travel as :class:`DatasetPayload`: a shared-memory reference
(:class:`~repro.storage.shm.SharedDatasetRef`, a few hundred bytes;
the shard attaches zero-copy) when a name serves the content and the
router could publish it, or else the pickled dataset itself.  The
content fingerprint travels either way: in the ref, or in the pickled
dataset, which carries the digest the router already took.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.executor import JoinRequest
from repro.geometry.box import Box
from repro.joins.base import Dataset
from repro.storage.shm import SharedDatasetRef

__all__ = [
    "DatasetPayload",
    "JoinCommand",
    "CrashCommand",
    "ShutdownCommand",
    "ShardCommand",
    "ShardReply",
]


@dataclass(frozen=True)
class DatasetPayload:
    """One dataset side on the wire: shm ref, or pickled fallback.

    Exactly one of ``ref`` / ``dataset`` is set.  A shard caches
    neither: a ref attaches through
    :func:`~repro.storage.shm.attach_dataset`, whose mapping lives only
    as long as the command's views of it, and a dataset is used as it
    arrived.
    """

    ref: SharedDatasetRef | None = None
    dataset: Dataset | None = None

    def __post_init__(self) -> None:
        if (self.ref is None) == (self.dataset is None):
            raise ValueError(
                "DatasetPayload carries exactly one of ref/dataset"
            )


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
ShardCommand = JoinCommand | CrashCommand | ShutdownCommand


@dataclass(frozen=True)
class ShardReply:
    """One reply per command, matched by sequence number.

    ``ok=True`` carries a join's :class:`~repro.engine.report.RunReport`
    as ``payload`` and the shard-side wall of its run as
    ``wall_seconds``; ``ok=False`` carries the captured exception as
    strings — shard workers never let an exception escape the command
    loop.
    """

    seq: int
    ok: bool
    payload: object = None
    error: str | None = None
    error_type: str | None = None
    wall_seconds: float = 0.0
