"""The sharded service tier: N shard processes behind one async router.

One :class:`~repro.service.service.SpatialQueryService` saturates at
the throughput of a single process: every cache miss executes inline,
and every request serialises on one catalog/cache lock.  :class:`ShardedQueryService` scales that out by
*partitioning the service state by content fingerprint*:

* each of N **shard processes** runs a complete, unmodified
  ``SpatialQueryService`` (catalog slice, result cache, range-query
  index workspace) and executes commands from its pipe serially;
* the **router** (this process) owns the name → fingerprint map and a
  consistent-hash ring (:class:`~repro.service.sharding.HashRing`):
  datasets live on ``owner(fingerprint)``, joins on the owner of
  their ordered pair digest — so aliasing and rebind invalidation
  run against exactly one shard's catalog slice, and the whole
  result-cache neighbourhood of a pair is invalidatable on one shard;
* registered datasets ship as shared-memory references
  (:class:`~repro.storage.shm.SharedDatasetRef`, published once per
  content by the router's :class:`~repro.storage.shm.SharedDatasetPool`)
  when possible, so shard workers attach zero-copy instead of
  unpickling content per command.

The submission layer is asynchronous with explicit admission control:

* **backpressure** — at most ``max_inflight_per_shard`` commands may
  be in flight per shard; a full shard blocks new submissions up to
  ``queue_timeout_s`` before rejecting (``error_type="ShardSaturated"``);
* **degradation** — if the owning shard is saturated *right now* and
  the router's stale snapshot holds a previously computed report for
  the same key, the request is answered from that snapshot
  immediately (``degraded=True``) instead of queueing: stale-but-fast
  beats slow, and the snapshot is only ever a real, previously
  correct answer for the identical content-addressed key (purged on
  invalidation, so never an answer for retired content);
* **quotas** — an optional per-client in-flight bound rejects a
  client that hogs the tier (``error_type="ClientQuotaExceeded"``)
  without penalising the others.

Shard crashes are isolated: the router respawns the process, replays
the shard's owned registrations, and resends in-flight commands
exactly once — a command that kills the worker twice fails alone
(``error_type="ShardCrashed"``), everything else completes and other
shards never notice.  ``inline=True`` swaps the processes for
in-process shards (same command protocol, same routing) for
deterministic tests and coverage.
"""

from __future__ import annotations

import dataclasses
import itertools
import multiprocessing
import os
import threading
import time
from collections import OrderedDict
from collections.abc import Callable, Iterable
from concurrent.futures import Future
from dataclasses import dataclass
from multiprocessing.connection import Connection
from typing import Any

import numpy as np

from repro._types import IntArray
from repro.engine.executor import JoinRequest
from repro.engine.report import RunReport
from repro.engine.workspace import SpatialWorkspace
from repro.geometry.box import Box
from repro.joins.base import CostModel, Dataset
from repro.metrics import LatencyRecord
from repro.service.cache import ResultCache
from repro.service.catalog import CatalogEntry, check_binding, unknown_name
from repro.service.fingerprint import (
    CacheKey,
    dataset_fingerprint,
    request_cache_key,
)
from repro.service.patch import advance_delta
from repro.service.service import (
    DeltaOutcome,
    ServiceResponse,
    SpatialQueryService,
)
from repro.service.sharding import HashRing
from repro.service.stats import ServiceStats
from repro.service.wire import (
    CrashCommand,
    DatasetPayload,
    ExtractCommand,
    FillCommand,
    InvalidateCommand,
    JoinCommand,
    RangeCommand,
    RegisterCommand,
    ShardCommand,
    ShardReply,
    ShutdownCommand,
    StatsCommand,
    UnregisterCommand,
)
from repro.streaming.delta import DatasetDelta
from repro.storage.disk import DiskModel
from repro.storage.shm import (
    SharedDatasetPool,
    SharedDatasetRef,
    attach_dataset,
)

__all__ = [
    "ShardedQueryService",
    "ShardSaturated",
    "handle_command",
]

#: Exit code of a worker killed by :class:`CrashCommand` injection.
_CRASH_EXIT_CODE = 17
#: Sequence number of control traffic (shutdown, crash injection,
#: registration replay) whose replies nobody waits on; real commands
#: use the router's counter, which starts at 1.
_CONTROL_SEQ = 0
#: Bound of a worker's fingerprint -> realised-dataset cache on the
#: pickling fallback path (shm refs are cached per segment by
#: ``attach_dataset`` and do not count against this).
_REALISED_BOUND = 512
#: Old shared-memory refs to keep alive after their binding retired,
#: so commands already in flight when a rebind landed can still
#: attach; see ``ShardedQueryService._retire_ref``.
_RETIRE_WINDOW = 4
#: Bound of the router's stale snapshot serving degraded answers.
_STALE_ENTRIES = 512


class ShardSaturated(RuntimeError):
    """A shard stayed at its in-flight bound past the queue timeout."""


# ----------------------------------------------------------------------
# Shard-side command execution (runs in the worker process, and in the
# router process for inline shards)
# ----------------------------------------------------------------------
def _realise(
    realised: OrderedDict[str, Dataset], payload: DatasetPayload
) -> Dataset:
    """The concrete dataset behind a wire payload.

    Shared-memory refs attach zero-copy (``attach_dataset`` caches per
    segment, so repeats are dictionary lookups).  Pickled fallbacks are
    cached by content fingerprint in ``realised`` — the same content
    must realise as the *same object* within a shard, or the
    workspace's identity-keyed range index cache would rebuild per
    command — with an LRU bound so ad-hoc concrete-dataset traffic
    cannot grow the cache without limit.
    """
    if payload.ref is not None:
        return attach_dataset(payload.ref)
    cached = realised.get(payload.fingerprint)
    if cached is not None:
        realised.move_to_end(payload.fingerprint)
        return cached
    dataset = payload.dataset
    assert dataset is not None  # DatasetPayload invariant
    realised[payload.fingerprint] = dataset
    while len(realised) > _REALISED_BOUND:
        realised.popitem(last=False)
    return dataset


def handle_command(
    service: SpatialQueryService,
    realised: OrderedDict[str, Dataset],
    command: ShardCommand,
) -> object:
    """Execute one shard command against a shard's local service.

    This is the *entire* shard-side vocabulary: everything a worker
    process does funnels through here, which is what makes the shard
    protocol unit-testable in-process (the inline shards call it
    directly).  Returns the reply payload; exceptions propagate to
    :func:`execute_command`, which captures them into an ``ok=False``
    reply.
    """
    if isinstance(command, RegisterCommand):
        entry = service.register(
            command.name, _realise(realised, command.payload)
        )
        return (entry.fingerprint, entry.version)
    if isinstance(command, UnregisterCommand):
        entry = service.unregister(command.name)
        return entry.fingerprint
    if isinstance(command, InvalidateCommand):
        realised.pop(command.fingerprint, None)
        return service.invalidate_fingerprint(command.fingerprint)
    if isinstance(command, JoinCommand):
        a = _realise(realised, command.a)
        b = _realise(realised, command.b)
        return service.submit(command.to_request(a, b))
    if isinstance(command, RangeCommand):
        dataset = _realise(realised, command.payload)
        return service.range_query(
            dataset, command.query, buffer_pages=command.buffer_pages
        )
    if isinstance(command, ExtractCommand):
        return service.cached_entries(command.fingerprint)
    if isinstance(command, FillCommand):
        service.fill_cached(command.key, command.report)
        return True
    if isinstance(command, StatsCommand):
        return (service.stats(), service.latency_records())
    raise TypeError(
        f"unhandled shard command: {type(command).__name__}"
    )


def execute_command(
    service: SpatialQueryService,
    realised: OrderedDict[str, Dataset],
    command: ShardCommand,
) -> ShardReply:
    """Run one command and capture its outcome as the wire reply.

    Failures are isolated per command, mirroring the batch executor:
    an exception becomes an ``ok=False`` reply, never a dead shard.
    """
    try:
        payload = handle_command(service, realised, command)
    except Exception as exc:
        return ShardReply(
            seq=command.seq,
            ok=False,
            error=str(exc),
            error_type=type(exc).__name__,
        )
    return ShardReply(seq=command.seq, ok=True, payload=payload)


def _shard_worker(
    conn: Connection, service_options: dict[str, Any]
) -> None:
    """Entry point of one shard process: a serial command loop over a
    private service (the tier's parallelism is *across* shards, each of
    which runs its misses inline)."""
    service = SpatialQueryService(**service_options)
    realised: OrderedDict[str, Dataset] = OrderedDict()
    while True:
        try:
            command = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            break
        if isinstance(command, ShutdownCommand):
            try:
                conn.send(ShardReply(seq=command.seq, ok=True))
            except (BrokenPipeError, OSError):  # pragma: no cover
                pass
            break
        if isinstance(command, CrashCommand):
            # Failure injection: die *without* replying, exactly like
            # a segfault mid-command would.
            os._exit(_CRASH_EXIT_CODE)
        try:
            conn.send(execute_command(service, realised, command))
        except (BrokenPipeError, OSError):  # pragma: no cover
            break
    conn.close()


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------
class _AdmissionGate:
    """Bounded in-flight slots for one shard, with timed waits.

    A plain semaphore cannot express "check now, then maybe wait with
    a deadline" without double-counting; a condition over an integer
    can.
    """

    def __init__(self, limit: int) -> None:
        if limit < 1:
            raise ValueError("max_inflight_per_shard must be >= 1")
        self._limit = limit
        self._occupied = 0
        self._cond = threading.Condition()

    def try_acquire(self, timeout: float) -> bool:
        """Take a slot, waiting up to ``timeout`` seconds; False = full."""
        deadline = time.monotonic() + timeout
        with self._cond:
            while self._occupied >= self._limit:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._cond.wait(remaining)
            self._occupied += 1
            return True

    def release(self) -> None:
        with self._cond:
            self._occupied = max(0, self._occupied - 1)
            self._cond.notify()


# ----------------------------------------------------------------------
# Shard handles (router side)
# ----------------------------------------------------------------------
@dataclass
class _Pending:
    """One command awaiting its reply, with its resend budget."""

    future: "Future[ShardReply]"
    command: ShardCommand
    #: True once a respawn resent it: a second worker death while it
    #: was in flight marks it the poison command and fails it alone.
    retried: bool = False


class _ProcessShard:
    """One shard process: pipe, receiver thread, crash recovery.

    Thread model: any router thread may send (serialised by ``_io``);
    one receiver thread per live pipe matches replies to pending
    futures by sequence number.  When the pipe dies outside a graceful
    close, the receiver thread itself runs the respawn: fresh process,
    registration replay (fetched from the router via ``on_respawn``),
    then a single resend of everything still pending.  Lock order:
    ``_io`` may be taken while nothing else is held, may call out to
    the router's lock (via ``on_respawn``) and may take ``_state``;
    ``_state`` guards only the pending map and never calls out.
    """

    def __init__(
        self,
        index: int,
        *,
        service_options: dict[str, Any],
        gate: _AdmissionGate,
        on_respawn: Callable[[int], list[ShardCommand]],
    ) -> None:
        self.index = index
        self.gate = gate
        self._service_options = service_options
        self._on_respawn = on_respawn
        self._io = threading.Lock()
        self._state = threading.Lock()
        self._pending: dict[int, _Pending] = {}
        self._respawns = 0
        self._closing = False
        self._conn, self._process = self._spawn()
        self._receiver = self._start_receiver(self._conn)

    # -- lifecycle -----------------------------------------------------
    def _spawn(
        self,
    ) -> tuple[Connection, multiprocessing.Process]:
        parent, child = multiprocessing.Pipe()
        process = multiprocessing.Process(
            target=_shard_worker,
            args=(child, self._service_options),
            daemon=True,
            name=f"repro-shard-{self.index}",
        )
        process.start()
        child.close()
        return parent, process

    def _start_receiver(
        self, conn: Connection
    ) -> threading.Thread:
        thread = threading.Thread(
            target=self._recv_loop,
            args=(conn,),
            daemon=True,
            name=f"repro-shard-{self.index}-recv",
        )
        thread.start()
        return thread

    @property
    def respawns(self) -> int:
        with self._state:
            return self._respawns

    # -- requests ------------------------------------------------------
    def request_async(self, command: ShardCommand) -> "Future[ShardReply]":
        """Send a command; the future resolves when its reply arrives."""
        entry = _Pending(Future(), command)
        with self._state:
            if self._closing:
                raise RuntimeError(
                    f"shard {self.index} is closed"
                )
            self._pending[command.seq] = entry
        self._send(entry)
        return entry.future

    def request(self, command: ShardCommand) -> ShardReply:
        return self.request_async(command).result()

    def _send(self, entry: _Pending) -> None:
        """Best-effort send; a broken pipe is *not* an error here.

        If the worker died, the write side breaks together with the
        read side, so the receiver thread is guaranteed to observe EOF
        and run the respawn — which resends everything pending when it
        takes ``_io``, this command included (it was registered before
        this call).  Swallowing the send error (instead of retrying
        here) keeps exactly one resend path; a send that waited out a
        respawn finds its entry already resent and does nothing.
        """
        try:
            with self._io:
                if not entry.retried:
                    self._conn.send(entry.command)
        except (BrokenPipeError, OSError, ValueError):
            pass

    def inject_crash(self) -> None:
        """Failure injection: make the worker die mid-stream."""
        try:
            with self._io:
                self._conn.send(CrashCommand(seq=_CONTROL_SEQ))
        except (BrokenPipeError, OSError, ValueError):
            pass

    # -- receive / recovery --------------------------------------------
    def _recv_loop(
        self, conn: Connection
    ) -> None:
        while True:
            try:
                reply = conn.recv()
            except (EOFError, OSError):
                break
            except TypeError:
                # A concurrent close() nulled the connection's handle
                # mid-recv; multiprocessing surfaces that as TypeError
                # rather than OSError.  Same meaning: pipe is gone.
                break
            with self._state:
                entry = self._pending.pop(reply.seq, None)
            if entry is not None:
                # Resolved with no locks held: done-callbacks run here
                # in the receiver thread and take router locks.
                entry.future.set_result(reply)
        with self._state:
            closing = self._closing
        if closing:
            self._fail_pending("shard shut down with commands in flight")
            return
        self._respawn(conn)

    def _respawn(
        self, dead_conn: Connection
    ) -> None:
        """Crash path: new process, replay registrations, resend once."""
        self._process.join(timeout=5.0)
        survivors: list[_Pending] = []
        casualties: list[_Pending] = []
        with self._io:
            # The resend set is fixed while holding ``_io``: a send
            # that ran before this point went to the dead pipe and its
            # entry is pending, so it is resent below; one that runs
            # after goes to the fresh pipe.  Nothing falls in between.
            with self._state:
                self._respawns += 1
                for seq in list(self._pending):
                    entry = self._pending[seq]
                    if entry.retried:
                        casualties.append(self._pending.pop(seq))
                    else:
                        entry.retried = True
                        survivors.append(entry)
            try:
                dead_conn.close()
            except OSError:  # pragma: no cover
                pass
            self._conn, self._process = self._spawn()
            try:
                # Pipe order is execution order: the fresh worker sees
                # its owned registrations before any resent command.
                for command in self._on_respawn(self.index):
                    self._conn.send(command)
                for entry in survivors:
                    self._conn.send(entry.command)
            except (BrokenPipeError, OSError):  # pragma: no cover
                pass  # double crash: the next recv loop handles it
        for entry in casualties:
            # Two worker deaths with this command in flight: it is the
            # poison (or at least unlucky twice) — fail it alone.
            # Resolved with no locks held, like every other future.
            entry.future.set_result(
                ShardReply(
                    seq=entry.command.seq,
                    ok=False,
                    error=(
                        "shard worker died twice with this command "
                        "in flight"
                    ),
                    error_type="ShardCrashed",
                )
            )
        self._receiver = self._start_receiver(self._conn)

    def _fail_pending(self, reason: str) -> None:
        with self._state:
            leftovers = list(self._pending.values())
            self._pending.clear()
        for entry in leftovers:
            entry.future.set_result(
                ShardReply(
                    seq=entry.command.seq,
                    ok=False,
                    error=reason,
                    error_type="ShardClosed",
                )
            )

    def close(self) -> None:
        """Graceful stop: shutdown command, then join process and thread."""
        with self._state:
            if self._closing:
                return
            self._closing = True
        try:
            with self._io:
                self._conn.send(ShutdownCommand(seq=_CONTROL_SEQ))
        except (BrokenPipeError, OSError, ValueError):
            pass
        self._process.join(timeout=5.0)
        if self._process.is_alive():  # pragma: no cover - stuck worker
            self._process.terminate()
            self._process.join(timeout=1.0)
        # The worker's exit closed its pipe end, so the receiver sees
        # EOF and drains; joining it *before* closing our end keeps
        # recv() and close() off the same Connection concurrently.
        self._receiver.join(timeout=5.0)
        try:
            with self._io:
                self._conn.close()
        except OSError:  # pragma: no cover
            pass
        if self._receiver.is_alive():  # pragma: no cover - stuck recv
            self._receiver.join(timeout=1.0)
        self._fail_pending("shard shut down with commands in flight")


class _InlineShard:
    """In-process stand-in for a shard: same protocol, no process.

    Commands execute synchronously in the calling thread against a
    private ``SpatialQueryService`` — through the very same
    :func:`execute_command` the worker loop uses, so tests (and the
    coverage gate) exercise the real shard-side code without child
    processes.  Admission still applies: concurrent callers saturate
    an inline shard exactly like a process shard.
    """

    def __init__(
        self,
        index: int,
        *,
        service_options: dict[str, Any],
        gate: _AdmissionGate,
    ) -> None:
        self.index = index
        self.gate = gate
        self.service = SpatialQueryService(**service_options)
        self._realised: OrderedDict[str, Dataset] = OrderedDict()
        self._closing = False

    @property
    def respawns(self) -> int:
        return 0

    def request_async(self, command: ShardCommand) -> "Future[ShardReply]":
        if self._closing:
            raise RuntimeError(f"shard {self.index} is closed")
        future: Future[ShardReply] = Future()
        future.set_result(
            execute_command(self.service, self._realised, command)
        )
        return future

    def request(self, command: ShardCommand) -> ShardReply:
        return self.request_async(command).result()

    def inject_crash(self) -> None:
        raise RuntimeError(
            "crash injection requires process shards (inline=False)"
        )

    def close(self) -> None:
        self._closing = True


# ----------------------------------------------------------------------
# The router
# ----------------------------------------------------------------------
@dataclass
class _Binding:
    """Router-side record of one registered name."""

    name: str
    dataset: Dataset
    fingerprint: str
    version: int
    payload: DatasetPayload
    shard: int

    def entry(self) -> CatalogEntry:
        return CatalogEntry(
            name=self.name,
            dataset=self.dataset,
            fingerprint=self.fingerprint,
            version=self.version,
        )


class ShardedQueryService:
    """Content-partitioned, process-parallel front-end (see module doc).

    Parameters
    ----------
    shards:
        Shard count.
    disk_model / cost_model / max_cached_results / max_cached_indexes:
        Forwarded to every shard's private ``SpatialQueryService``
        (the cache bounds are therefore *per shard*).
    max_inflight_per_shard:
        Admission bound: commands in flight per shard before
        backpressure engages.
    queue_timeout_s:
        How long a submission waits on a saturated shard (after the
        degradation check) before being rejected.
    max_inflight_per_client:
        Optional per-client in-flight quota (``client=`` tags on
        submissions); ``None`` disables quotas.
    inline:
        Run shards in-process (deterministic tests, coverage) instead
        of as worker processes.
    """

    def __init__(
        self,
        shards: int = 4,
        *,
        disk_model: DiskModel | None = None,
        cost_model: CostModel | None = None,
        max_cached_results: int | None = 256,
        max_cached_indexes: int | None = (
            SpatialWorkspace.DEFAULT_MAX_CACHED_INDEXES
        ),
        max_inflight_per_shard: int = 8,
        queue_timeout_s: float = 2.0,
        max_inflight_per_client: int | None = None,
        inline: bool = False,
    ) -> None:
        self._ring = HashRing(shards)
        self.queue_timeout_s = queue_timeout_s
        self._client_quota = max_inflight_per_client
        #: Guards names, stale snapshot, client counts and counters;
        #: held briefly, never across a shard round-trip.
        self._lock = threading.Lock()
        #: Serialises catalog mutations (register/unregister/close)
        #: end-to-end, shard round-trips included, and is the only
        #: context allowed to touch the (not thread-safe) publication
        #: pool.  Order: ``_mutate`` may take ``_lock``, never the
        #: reverse.
        self._mutate = threading.Lock()
        self._pages = SharedDatasetPool()
        self._names: dict[str, _Binding] = {}
        #: The stale snapshot: the last report the tier handed out per
        #: key, purged on invalidation.  Guarded by ``_lock``.
        self._stale = ResultCache(max_entries=_STALE_ENTRIES)
        self._clients: dict[str, int] = {}
        self._retired: list[SharedDatasetRef] = []
        self._degraded = 0
        self._rejected = 0
        #: Streaming tier, router side: deltas routed, entries patched
        #: and re-filed, and entries that fell back to invalidation.
        self._delta_applies = 0
        self._delta_patches = 0
        self._delta_patch_fallbacks = 0
        self._seq = itertools.count(1)
        self._started = time.perf_counter()
        self._closed = False
        service_options: dict[str, Any] = {
            "disk_model": disk_model,
            "cost_model": cost_model,
            "max_cached_results": max_cached_results,
            "max_cached_indexes": max_cached_indexes,
        }
        self._shards: list[_ProcessShard | _InlineShard] = []
        try:
            for index in range(shards):
                gate = _AdmissionGate(max_inflight_per_shard)
                if inline:
                    self._shards.append(
                        _InlineShard(
                            index, service_options=service_options, gate=gate
                        )
                    )
                else:
                    self._shards.append(
                        _ProcessShard(
                            index,
                            service_options=service_options,
                            gate=gate,
                            on_respawn=self._replay_commands,
                        )
                    )
        except BaseException:
            # A shard that fails to start (EAGAIN, fd limit) must not
            # leave the ones already started running until exit.
            self.close()
            raise

    # -- introspection -------------------------------------------------
    @property
    def shards(self) -> int:
        return self._ring.shards

    def names(self) -> tuple[str, ...]:
        """All registered names, sorted (the router map is authoritative)."""
        with self._lock:
            return tuple(sorted(self._names))

    def shard_of(self, name: str) -> int:
        """Which shard owns the content currently bound to ``name``."""
        with self._lock:
            return self._lookup(name).shard

    def shard_respawns(self) -> list[int]:
        """Per-shard crash-recovery counts (observability/tests)."""
        return [handle.respawns for handle in self._shards]

    def __contains__(self, name: object) -> bool:
        with self._lock:
            return name in self._names

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        with self._lock:
            return (
                f"ShardedQueryService(shards={self._ring.shards}, "
                f"datasets={len(self._names)})"
            )

    # -- catalog -------------------------------------------------------
    def register(self, name: str, dataset: Dataset) -> CatalogEntry:
        """Bind ``name`` to ``dataset`` on the content's owner shard.

        Same contract as the single-process service: equal content is
        a no-op, changed content bumps the version and invalidates the
        old content's cached state everywhere (unless an alias still
        serves it).  Returns only after the owner shard acknowledged —
        a join submitted after ``register`` returns is guaranteed to
        see the new content.
        """
        check_binding(name, dataset)
        fingerprint = dataset_fingerprint(dataset)
        with self._mutate:
            self._ensure_open()
            with self._lock:
                old = self._names.get(name)
            if old is not None and old.fingerprint == fingerprint:
                return old.entry()
            return self._bind(name, dataset, fingerprint, old).entry()

    def _bind(
        self,
        name: str,
        dataset: Dataset,
        fingerprint: str,
        old: _Binding | None,
    ) -> _Binding:
        """Publish content, bind it on its owner shard, retire ``old``.

        Caller holds ``_mutate``.  Content ships as a shared-memory
        payload when possible, pickled otherwise.  The name moves only
        once the owner shard acknowledged; if it refuses, the segment
        reference just published is dropped again — nothing else will
        ever retire it.
        """
        ref = self._pages.publish(dataset)
        payload = (
            DatasetPayload(fingerprint=fingerprint, ref=ref)
            if ref is not None
            else DatasetPayload(fingerprint=fingerprint, dataset=dataset)
        )
        binding = _Binding(
            name=name,
            dataset=dataset,
            fingerprint=fingerprint,
            version=1 if old is None else old.version + 1,
            payload=payload,
            shard=self._ring.owner(fingerprint),
        )
        try:
            reply = self._shards[binding.shard].request(
                RegisterCommand(
                    seq=next(self._seq), name=name, payload=payload
                )
            )
            self._raise_reply(reply, f"register {name!r}")
        except BaseException:
            if ref is not None:
                self._pages.release(ref)
            raise
        with self._lock:
            self._names[name] = binding
        if old is not None:
            self._retire(old, replaced_on=binding.shard)
        return binding

    def unregister(self, name: str) -> CatalogEntry:
        """Drop ``name`` everywhere; returns the retired entry."""
        with self._mutate:
            self._ensure_open()
            with self._lock:
                binding = self._lookup(name)
                del self._names[name]
            self._retire(binding, replaced_on=None)
            return binding.entry()

    def apply_delta(self, name: str, delta: DatasetDelta) -> DeltaOutcome:
        """Advance ``name`` along ``delta`` across the whole tier.

        The same flow as :meth:`SpatialQueryService.apply_delta`
        (:func:`~repro.service.patch.advance_delta`), with the cache
        spread over shards: cached results touching the old content
        are *extracted* from every shard (joins are pair-routed, so
        they can live anywhere) and patched router-side, and the
        post-delta name is re-bound exactly like :meth:`register` —
        shared-memory publication, owner-shard registration, retire of
        the old binding (which broadcasts the invalidation sweep).
        Each patched report is then *filled* onto the shard owning its
        post-delta pair, where a later identical join is a cache hit;
        the router's stale snapshot learns the patched answers too, so
        even degraded responses are post-delta.

        Runs under the catalog-mutation lock end-to-end: deltas
        serialise with register/unregister, never with joins.  Raises
        ``KeyError`` for unknown names and propagates
        :meth:`DatasetDelta.apply`'s validation errors.
        """
        with self._mutate:
            self._ensure_open()
            with self._lock:
                old = self._lookup(name)
            (
                new_dataset,
                new_fingerprint,
                fraction,
                noop,
                rewritten,
                fallbacks,
            ) = advance_delta(
                delta,
                old.dataset,
                old.fingerprint,
                affected=lambda: self._extract(old.fingerprint),
                resolve=self._dataset_by_fingerprint,
            )
            with self._lock:
                self._delta_applies += 1
            if noop:
                return DeltaOutcome(
                    entry=old.entry(),
                    fraction=fraction,
                    patched=0,
                    fallbacks=0,
                    noop=True,
                )
            # The retire inside sweeps the extracted originals.
            binding = self._bind(name, new_dataset, new_fingerprint, old)
            fills = []
            for key, report in rewritten:
                fp_a, fp_b = key[0], key[1]
                assert isinstance(fp_a, str) and isinstance(fp_b, str)
                owner = self._ring.owner_of_pair(fp_a, fp_b)
                fills.append(
                    self._shards[owner].request_async(
                        FillCommand(
                            seq=next(self._seq), key=key, report=report
                        )
                    )
                )
            for (key, report), future in zip(rewritten, fills):
                self._raise_reply(
                    future.result(), "cache fill after delta"
                )
                self._remember(key, report)
            with self._lock:
                self._delta_patches += len(rewritten)
                self._delta_patch_fallbacks += fallbacks
            return DeltaOutcome(
                entry=binding.entry(),
                fraction=fraction,
                patched=len(rewritten),
                fallbacks=fallbacks,
            )

    def _extract(
        self, fingerprint: str
    ) -> list[tuple[CacheKey, RunReport]]:
        """Every shard's cached entries touching ``fingerprint``."""
        affected: dict[CacheKey, RunReport] = {}
        for reply in self._broadcast(
            lambda seq: ExtractCommand(seq=seq, fingerprint=fingerprint)
        ):
            self._raise_reply(reply, "extract for delta")
            payload = reply.payload
            assert isinstance(payload, list)
            for key, report in payload:
                affected.setdefault(key, report)
        return list(affected.items())

    def _broadcast(
        self, make: Callable[[int], ShardCommand]
    ) -> list[ShardReply]:
        """One command per shard, sent concurrently; replies in order."""
        futures = [
            handle.request_async(make(next(self._seq)))
            for handle in self._shards
        ]
        return [future.result() for future in futures]

    def _dataset_by_fingerprint(self, fingerprint: object) -> Dataset | None:
        """The dataset some live binding serves under ``fingerprint``."""
        if not isinstance(fingerprint, str):
            return None
        with self._lock:
            for binding in self._names.values():
                if binding.fingerprint == fingerprint:
                    return binding.dataset
        return None

    def _retire(
        self, old: _Binding, *, replaced_on: int | None
    ) -> None:
        """Tear down one retired binding (caller holds ``_mutate``).

        The owner shard drops the name (unless a register to the same
        shard already replaced it in one step); then, if no surviving
        name serves the old content, every shard drops its cached
        results for it — joins are pair-routed, so those entries can
        live anywhere — and the router purges its stale snapshot of
        them.  The shared-memory ref is released through the retire
        window, not immediately: a command already in flight may still
        need to attach the old segment.
        """
        if replaced_on != old.shard:
            reply = self._shards[old.shard].request(
                UnregisterCommand(seq=next(self._seq), name=old.name)
            )
            self._raise_reply(reply, f"unregister {old.name!r}")
        with self._lock:
            survived = any(
                binding.fingerprint == old.fingerprint
                for binding in self._names.values()
            )
        if not survived:
            self._broadcast(
                lambda seq: InvalidateCommand(
                    seq=seq, fingerprint=old.fingerprint
                )
            )
            with self._lock:
                self._stale.invalidate_fingerprint(old.fingerprint)
        if old.payload.ref is not None:
            self._retire_ref(old.payload.ref)

    def _retire_ref(self, ref: SharedDatasetRef) -> None:
        """Queue an old segment ref for deferred release.

        Releasing immediately could unlink a segment that a join
        command (queued before the rebind landed) has not attached
        yet; the window keeps the last few retired segments alive long
        enough for any such command to drain.  Caller holds
        ``_mutate``.
        """
        self._retired.append(ref)
        while len(self._retired) > _RETIRE_WINDOW:
            self._pages.release(self._retired.pop(0))

    def _replay_commands(self, shard: int) -> list[ShardCommand]:
        """Registrations a respawned shard must replay, in one batch."""
        with self._lock:
            return [
                RegisterCommand(
                    seq=_CONTROL_SEQ,
                    name=binding.name,
                    payload=binding.payload,
                )
                for binding in self._names.values()
                if binding.shard == shard
            ]

    # -- joins ---------------------------------------------------------
    def submit(
        self, request: JoinRequest, *, client: str | None = None
    ) -> ServiceResponse:
        """Serve one join (synchronous wrapper over :meth:`submit_async`)."""
        return self.submit_async(request, client=client).result()

    def submit_many(
        self,
        requests: Iterable[JoinRequest],
        *,
        client: str | None = None,
    ) -> list[ServiceResponse]:
        """Serve a batch concurrently across shards, in request order."""
        futures: list[Future[ServiceResponse]] = []
        try:
            for request in requests:
                futures.append(self.submit_async(request, client=client))
        except BaseException:
            for future in futures:
                future.result()  # drain in-flight work before raising
            raise
        return [future.result() for future in futures]

    def submit_async(
        self, request: JoinRequest, *, client: str | None = None
    ) -> "Future[ServiceResponse]":
        """Route one join to its pair's owner shard, asynchronously.

        Resolution failures (unknown name, unsupported side type)
        raise synchronously, like the single-process service.
        Admission failures never raise: the future resolves to an
        ``ok=False`` response with ``error_type`` of
        ``"ClientQuotaExceeded"`` or ``"ShardSaturated"`` — or, when
        the owner shard is saturated and the router's snapshot holds a
        previous answer for this exact key, to that answer with
        ``degraded=True``.
        """
        self._ensure_open()
        start = time.perf_counter()
        payload_a, fp_a = self._resolve_side(request.a)
        payload_b, fp_b = self._resolve_side(request.b)
        key = request_cache_key(
            fp_a,
            fp_b,
            request.algorithm,
            request.space,
            request.parameters,
            request.within,
        )
        label = request.describe()
        shard = self._ring.owner_of_pair(fp_a, fp_b)
        handle = self._shards[shard]
        done: Future[ServiceResponse] = Future()
        if not self._acquire_client(client):
            done.set_result(
                self._rejection(
                    key, label, shard, start,
                    error_type="ClientQuotaExceeded",
                    error=(
                        f"client {client!r} is at its in-flight quota "
                        f"({self._client_quota})"
                    ),
                )
            )
            return done
        if not handle.gate.try_acquire(0.0):
            with self._lock:
                report = self._stale.get(key)
                if report is not None:
                    self._degraded += 1
            if report is not None:
                self._release_client(client)
                done.set_result(
                    ServiceResponse(
                        report=report,
                        cached=True,
                        key=key,
                        label=label,
                        wall_seconds=time.perf_counter() - start,
                        degraded=True,
                        shard=shard,
                    )
                )
                return done
            if not handle.gate.try_acquire(self.queue_timeout_s):
                self._release_client(client)
                done.set_result(
                    self._rejection(
                        key, label, shard, start,
                        error_type="ShardSaturated",
                        error=(
                            f"shard {shard} stayed at its in-flight "
                            f"bound for {self.queue_timeout_s:g}s"
                        ),
                    )
                )
                return done
        command = JoinCommand(
            seq=next(self._seq),
            a=payload_a,
            b=payload_b,
            algorithm=request.algorithm,
            space=request.space,
            parameters=request.parameters,
            label=label,
            within=request.within,
        )

        def _finish(reply_future: "Future[ShardReply]") -> None:
            # Runs in the shard's receiver thread (or inline, in the
            # submitting thread).  The caller's future MUST resolve on
            # every path — an escaped exception here would strand the
            # submitter in ``.result()`` forever — so failures become
            # error responses, mirroring executor failure isolation.
            try:
                response = self._join_response(
                    reply_future.result(), key, label, shard, start
                )
            except BaseException as exc:  # pragma: no cover - defensive
                response = ServiceResponse(
                    report=None,
                    cached=False,
                    key=key,
                    label=label,
                    wall_seconds=time.perf_counter() - start,
                    error=str(exc),
                    error_type=type(exc).__name__,
                    shard=shard,
                )
            finally:
                handle.gate.release()
                self._release_client(client)
            done.set_result(response)

        try:
            reply_future = handle.request_async(command)
        except BaseException:
            handle.gate.release()
            self._release_client(client)
            raise
        reply_future.add_done_callback(_finish)
        return done

    def _join_response(
        self,
        reply: ShardReply,
        key: CacheKey,
        label: str,
        shard: int,
        start: float,
    ) -> ServiceResponse:
        wall = time.perf_counter() - start
        if not reply.ok:
            return ServiceResponse(
                report=None,
                cached=False,
                key=key,
                label=label,
                wall_seconds=wall,
                error=reply.error,
                error_type=reply.error_type,
                shard=shard,
            )
        shard_response = reply.payload
        assert isinstance(shard_response, ServiceResponse)
        if shard_response.report is not None:
            self._remember(key, shard_response.report)
        # End-to-end wall (queueing and wire included) replaces the
        # shard-side wall: it is what the submitting client observed.
        return dataclasses.replace(
            shard_response, wall_seconds=wall, shard=shard
        )

    def _rejection(
        self,
        key: CacheKey,
        label: str,
        shard: int,
        start: float,
        *,
        error_type: str,
        error: str,
    ) -> ServiceResponse:
        with self._lock:
            self._rejected += 1
        return ServiceResponse(
            report=None,
            cached=False,
            key=key,
            label=label,
            wall_seconds=time.perf_counter() - start,
            error=error,
            error_type=error_type,
            shard=shard,
        )

    # -- range queries -------------------------------------------------
    def range_query(
        self,
        dataset: Dataset | str,
        query: Box,
        *,
        buffer_pages: int = 256,
        client: str | None = None,
    ) -> IntArray:
        """Range query on the content's owner shard (its index cache).

        Range answers have no stale fallback (an outdated index could
        return ids that no longer exist), so a saturated owner shard
        raises :class:`ShardSaturated` after the queue timeout, and a
        client over quota raises ``RuntimeError``.
        """
        self._ensure_open()
        payload, fingerprint = self._resolve_side(dataset)
        shard = self._ring.owner(fingerprint)
        handle = self._shards[shard]
        if not self._acquire_client(client):
            with self._lock:
                self._rejected += 1
            raise RuntimeError(
                f"client {client!r} is at its in-flight quota "
                f"({self._client_quota})"
            )
        try:
            if not handle.gate.try_acquire(self.queue_timeout_s):
                with self._lock:
                    self._rejected += 1
                raise ShardSaturated(
                    f"shard {shard} stayed at its in-flight bound "
                    f"for {self.queue_timeout_s:g}s"
                )
            try:
                reply = handle.request(
                    RangeCommand(
                        seq=next(self._seq),
                        payload=payload,
                        query=query,
                        buffer_pages=buffer_pages,
                    )
                )
            finally:
                handle.gate.release()
        finally:
            self._release_client(client)
        self._raise_reply(reply, "range query")
        hits = reply.payload
        assert isinstance(hits, np.ndarray)
        return hits

    # -- resolution / admission helpers --------------------------------
    def _resolve_side(
        self, side: object
    ) -> tuple[DatasetPayload, str]:
        """(wire payload, fingerprint) for one request side."""
        if isinstance(side, str):
            with self._lock:
                binding = self._lookup(side)
            return binding.payload, binding.fingerprint
        if isinstance(side, Dataset):
            # Ad-hoc concrete datasets travel pickled: publishing them
            # would need per-request release bookkeeping across shard
            # crashes for content that may never recur.  Register the
            # dataset to get the zero-copy path.
            fingerprint = dataset_fingerprint(side)
            return (
                DatasetPayload(fingerprint=fingerprint, dataset=side),
                fingerprint,
            )
        raise TypeError(
            "service requests take catalog names (str) or concrete "
            f"Datasets, got {type(side).__name__}"
        )

    def _lookup(self, name: str) -> _Binding:
        """Caller holds ``_lock``."""
        binding = self._names.get(name)
        if binding is None:
            raise unknown_name(name, self._names)
        return binding

    def _acquire_client(self, client: str | None) -> bool:
        if client is None or self._client_quota is None:
            return True
        with self._lock:
            occupied = self._clients.get(client, 0)
            if occupied >= self._client_quota:
                return False
            self._clients[client] = occupied + 1
            return True

    def _release_client(self, client: str | None) -> None:
        if client is None or self._client_quota is None:
            return
        with self._lock:
            occupied = self._clients.get(client, 0) - 1
            if occupied <= 0:
                self._clients.pop(client, None)
            else:
                self._clients[client] = occupied

    def _remember(self, key: CacheKey, report: RunReport) -> None:
        with self._lock:
            self._stale.put(key, report)

    @staticmethod
    def _raise_reply(reply: ShardReply, context: str) -> None:
        if not reply.ok:
            raise RuntimeError(
                f"{context} failed on shard: "
                f"{reply.error_type}: {reply.error}"
            )

    def _ensure_open(self) -> None:
        if self._closed:
            raise RuntimeError("service is closed")

    # -- failure injection --------------------------------------------
    def inject_crash(self, shard: int) -> None:
        """Kill one shard worker mid-stream (tests; process mode only)."""
        self._shards[shard].inject_crash()

    # -- observability -------------------------------------------------
    def stats(self) -> ServiceStats:
        """Aggregate snapshot across shards plus router-side counters.

        Latency percentiles are merged from the shards' raw
        :class:`~repro.metrics.LatencyRecord` windows (percentiles of
        percentiles would be meaningless); counters add exactly
        because the ring partitions the key space.  Shard counters
        cover the shard *process's* lifetime: a crash-respawned shard
        restarts its slice of the counts from zero (the router-side
        ``degraded_responses`` / ``rejected_requests`` survive).
        """
        self._ensure_open()
        parts: list[ServiceStats] = []
        merged: dict[str, LatencyRecord] = {}
        for reply in self._broadcast(lambda seq: StatsCommand(seq=seq)):
            self._raise_reply(reply, "stats")
            payload = reply.payload
            assert isinstance(payload, tuple)
            part, records = payload
            parts.append(part)
            for algorithm, record in records.items():
                merged.setdefault(
                    algorithm, LatencyRecord()
                ).merge(record)
        with self._lock:
            degraded = self._degraded
            rejected = self._rejected
            delta_applies = self._delta_applies
            delta_patches = self._delta_patches
            delta_fallbacks = self._delta_patch_fallbacks
            catalog_size = len(self._names)
        return ServiceStats.merged(
            parts,
            uptime_seconds=time.perf_counter() - self._started,
            latency_by_algorithm={
                algorithm: record.summary()
                for algorithm, record in sorted(merged.items())
            },
            degraded_responses=degraded,
            rejected_requests=rejected,
            delta_applies=delta_applies,
            delta_patches=delta_patches,
            delta_patch_fallbacks=delta_fallbacks,
            extra_catalog_size=catalog_size,
        )

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        """Stop every shard and release all shared-memory segments."""
        with self._mutate:
            if self._closed:
                return
            self._closed = True
            for handle in self._shards:
                handle.close()
            self._retired.clear()
            self._pages.close()

    def __enter__(self) -> "ShardedQueryService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
