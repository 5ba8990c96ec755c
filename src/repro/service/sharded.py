"""The sharded service tier: N shard processes behind one async router.

One :class:`~repro.service.service.SpatialQueryService` saturates at
the throughput of a single process: every cache miss executes inline,
and every request serialises on one catalog/cache lock.
:class:`ShardedQueryService` scales the misses out across processes:

* each of N **shard processes** is a stateless executor
  (:class:`ShardState`: a batch executor for joins, a workspace whose
  index cache serves range queries, and the realised datasets) that
  runs the commands from its pipe one at a time — every command
  carries the datasets it reads;
* the **router** (this process) owns the name → fingerprint map, the
  tier's only catalog, the result cache, the tier's only one, and one
  :class:`~repro.service.stats.ServiceLedger` per shard, the tier's
  only counters; it routes by a consistent-hash ring
  (:class:`~repro.service.sharding.HashRing`): range queries run on
  ``owner(fingerprint)``, joins on the owner of their ordered pair
  digest.  Aliasing is decided once, router-side; retiring content
  no name serves is one invalidation broadcast;
* registered datasets ship as shared-memory references
  (:class:`~repro.storage.shm.SharedDatasetRef`, published once per
  content by the router's :class:`~repro.storage.shm.SharedDatasetPool`)
  when possible, so shard workers attach zero-copy instead of
  unpickling content per command.

The router's result cache fronts the shards: every report the tier
hands out is kept under its content-addressed key (bounded by
``max_cached_results``, purged on invalidation), so a repeated join is
answered by the router itself and no shard sees it — even when every
admission slot is held.  A duplicate of a miss still in flight waits
for that miss instead of sending its own command.  A delta patches
the cached entries it touches router-side and files the patched
reports there; its only shard round trip is the retire's invalidation
broadcast.

The submission layer is asynchronous with explicit admission control
for the requests the router cannot answer:

* **backpressure** — at most ``max_inflight_per_shard`` commands may
  be in flight per shard; a full shard blocks new submissions up to
  ``queue_timeout_s`` before rejecting (``error_type="ShardSaturated"``);
* **quotas** — an optional per-client in-flight bound rejects a
  client that hogs the tier (``error_type="ClientQuotaExceeded"``)
  without penalising the others; it is checked before the cache.

Shard crashes are isolated: the router respawns the process and
resends in-flight commands exactly once (nothing is replayed, and no
count is lost: a fresh worker needs no state to answer) — a command that kills the worker
twice fails alone (``error_type="ShardCrashed"``), everything else
completes and other shards never notice.  ``inline=True`` swaps the
processes for in-process shards (same command protocol, same routing)
for deterministic tests and coverage.
"""

from __future__ import annotations

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
from repro.engine.executor import BatchExecutor, JoinRequest, RequestOutcome
from repro.engine.report import RunReport
from repro.engine.workspace import SpatialWorkspace
from repro.geometry.box import Box
from repro.joins.base import CostModel, Dataset
from repro.service.cache import ResultCache
from repro.service.catalog import CatalogEntry, check_binding, unknown_name
from repro.service.fingerprint import (
    CacheKey,
    dataset_fingerprint,
    request_cache_key,
)
from repro.service.patch import advance_delta
from repro.service.service import (
    RANGE_QUERY_LATENCY_KEY,
    DeltaOutcome,
    ServiceResponse,
)
from repro.service.sharding import HashRing
from repro.service.stats import ServiceLedger, ServiceStats
from repro.service.wire import (
    CrashCommand,
    DatasetPayload,
    InvalidateCommand,
    JoinCommand,
    RangeCommand,
    ShardCommand,
    ShardReply,
    ShutdownCommand,
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
    "ShardState",
    "handle_command",
]

#: Exit code of a worker killed by :class:`CrashCommand` injection.
_CRASH_EXIT_CODE = 17
#: Sequence number of control traffic (shutdown, crash injection)
#: whose replies nobody waits on; real commands use the router's
#: counter, which starts at 1.
_CONTROL_SEQ = 0
#: Bound of a worker's fingerprint -> realised-dataset cache.
_REALISED_BOUND = 512
#: Old shared-memory refs to keep alive after their binding retired,
#: so commands already in flight when a rebind landed can still
#: attach; see ``ShardedQueryService._retire_ref``.
_RETIRE_WINDOW = 4


class ShardSaturated(RuntimeError):
    """A shard stayed at its in-flight bound past the queue timeout."""


def _failed(seq: int, exc: BaseException) -> ShardReply:
    """The ``ok=False`` reply that stands for a captured exception."""
    return ShardReply(
        seq=seq, ok=False, error=str(exc), error_type=type(exc).__name__
    )


# ----------------------------------------------------------------------
# Shard-side command execution (runs in the worker process, and in the
# router process for inline shards)
# ----------------------------------------------------------------------
class ShardState:
    """Everything one shard holds: no names, no results, no counters.

    A :class:`~repro.engine.executor.BatchExecutor` for joins (each
    runs cold on its own workspace), a long-lived
    :class:`~repro.engine.workspace.SpatialWorkspace` whose index cache
    serves range queries, and the fingerprint -> realised-dataset map.
    ``lock`` runs one command at a time: a worker's loop is serial
    anyway, and inline shards take commands from client threads.
    """

    def __init__(
        self,
        *,
        disk_model: DiskModel | None = None,
        cost_model: CostModel | None = None,
        max_cached_indexes: int | None = (
            SpatialWorkspace.DEFAULT_MAX_CACHED_INDEXES
        ),
    ) -> None:
        self.executor = BatchExecutor(
            disk_model=disk_model, cost_model=cost_model
        )
        self.workspace = SpatialWorkspace(
            disk_model=disk_model,
            cost_model=cost_model,
            max_cached_indexes=max_cached_indexes,
        )
        self.realised: OrderedDict[str, Dataset] = OrderedDict()
        self.lock = threading.Lock()


def _realise(
    realised: OrderedDict[str, Dataset], payload: DatasetPayload
) -> Dataset:
    """The concrete dataset behind a wire payload.

    Shared-memory refs attach zero-copy, pickled fallbacks arrive
    whole; either way the result is cached by content fingerprint in
    ``realised``.  The same content must realise as the *same object*
    within a shard, or the workspace's identity-keyed range index
    cache would rebuild per command, and an invalidation must find
    that object to drop its index.  The LRU bound keeps ad-hoc
    concrete-dataset traffic from growing the cache without limit.
    """
    cached = realised.get(payload.fingerprint)
    if cached is not None:
        realised.move_to_end(payload.fingerprint)
        return cached
    if payload.ref is not None:
        dataset = attach_dataset(payload.ref)
    else:
        assert payload.dataset is not None  # DatasetPayload invariant
        dataset = payload.dataset
    realised[payload.fingerprint] = dataset
    while len(realised) > _REALISED_BOUND:
        realised.popitem(last=False)
    return dataset


def handle_command(shard: ShardState, command: ShardCommand) -> object:
    """Execute one shard command; the caller holds ``shard.lock``.

    This is the *entire* shard-side vocabulary: everything a worker
    process does funnels through here, which is what makes the shard
    protocol unit-testable in-process (the inline shards call it
    directly).  A join replies with its
    :class:`~repro.engine.executor.RequestOutcome`, a range query with
    ``(ids, shard-side wall seconds)``.  Exceptions propagate to
    :func:`execute_command`, which captures them into an ``ok=False``
    reply.
    """
    if isinstance(command, InvalidateCommand):
        dataset = shard.realised.pop(command.fingerprint, None)
        if dataset is not None:
            shard.workspace.forget(dataset)
        return None
    if isinstance(command, JoinCommand):
        a = _realise(shard.realised, command.a)
        b = _realise(shard.realised, command.b)
        return shard.executor.run([command.to_request(a, b)]).outcomes[0]
    if isinstance(command, RangeCommand):
        dataset = _realise(shard.realised, command.payload)
        start = time.perf_counter()
        hits = shard.workspace.range_query(
            dataset, command.query, buffer_pages=command.buffer_pages
        )
        return hits, time.perf_counter() - start
    raise TypeError(
        f"unhandled shard command: {type(command).__name__}"
    )


def execute_command(shard: ShardState, command: ShardCommand) -> ShardReply:
    """Run one command under the shard's lock and capture its outcome
    as the wire reply.

    Failures are isolated per command, mirroring the batch executor:
    an exception becomes an ``ok=False`` reply, never a dead shard.
    """
    try:
        with shard.lock:
            payload = handle_command(shard, command)
    except Exception as exc:
        return _failed(command.seq, exc)
    return ShardReply(seq=command.seq, ok=True, payload=payload)


def _shard_worker(
    conn: Connection, shard_options: dict[str, Any]
) -> None:
    """Entry point of one shard process: a serial command loop over a
    private :class:`ShardState` (the tier's parallelism is *across*
    shards)."""
    shard = ShardState(**shard_options)
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
            conn.send(execute_command(shard, command))
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
    then a single resend of everything still pending.  Lock order:
    ``_io`` may take ``_state``; ``_state`` guards only the pending map
    and never calls out.
    """

    def __init__(
        self,
        index: int,
        *,
        shard_options: dict[str, Any],
        gate: _AdmissionGate,
    ) -> None:
        self.index = index
        self.gate = gate
        self._shard_options = shard_options
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
            args=(child, self._shard_options),
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
        """Crash path: new process, resend what was in flight once."""
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
    private :class:`ShardState` — through the very same
    :func:`execute_command` the worker loop uses, so tests (and the
    coverage gate) exercise the real shard-side code without child
    processes.  The state's lock runs them one at a time, like the
    worker's loop.  Admission still applies: concurrent callers
    saturate an inline shard exactly like a process shard.
    """

    def __init__(
        self,
        index: int,
        *,
        shard_options: dict[str, Any],
        gate: _AdmissionGate,
    ) -> None:
        self.index = index
        self.gate = gate
        self.state = ShardState(**shard_options)
        self._closing = False

    @property
    def respawns(self) -> int:
        return 0

    def request_async(self, command: ShardCommand) -> "Future[ShardReply]":
        if self._closing:
            raise RuntimeError(f"shard {self.index} is closed")
        future: Future[ShardReply] = Future()
        future.set_result(execute_command(self.state, command))
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
class _Waiter:
    """One submission waiting on a routed miss (its leader's or its own)."""

    future: "Future[ServiceResponse]"
    label: str
    client: str | None
    start: float

    def answer(
        self,
        key: CacheKey,
        shard: int,
        report: RunReport | None,
        *,
        cached: bool = False,
        error: str | None = None,
        error_type: str | None = None,
    ) -> None:
        """Resolve the submission; its wall is its own, end to end."""
        self.future.set_result(
            ServiceResponse(
                report=report,
                cached=cached,
                key=key,
                label=self.label,
                wall_seconds=time.perf_counter() - self.start,
                error=error,
                error_type=error_type,
                shard=shard,
            )
        )


@dataclass
class _Binding:
    """Router-side record of one registered name."""

    name: str
    dataset: Dataset
    fingerprint: str
    version: int
    payload: DatasetPayload

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
    disk_model / cost_model / max_cached_indexes:
        Forwarded to every shard's :class:`ShardState` (the
        index-cache bound is therefore *per shard*).
    max_cached_results:
        Bound of the router's result cache, the tier's only one
        (shards cache no results).
    max_inflight_per_shard:
        Admission bound: commands in flight per shard before
        backpressure engages.
    queue_timeout_s:
        How long a submission the router cannot answer waits on a
        saturated shard before being rejected.
    max_inflight_per_client:
        Optional per-client in-flight quota (``client=`` tags on
        submissions), at least 1; ``None`` disables quotas.
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
        if max_inflight_per_client is not None and max_inflight_per_client < 1:
            raise ValueError("max_inflight_per_client must be >= 1")
        self._ring = HashRing(shards)
        self.queue_timeout_s = queue_timeout_s
        self._client_quota = max_inflight_per_client
        #: Guards names, result cache, in-flight misses, client counts
        #: and ledgers; held briefly, never across a shard round-trip.
        self._lock = threading.Lock()
        #: Serialises catalog mutations (register/unregister/close)
        #: end-to-end, shard round-trips included, and is the only
        #: context allowed to touch the (not thread-safe) publication
        #: pool.  Order: ``_mutate`` may take ``_lock``, never the
        #: reverse.
        self._mutate = threading.Lock()
        self._pages = SharedDatasetPool()
        self._names: dict[str, _Binding] = {}
        #: The tier's result cache: every report handed out, by key,
        #: purged on invalidation.  Guarded by ``_lock``.
        self._results = ResultCache(max_cached_results)
        #: Routed misses by key: the submissions waiting on each, the
        #: one that sent the command first.
        self._inflight: dict[CacheKey, list[_Waiter]] = {}
        #: The tier's only counters, one ledger per shard: each counts
        #: the traffic routed to its shard.
        self._ledgers = [ServiceLedger() for _ in range(shards)]
        self._clients: dict[str, int] = {}
        self._retired: list[SharedDatasetRef] = []
        self._seq = itertools.count(1)
        self._closed = False
        shard_options: dict[str, Any] = {
            "disk_model": disk_model,
            "cost_model": cost_model,
            "max_cached_indexes": max_cached_indexes,
        }
        self._shards: list[_ProcessShard | _InlineShard] = []
        try:
            for index in range(shards):
                gate = _AdmissionGate(max_inflight_per_shard)
                if inline:
                    self._shards.append(
                        _InlineShard(
                            index, shard_options=shard_options, gate=gate
                        )
                    )
                else:
                    self._shards.append(
                        _ProcessShard(
                            index,
                            shard_options=shard_options,
                            gate=gate,
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
        """Bind ``name`` to ``dataset`` in the router's name map.

        Same contract as the single-process service: equal content is
        a no-op, changed content bumps the version and invalidates the
        old content's cached state everywhere (unless an alias still
        serves it).  A join submitted after ``register`` returns sees
        the new content: every command carries the payloads its names
        resolved to at submission.
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
        """Publish content, bind ``name`` to it, retire ``old``.

        Caller holds ``_mutate``.  Content ships as a shared-memory
        payload when possible, pickled otherwise.
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
        )
        with self._lock:
            self._names[name] = binding
        if old is not None:
            self._retire(old)
        return binding

    def unregister(self, name: str) -> CatalogEntry:
        """Drop ``name`` everywhere; returns the retired entry."""
        with self._mutate:
            self._ensure_open()
            with self._lock:
                binding = self._lookup(name)
                del self._names[name]
            self._retire(binding)
            return binding.entry()

    def apply_delta(self, name: str, delta: DatasetDelta) -> DeltaOutcome:
        """Advance ``name`` along ``delta`` across the whole tier.

        The same flow as :meth:`SpatialQueryService.apply_delta`
        (:func:`~repro.service.patch.advance_delta`) over the router's
        result cache: the cached results touching the old content are
        patched router-side, the post-delta name is re-bound exactly
        like :meth:`register` — shared-memory publication, then the
        retire of the old binding, whose invalidation broadcast is the
        delta's only shard round trip — and the patched reports are
        filed in the router's cache, where a later identical join is a
        hit that reaches no shard.  The delta counts in the ledger of
        the old content's owner shard.

        Runs under the catalog-mutation lock end-to-end: deltas
        serialise with register/unregister, never with joins.  Raises
        ``KeyError`` for unknown names and propagates
        :meth:`DatasetDelta.apply`'s validation errors.
        """
        with self._mutate:
            self._ensure_open()
            with self._lock:
                old = self._lookup(name)
            ledger = self._ledgers[self._ring.owner(old.fingerprint)]
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
                affected=lambda: self._cached_entries(old.fingerprint),
                resolve=self._dataset_by_fingerprint,
            )
            with self._lock:
                ledger.delta_applies += 1
            if noop:
                return DeltaOutcome(
                    entry=old.entry(),
                    fraction=fraction,
                    patched=0,
                    fallbacks=0,
                    noop=True,
                )
            # The retire inside sweeps the patched originals.  Every
            # patched key's sides are bound: its partner resolved to a
            # live binding, and ``_mutate`` keeps it bound until here.
            binding = self._bind(name, new_dataset, new_fingerprint, old)
            with self._lock:
                for key, report in rewritten:
                    self._results.put(key, report)
                ledger.delta_patches += len(rewritten)
                ledger.delta_patch_fallbacks += fallbacks
            return DeltaOutcome(
                entry=binding.entry(),
                fraction=fraction,
                patched=len(rewritten),
                fallbacks=fallbacks,
            )

    def _cached_entries(
        self, fingerprint: str
    ) -> list[tuple[CacheKey, RunReport]]:
        """The router's cached entries touching ``fingerprint``."""
        with self._lock:
            return self._results.entries_for_fingerprint(fingerprint)

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

    def _serves(self, fingerprint: str) -> bool:
        """Whether some name is bound to ``fingerprint`` (caller holds
        ``_lock``)."""
        return any(
            binding.fingerprint == fingerprint
            for binding in self._names.values()
        )

    def _retire(self, old: _Binding) -> None:
        """Tear down one retired binding (caller holds ``_mutate``).

        If no surviving name serves the old content, every shard drops
        its realised dataset and range index for it — joins are
        pair-routed, so any shard may have realised it — and the
        router purges its result cache of it.  The shared-memory
        ref is released through the retire window, not immediately: a
        command already in flight may still need to attach the old
        segment.
        """
        with self._lock:
            survived = self._serves(old.fingerprint)
        if not survived:
            self._broadcast(
                lambda seq: InvalidateCommand(
                    seq=seq, fingerprint=old.fingerprint
                )
            )
            with self._lock:
                self._results.invalidate_fingerprint(old.fingerprint)
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
        """Answer one join from the router's cache, or route it to its
        pair's owner shard, asynchronously.

        Resolution failures (unknown name, unsupported side type)
        raise synchronously, like the single-process service.  A
        client over its quota is rejected before the cache is probed;
        a hit resolves the future at once (``cached=True``) and no
        shard sees the request.  A miss whose key is already in flight
        attaches to that miss: it sends no command, takes no admission
        slot, and resolves with the same answer (``cached=False``),
        counted like a duplicate within one ``submit_many`` batch of
        the single-process service.  Admission failures never raise:
        the future resolves to an ``ok=False`` response with
        ``error_type`` of ``"ClientQuotaExceeded"`` or
        ``"ShardSaturated"``.
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
        # Fingerprints resolved from names: a rebind while the miss is
        # in flight can unbind them, and filling the router's cache
        # then would keep an answer for retired content.  Concrete
        # sides are caller-managed and always fillable.
        named = tuple(
            fp
            for side, fp in ((request.a, fp_a), (request.b, fp_b))
            if isinstance(side, str)
        )
        label = request.describe()
        shard = self._ring.owner_of_pair(fp_a, fp_b)
        handle = self._shards[shard]
        waiter = _Waiter(Future(), label, client, start)
        done = waiter.future
        if not self._acquire_client(client):
            with self._lock:
                self._ledgers[shard].rejected_requests += 1
            waiter.answer(
                key, shard, None,
                error_type="ClientQuotaExceeded",
                error=(
                    f"client {client!r} is at its in-flight quota "
                    f"({self._client_quota})"
                ),
            )
            return done
        with self._lock:
            report = self._results.get(key)
            if report is not None:
                self._ledgers[shard].hit(
                    report.algorithm, time.perf_counter() - start
                )
            elif key in self._inflight:
                self._inflight[key].append(waiter)
                return done
            else:
                self._inflight[key] = [waiter]
        if report is not None:
            self._release_client(client)
            waiter.answer(key, shard, report, cached=True)
            return done
        if not handle.gate.try_acquire(self.queue_timeout_s):
            self._settle(
                key,
                shard,
                named,
                ShardReply(
                    seq=_CONTROL_SEQ,
                    ok=False,
                    error=(
                        f"shard {shard} stayed at its in-flight "
                        f"bound for {self.queue_timeout_s:g}s"
                    ),
                    error_type="ShardSaturated",
                ),
                rejected=True,
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
            # submitting thread).  Every waiter's future MUST resolve
            # on every path — an escaped exception here would strand
            # the submitters in ``.result()`` forever — so failures
            # become error replies, mirroring executor failure
            # isolation.
            try:
                reply = reply_future.result()
            except BaseException as exc:  # pragma: no cover - defensive
                reply = _failed(command.seq, exc)
            finally:
                handle.gate.release()
            self._settle(key, shard, named, reply)

        try:
            reply_future = handle.request_async(command)
        except BaseException as exc:
            handle.gate.release()
            self._settle(key, shard, named, _failed(command.seq, exc))
            raise
        reply_future.add_done_callback(_finish)
        return done

    def _settle(
        self,
        key: CacheKey,
        shard: int,
        named: tuple[str, ...],
        reply: ShardReply,
        *,
        rejected: bool = False,
    ) -> None:
        """Answer every submission waiting on ``key``'s miss.

        Files the report in the router's cache unless one of the
        ``named`` fingerprints was unbound while the join was in
        flight, and counts the waiters in the owner shard's ledger:
        each is a request and a miss (a failure if no report came
        back), one latency sample (the shard-side wall) stands for
        them all, and ``rejected`` waiters count as rejections only.
        """
        outcome = reply.payload if reply.ok else None
        assert outcome is None or isinstance(outcome, RequestOutcome)
        report = outcome.report if outcome is not None else None
        with self._lock:
            waiters = self._inflight.pop(key)
            ledger = self._ledgers[shard]
            if rejected:
                ledger.rejected_requests += len(waiters)
            else:
                ledger.miss(len(waiters))
                ledger.executed(
                    report,
                    outcome.wall_seconds if outcome is not None else 0.0,
                    len(waiters),
                )
            if report is not None:
                if all(self._serves(fp) for fp in named):
                    self._results.put(key, report)
                else:
                    ledger.cache_stale_fill_skips += 1
        source = outcome if outcome is not None else reply
        for waiter in waiters:
            self._release_client(waiter.client)
            waiter.answer(
                key, shard, report,
                error=source.error, error_type=source.error_type,
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

        Range answers are not cached by the router, so a saturated
        owner shard raises :class:`ShardSaturated` after the queue
        timeout, and a client over quota raises ``RuntimeError``.
        """
        self._ensure_open()
        payload, fingerprint = self._resolve_side(dataset)
        shard = self._ring.owner(fingerprint)
        handle = self._shards[shard]
        if not self._acquire_client(client):
            with self._lock:
                self._ledgers[shard].rejected_requests += 1
            raise RuntimeError(
                f"client {client!r} is at its in-flight quota "
                f"({self._client_quota})"
            )
        try:
            if not handle.gate.try_acquire(self.queue_timeout_s):
                with self._lock:
                    self._ledgers[shard].rejected_requests += 1
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
        assert isinstance(reply.payload, tuple)
        hits, wall = reply.payload
        assert isinstance(hits, np.ndarray)
        with self._lock:
            ledger = self._ledgers[shard]
            ledger.range_requests += 1
            ledger.record_latency(RANGE_QUERY_LATENCY_KEY, wall)
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
        """One snapshot of the tier, read from the router's ledgers.

        Sends no command: the router counts every join, range query,
        rejection and delta in the ledger of the shard it routes to —
        a router hit and a coalesced duplicate count for their key's
        owner, a delta for its dataset's owner — so the ``per_shard``
        rows add up to the totals, and a shard respawn changes no
        count.  Latencies are shard-side walls for misses and range
        queries, and lookup walls for router hits; the cache fields of
        the totals are the router's cache, the tier's only one.
        """
        self._ensure_open()
        with self._lock:
            rows = tuple(
                ledger.snapshot().as_dict() for ledger in self._ledgers
            )
            return ServiceLedger.combined(self._ledgers).snapshot(
                catalog_size=len(self._names),
                cache=self._results,
                per_shard=rows,
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
