"""The service tier: one router over N shards.

:class:`ShardedQueryService` is the router, and both front-ends are
it:

* :class:`SpatialQueryService` is the router over one in-process
  shard that takes datasets by reference and runs each miss in the
  calling thread;
* :class:`ShardedQueryService` scales the misses out across N **shard
  processes**, each a stateless join executor (:class:`ShardState`: a
  batch executor and the realised datasets) that runs the commands
  from its pipe one at a time — every command carries the datasets it
  reads.

The **router** (this process) owns everything a service keeps across
requests: the catalog (:class:`~repro.service.catalog.DatasetCatalog`,
names bound to fingerprinted content, with a statistics sketch per
content), the result cache, the
:class:`~repro.service.service.QueryWorkspace` whose index cache
answers every range query, and one
:class:`~repro.service.stats.ServiceLedger` per shard, the tier's only
counters.  It routes each join by a consistent-hash ring
(:class:`~repro.service.sharding.HashRing`) to the owner of its
ordered pair digest.  Aliasing is decided once, router-side; retiring
content no name serves is one invalidation broadcast.  On the process
tier, registered datasets ship as shared-memory references
(:class:`~repro.storage.shm.SharedDatasetRef`, published once per
content by the router's :class:`~repro.storage.shm.SharedDatasetPool`)
when possible, so shard workers attach zero-copy instead of unpickling
content per command.

Every request runs one shape: resolve under the router's lock, compute
outside it, publish under it again, guarded by the catalog's
``names_bound_to``.  A repeated join is answered by the router's cache
and no shard sees it — even when every admission slot is held.  A
duplicate of a miss still in flight waits for that miss instead of
sending its own command.  A delta holds the catalog-mutation lock end
to end, patches the cached entries it touches router-side and files
the patched reports there; its only shard round trip is the retire's
invalidation broadcast.  Range queries never reach a shard, so no
range query waits behind a join.

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
count is lost: a fresh worker needs no state to answer) — a command
that kills the worker twice fails alone (``error_type="ShardCrashed"``),
everything else completes and other shards never notice.
``inline=True`` swaps the processes for in-process shards (same
command protocol, same routing) for deterministic tests and coverage.

::

    service = SpatialQueryService()
    service.register("axons", axons)
    service.register("dendrites", dendrites)

    response = service.submit(JoinRequest("axons", "dendrites"))
    response.report.pairs_found         # computed once...
    service.submit(JoinRequest("axons", "dendrites")).cached  # ...True

    hits = service.range_query("axons", probe_box)
    service.stats().cache_hit_rate
"""

from __future__ import annotations

import dataclasses
import itertools
import multiprocessing
import os
import sys
import threading
import time
from collections import OrderedDict
from collections.abc import Callable, Iterable
from concurrent.futures import Future
from dataclasses import dataclass, field
from multiprocessing.connection import Connection
from typing import Any

from repro._types import IntArray
from repro.engine.executor import BatchExecutor, JoinRequest, RequestOutcome
from repro.engine.planner import JoinPlan, plan_join
from repro.engine.report import RunReport
from repro.engine.workspace import SpatialWorkspace
from repro.geometry.box import Box
from repro.joins.base import CostModel, Dataset
from repro.service.cache import ResultCache
from repro.service.catalog import CatalogEntry, DatasetCatalog, check_binding
from repro.service.fingerprint import (
    CacheKey,
    dataset_fingerprint,
    request_cache_key,
)
from repro.service.patch import advance_delta
from repro.service.service import (
    RANGE_QUERY_LATENCY_KEY,
    DeltaOutcome,
    QueryWorkspace,
    ServiceResponse,
)
from repro.service.sharding import HashRing
from repro.service.stats import ServiceLedger, ServiceStats
from repro.service.wire import (
    CrashCommand,
    DatasetPayload,
    InvalidateCommand,
    JoinCommand,
    ShardCommand,
    ShardReply,
    ShutdownCommand,
)
from repro.stats.sketch import DatasetSketch, build_sketch
from repro.streaming.delta import DatasetDelta
from repro.storage.disk import DiskModel
from repro.storage.shm import (
    SharedDatasetPool,
    SharedDatasetRef,
    attach_dataset,
)

__all__ = [
    "SpatialQueryService",
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
    """Everything one shard holds: no names, no results, no counters,
    no indexes.

    A :class:`~repro.engine.executor.BatchExecutor` for joins (each
    runs cold on its own workspace) and the fingerprint ->
    realised-dataset map.  ``lock`` runs one command at a time: a
    worker's loop is serial anyway, and inline shards take commands
    from client threads.
    """

    def __init__(
        self,
        *,
        disk_model: DiskModel | None = None,
        cost_model: CostModel | None = None,
    ) -> None:
        self.executor = BatchExecutor(
            disk_model=disk_model, cost_model=cost_model
        )
        self.realised: OrderedDict[str, Dataset] = OrderedDict()
        self.lock = threading.Lock()


def _realise(
    realised: OrderedDict[str, Dataset], payload: DatasetPayload
) -> Dataset:
    """The concrete dataset behind a wire payload.

    Shared-memory refs attach zero-copy, pickled fallbacks arrive
    whole; either way the result is cached by content fingerprint in
    ``realised``, so repeated joins over the same content attach or
    unpickle it once per shard.  The LRU bound keeps ad-hoc
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
    :class:`~repro.engine.executor.RequestOutcome`.  Exceptions
    propagate to :func:`execute_command`, which captures them into an
    ``ok=False`` reply.
    """
    if isinstance(command, InvalidateCommand):
        shard.realised.pop(command.fingerprint, None)
        return None
    if isinstance(command, JoinCommand):
        a = _realise(shard.realised, command.a)
        b = _realise(shard.realised, command.b)
        return shard.executor.run([command.to_request(a, b)]).outcomes[0]
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
class _Submission:
    """One resolved join submission: what it asks, where it routes, and
    the future its caller waits on."""

    #: The request with both sides concrete; its ``describe()`` labels
    #: the answer and the command.
    request: JoinRequest
    key: CacheKey
    #: The shard that owns ``key``.
    shard: int
    a: DatasetPayload
    b: DatasetPayload
    #: Fingerprints resolved from names: a retire while the miss is in
    #: flight can unbind them, and filling the cache then would keep an
    #: answer for retired content.  Concrete sides are caller-managed
    #: and always fillable.
    named: tuple[str, ...]
    client: str | None
    start: float
    future: "Future[ServiceResponse]" = field(default_factory=Future)

    def answer(
        self,
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
                key=self.key,
                label=self.request.describe(),
                wall_seconds=time.perf_counter() - self.start,
                error=error,
                error_type=error_type,
                shard=self.shard,
            )
        )


class ShardedQueryService:
    """Content-partitioned, process-parallel front-end (see module doc).

    Parameters
    ----------
    shards:
        Shard count.
    disk_model / cost_model:
        Forwarded to every shard's :class:`ShardState` and to the
        router's query workspace, so cached and freshly computed
        reports share one cost basis.
    max_cached_indexes:
        Bound of the router's range-query index cache (shards keep no
        indexes between commands).
    max_cached_results:
        Bound of the router's result cache, the tier's only one
        (LRU; ``None`` disables the bound).
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
        #: Guards catalog, payloads, result cache, in-flight misses,
        #: client counts and ledgers; held briefly, never across a
        #: shard round-trip.
        self._lock = threading.Lock()
        #: Serialises catalog mutations (register/unregister/deltas/
        #: close) end-to-end, shard round-trips included, and is the
        #: only context allowed to touch the (not thread-safe)
        #: publication pool.  Order: ``_mutate`` may take ``_lock``,
        #: never the reverse.
        self._mutate = threading.Lock()
        self._pages = SharedDatasetPool()
        #: The tier's only catalog: names, versions, stored sketches.
        self._catalog = DatasetCatalog()
        #: The wire payload of every content some name serves.
        self._payloads: dict[str, DatasetPayload] = {}
        #: The tier's result cache: every report handed out, by key,
        #: purged on invalidation.
        self._results = ResultCache(max_cached_results)
        #: Routed misses by key: the submissions waiting on each, the
        #: one that sent the command first.
        self._inflight: dict[CacheKey, list[_Submission]] = {}
        #: The tier's only counters, one ledger per shard: each counts
        #: the traffic routed to its shard.
        self._ledgers = [ServiceLedger() for _ in range(shards)]
        self._clients: dict[str, int] = {}
        self._retired: list[SharedDatasetRef] = []
        self._seq = itertools.count(1)
        self._closed = False
        self._queries = QueryWorkspace(
            SpatialWorkspace(
                disk_model=disk_model,
                cost_model=cost_model,
                max_cached_indexes=max_cached_indexes,
            )
        )
        shard_options: dict[str, Any] = {
            "disk_model": disk_model,
            "cost_model": cost_model,
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

    @property
    def catalog(self) -> DatasetCatalog:
        """The dataset catalog (treat as read-only; use :meth:`register`)."""
        with self._lock:
            return self._catalog

    def names(self) -> tuple[str, ...]:
        """All registered names, sorted."""
        with self._lock:
            return self._catalog.names()

    @property
    def query_workspace(self) -> SpatialWorkspace:
        """The router's long-lived workspace serving :meth:`range_query`."""
        return self._queries.workspace

    def shard_respawns(self) -> list[int]:
        """Per-shard crash-recovery counts (observability/tests)."""
        return [handle.respawns for handle in self._shards]

    def __contains__(self, name: object) -> bool:
        with self._lock:
            return name in self._catalog

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        with self._lock:
            return (
                f"{type(self).__name__}(shards={self._ring.shards}, "
                f"datasets={len(self._catalog)}, "
                f"cached_results={len(self._results)})"
            )

    # -- catalog -------------------------------------------------------
    def register(self, name: str, dataset: Dataset) -> CatalogEntry:
        """Bind ``name`` to ``dataset`` in the catalog.

        Re-registering equal content is a no-op (same version, cache
        intact).  Changed content bumps the version and invalidates the
        old content's cached results, range index and realised copies
        (unless an alias still serves it).  A join submitted after
        ``register`` returns sees the new content: every command carries
        the payloads its names resolved to at submission.
        """
        check_binding(name, dataset)
        fingerprint = dataset_fingerprint(dataset)
        with self._mutate:
            self._ensure_open()
            return self._bind(name, dataset, fingerprint)

    def _bind(
        self,
        name: str,
        dataset: Dataset,
        fingerprint: str,
        sketch: DatasetSketch | None = None,
    ) -> CatalogEntry:
        """Bind ``name`` to content and retire what it was bound to.

        Caller holds ``_mutate``.  Content no name serves yet gets its
        wire payload (:meth:`_payload`) and its statistics sketch here,
        outside ``_lock``, unless the caller brings the sketch.
        """
        with self._lock:
            old = self._catalog.get(name)
            payload = self._payloads.get(fingerprint)
        if old is not None and old.fingerprint == fingerprint:
            return old
        if payload is None:
            payload = self._payload(dataset, fingerprint)
            if sketch is None:
                sketch = build_sketch(dataset)
        with self._lock:
            self._payloads[fingerprint] = payload
            entry = self._catalog.register(name, dataset, sketch=sketch)
        if old is not None:
            self._retire(old)
        return entry

    def _payload(self, dataset: Dataset, fingerprint: str) -> DatasetPayload:
        """How content travels to the shards: a shared-memory ref when
        the router can publish it, the pickled dataset otherwise.
        Caller holds ``_mutate`` (the pool is not thread-safe)."""
        ref = self._pages.publish(dataset)
        if ref is None:
            return DatasetPayload(fingerprint=fingerprint, dataset=dataset)
        return DatasetPayload(fingerprint=fingerprint, ref=ref)

    def unregister(self, name: str) -> CatalogEntry:
        """Remove ``name``; returns the dropped entry.

        Symmetric with :meth:`register`'s rebind path: the content's
        cached state is invalidated unless another name still serves
        it.  Raises ``KeyError`` for unknown names.
        """
        with self._mutate:
            self._ensure_open()
            with self._lock:
                entry = self._catalog.unregister(name)
            self._retire(entry)
            return entry

    def apply_delta(self, name: str, delta: DatasetDelta) -> DeltaOutcome:
        """Advance ``name`` along ``delta``, patching cached results.

        Instead of re-binding the name to freshly built content and
        invalidating everything computed from the old one, every cached
        result that references the old content is **patched** through
        :func:`~repro.joins.delta_join`
        (:func:`~repro.service.patch.advance_delta`) and filed under
        the post-delta key, byte-identical to a full recompute; entries
        that cannot be patched fall back to plain invalidation (counted
        in ``delta_patch_fallbacks``).  The stored sketch is advanced
        by :meth:`DatasetSketch.apply_delta`, and the name is re-bound
        exactly like :meth:`register`, whose retire is the delta's only
        shard round trip.  The delta counts in the ledger of the old
        content's owner shard.

        Runs under the catalog-mutation lock end to end: deltas
        serialise with register/unregister, never with joins, so every
        patched key's partner stays bound until its report is filed.
        Raises ``KeyError`` for unknown names and propagates
        :meth:`DatasetDelta.apply`'s validation errors (unknown delete
        ids, colliding insert ids) without touching service state.
        """
        with self._mutate:
            self._ensure_open()
            with self._lock:
                old = self._catalog.resolve(name)
                sketch = self._catalog.sketch_for(name)
                served = self._catalog.served()
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
                resolve=served.get,
            )
            with self._lock:
                ledger.delta_applies += 1
            if noop:
                return DeltaOutcome(
                    entry=old,
                    fraction=fraction,
                    patched=0,
                    fallbacks=0,
                    noop=True,
                )
            # The retire inside sweeps the patched originals.
            entry = self._bind(
                name,
                new_dataset,
                new_fingerprint,
                sketch.apply_delta(delta, old.dataset, new_dataset),
            )
            with self._lock:
                for key, report in rewritten:
                    self._results.put(key, report)
                ledger.delta_patches += len(rewritten)
                ledger.delta_patch_fallbacks += fallbacks
            return DeltaOutcome(
                entry=entry,
                fraction=fraction,
                patched=len(rewritten),
                fallbacks=fallbacks,
            )

    def _cached_entries(
        self, fingerprint: str
    ) -> list[tuple[CacheKey, RunReport]]:
        """The cached entries touching ``fingerprint``."""
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

    def _retire(self, old: CatalogEntry) -> None:
        """Tear down content a rebind or unregister left behind (caller
        holds ``_mutate``).

        If no surviving name serves the old content, every shard drops
        its realised dataset for it — joins are pair-routed, so any
        shard may have realised it — and the router purges its result
        cache of it, forgets its range index and drops its payload.  A
        shared-memory ref is released through the retire window, not
        immediately: a command already in flight may still need to
        attach the old segment.
        """
        with self._lock:
            if self._catalog.names_bound_to(old.fingerprint):
                return
            payload = self._payloads.pop(old.fingerprint)
        self._broadcast(
            lambda seq: InvalidateCommand(seq=seq, fingerprint=old.fingerprint)
        )
        with self._lock:
            self._results.invalidate_fingerprint(old.fingerprint)
            self._queries.forget(old.dataset)
        if payload.ref is not None:
            self._retire_ref(payload.ref)

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

    # -- planning --------------------------------------------------------
    def plan(
        self,
        a: Dataset | str,
        b: Dataset | str,
        algorithm: str = "auto",
        *,
        space: Box | None = None,
        parameters: dict[str, object] | None = None,
    ) -> JoinPlan:
        """Explain how a join over these inputs would be planned.

        For catalog names this prices the pair off the sketches the
        catalog stored at registration time — a few KB of statistics
        per side — plus each side's MBB for the shared extent, which
        is what makes planning cheap enough to answer interactively
        for any registered pair.  Concrete datasets are sketched on
        the fly.  The plan is always costed (``explain=True``).
        """
        sides: list[tuple[Dataset, DatasetSketch]] = []
        for side in (a, b):
            if isinstance(side, str):
                with self._lock:
                    entry = self._catalog.resolve(side)
                    sides.append((entry.dataset, self._catalog.sketch_for(side)))
            elif isinstance(side, Dataset):
                sides.append((side, build_sketch(side)))
            else:
                raise TypeError(
                    "plan() takes catalog names (str) or concrete "
                    f"Datasets, got {type(side).__name__}"
                )
        (dataset_a, sketch_a), (dataset_b, sketch_b) = sides
        workspace = self._queries.workspace
        return plan_join(
            dataset_a,
            dataset_b,
            algorithm,
            space=space,
            page_size=workspace.page_size,
            parameters=parameters,
            explain=True,
            sketches=(sketch_a, sketch_b),
            disk_model=workspace.disk.model,
            cost_model=workspace.cost_model,
        )

    # -- joins ---------------------------------------------------------
    def submit(
        self, request: JoinRequest, *, client: str | None = None
    ) -> ServiceResponse:
        """Serve one join: cache hit, or execute and fill.

        ``request.a`` / ``request.b`` may be catalog names (strings) or
        concrete :class:`~repro.joins.base.Dataset` objects; names are
        resolved through the catalog, concrete datasets are
        fingerprinted on the fly.
        """
        return self.submit_async(request, client=client).result()

    def submit_many(
        self,
        requests: Iterable[JoinRequest],
        *,
        client: str | None = None,
    ) -> list[ServiceResponse]:
        """Serve a batch of joins, in request order.

        The whole batch resolves before anything is submitted: an
        unknown name or an unsupported side raises without mutating
        service state.  Duplicate keys within one batch execute once
        and share the report (each duplicate still counts as its own
        cache miss).
        """
        return [
            future.result() for future in self._submit(requests, client)
        ]

    def submit_async(
        self, request: JoinRequest, *, client: str | None = None
    ) -> "Future[ServiceResponse]":
        """Answer one join from the router's cache, or route it to its
        pair's owner shard, asynchronously.

        Resolution failures (unknown name, unsupported side type)
        raise synchronously.  A client over its quota is rejected
        before the cache is probed; a hit resolves the future at once
        (``cached=True``) and no shard sees the request.  A miss whose
        key is already in flight attaches to that miss: it sends no
        command, takes no admission slot, and resolves with the same
        answer (``cached=False``).  Admission failures never raise:
        the future resolves to an ``ok=False`` response with
        ``error_type`` of ``"ClientQuotaExceeded"`` or
        ``"ShardSaturated"``.
        """
        return self._submit([request], client)[0]

    def _submit(
        self, requests: Iterable[JoinRequest], client: str | None
    ) -> list["Future[ServiceResponse]"]:
        """Resolve every request, then answer, attach or lead each, then
        send the leaders' commands.

        Admitting the whole batch before sending anything makes a
        duplicate key within it attach to its first occurrence's miss,
        on inline shards too.  A send that raises answers its key's
        submissions with the error and is re-raised once every other
        leader has been sent.
        """
        self._ensure_open()
        start = time.perf_counter()
        batch = [self._resolve(request, client, start) for request in requests]
        leaders = [submission for submission in batch if self._admit(submission)]
        failure: BaseException | None = None
        for leader in leaders:
            try:
                self._send(leader)
            except BaseException as exc:
                if failure is None:
                    failure = exc
        if failure is not None:
            raise failure
        return [submission.future for submission in batch]

    def _resolve(
        self, request: JoinRequest, client: str | None, start: float
    ) -> _Submission:
        """One request's payloads, cache key and owner shard; raises
        before any state moves."""
        payload_a, a = self._resolve_side(request.a)
        payload_b, b = self._resolve_side(request.b)
        key = request_cache_key(
            payload_a.fingerprint,
            payload_b.fingerprint,
            request.algorithm,
            request.space,
            request.parameters,
            request.within,
        )
        named = tuple(
            payload.fingerprint
            for side, payload in ((request.a, payload_a), (request.b, payload_b))
            if isinstance(side, str)
        )
        return _Submission(
            request=dataclasses.replace(request, a=a, b=b),
            key=key,
            shard=self._ring.owner_of_pair(
                payload_a.fingerprint, payload_b.fingerprint
            ),
            a=payload_a,
            b=payload_b,
            named=named,
            client=client,
            start=start,
        )

    def _resolve_side(self, side: object) -> tuple[DatasetPayload, Dataset]:
        """(wire payload, dataset) for one request side."""
        if isinstance(side, str):
            with self._lock:
                entry = self._catalog.resolve(side)
                return self._payloads[entry.fingerprint], entry.dataset
        if isinstance(side, Dataset):
            # Ad-hoc concrete datasets travel pickled: publishing them
            # would need per-request release bookkeeping across shard
            # crashes for content that may never recur.  Register the
            # dataset to get the zero-copy path.
            payload = DatasetPayload(
                fingerprint=dataset_fingerprint(side), dataset=side
            )
            return payload, side
        raise TypeError(
            "service requests take catalog names (str) or concrete "
            f"Datasets, got {type(side).__name__}"
        )

    def _admit(self, submission: _Submission) -> bool:
        """Answer a quota rejection or a cache hit at once, or attach to
        the key's miss in flight; True when the submission leads a new
        miss and its command must be sent."""
        shard = submission.shard
        if not self._acquire_client(submission.client):
            with self._lock:
                self._ledgers[shard].rejected_requests += 1
            submission.answer(
                None,
                error_type="ClientQuotaExceeded",
                error=(
                    f"client {submission.client!r} is at its in-flight "
                    f"quota ({self._client_quota})"
                ),
            )
            return False
        with self._lock:
            report = self._results.get(submission.key)
            if report is not None:
                self._ledgers[shard].hit(
                    report.algorithm, time.perf_counter() - submission.start
                )
            elif submission.key in self._inflight:
                self._inflight[submission.key].append(submission)
                return False
            else:
                self._inflight[submission.key] = [submission]
                return True
        self._release_client(submission.client)
        submission.answer(report, cached=True)
        return False

    def _send(self, leader: _Submission) -> None:
        """Send a leader's join to its owner shard once admitted; the
        reply settles every submission waiting on the key."""
        handle = self._shards[leader.shard]
        if not handle.gate.try_acquire(self.queue_timeout_s):
            self._settle(
                leader,
                ShardReply(
                    seq=_CONTROL_SEQ,
                    ok=False,
                    error=(
                        f"shard {leader.shard} stayed at its in-flight "
                        f"bound for {self.queue_timeout_s:g}s"
                    ),
                    error_type="ShardSaturated",
                ),
                rejected=True,
            )
            return
        request = leader.request
        command = JoinCommand(
            seq=next(self._seq),
            a=leader.a,
            b=leader.b,
            algorithm=request.algorithm,
            space=request.space,
            parameters=request.parameters,
            label=request.describe(),
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
            self._settle(leader, reply)

        try:
            reply_future = handle.request_async(command)
        except BaseException as exc:
            handle.gate.release()
            self._settle(leader, _failed(command.seq, exc))
            raise
        reply_future.add_done_callback(_finish)

    def _settle(
        self,
        leader: _Submission,
        reply: ShardReply,
        *,
        rejected: bool = False,
    ) -> None:
        """Answer every submission waiting on ``leader``'s key.

        Files the report in the router's cache unless one of the
        leader's name-resolved fingerprints was unbound while the join
        was in flight (``names_bound_to``, the one stale-fill guard),
        and counts the waiters in the owner shard's ledger: each is a
        request and a miss (a failure if no report came back), one
        latency sample (the shard-side wall) stands for them all, and
        ``rejected`` waiters count as rejections only.
        """
        outcome = reply.payload if reply.ok else None
        assert outcome is None or isinstance(outcome, RequestOutcome)
        report = outcome.report if outcome is not None else None
        with self._lock:
            waiters = self._inflight.pop(leader.key)
            ledger = self._ledgers[leader.shard]
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
                if all(self._catalog.names_bound_to(fp) for fp in leader.named):
                    self._results.put(leader.key, report)
                else:
                    ledger.cache_stale_fill_skips += 1
        source = outcome if outcome is not None else reply
        for waiter in waiters:
            self._release_client(waiter.client)
            waiter.answer(
                report, error=source.error, error_type=source.error_type
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
        """Ids of the dataset's elements intersecting ``query``.

        Answered by the router from its query workspace: the first
        query against a dataset builds its index, later ones reuse it.
        No shard sees it, so it takes no admission slot, never raises
        :class:`ShardSaturated` and never waits behind a join.  The
        name resolves under ``_lock``, the index is built or probed
        under the query workspace's lock only, and if no name serves
        the content any more, a retire's forget ran before the build
        and missed it: the index is dropped here (``stale_index_drops``)
        and the hits go out as computed.  A client over its quota
        raises ``RuntimeError``.  It counts in the ledger of the
        content's owner shard.
        """
        self._ensure_open()
        # A concrete side is hashed outside the lock, only to find the
        # owner whose ledger counts it.
        fingerprint = (
            None if isinstance(dataset, str)
            else self._resolve_side(dataset)[0].fingerprint
        )
        if not self._acquire_client(client):
            with self._lock:
                _, _, ledger = self._range_side(dataset, fingerprint)
                ledger.rejected_requests += 1
            raise RuntimeError(
                f"client {client!r} is at its in-flight quota "
                f"({self._client_quota})"
            )
        try:
            with self._lock:
                target, guard, ledger = self._range_side(dataset, fingerprint)
                ledger.range_requests += 1
            hits, wall = self._queries.range_query(target, query, buffer_pages)
            with self._lock:
                ledger.record_latency(RANGE_QUERY_LATENCY_KEY, wall)
                if guard is not None and not self._catalog.names_bound_to(
                    guard
                ):
                    ledger.stale_index_drops += 1
                    self._queries.forget(target)
            return hits
        finally:
            self._release_client(client)

    def _range_side(
        self, side: Dataset | str, fingerprint: str | None
    ) -> tuple[Dataset, str | None, ServiceLedger]:
        """A range query's dataset, guarded fingerprint (``None`` for a
        concrete side, which is never guarded) and owner's ledger
        (caller holds ``_lock``)."""
        if isinstance(side, str):
            entry = self._catalog.resolve(side)
            owner = self._ring.owner(entry.fingerprint)
            return entry.dataset, entry.fingerprint, self._ledgers[owner]
        assert fingerprint is not None
        return side, None, self._ledgers[self._ring.owner(fingerprint)]

    # -- admission helpers ---------------------------------------------
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
        count.  Latencies are shard-side walls for misses, router-side
        walls for range queries (counted in the row of the content's
        owner, so the rows still add up) and lookup walls for router
        hits; the cache and catalog fields of the totals are the
        router's, the tier's only ones.
        """
        self._ensure_open()
        with self._lock:
            return ServiceLedger.combined(self._ledgers).snapshot(
                catalog_size=len(self._catalog),
                cache=self._results,
                per_shard=tuple(ledger.row() for ledger in self._ledgers),
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


class SpatialQueryService(ShardedQueryService):
    """The single-process service: the router over one in-process shard.

    Parameters
    ----------
    disk_model / cost_model:
        Forwarded to the shard's executor (each miss runs cold on its
        own workspace) and to the query workspace, so cached and
        freshly computed reports share one cost basis.
    max_cached_results:
        Bound of the result cache (LRU; ``None`` disables the bound).
    max_cached_indexes:
        Bound of the query workspace's per-dataset index cache.

    The shard runs each miss in the calling thread and takes datasets
    by reference: the service publishes nothing to shared memory and
    owns no segment, process or thread, so it needs no ``close()``.
    Every caller is admitted (the caller's own thread does the work),
    so it never answers ``ShardSaturated``, and with no client quota
    never ``ClientQuotaExceeded``.  To serve across processes, use
    :class:`ShardedQueryService`.
    """

    def __init__(
        self,
        *,
        disk_model: DiskModel | None = None,
        cost_model: CostModel | None = None,
        max_cached_results: int | None = 256,
        max_cached_indexes: int | None = (
            SpatialWorkspace.DEFAULT_MAX_CACHED_INDEXES
        ),
    ) -> None:
        super().__init__(
            1,
            disk_model=disk_model,
            cost_model=cost_model,
            max_cached_results=max_cached_results,
            max_cached_indexes=max_cached_indexes,
            max_inflight_per_shard=sys.maxsize,
            inline=True,
        )

    def _payload(self, dataset: Dataset, fingerprint: str) -> DatasetPayload:
        """The dataset itself: the shard shares this process."""
        return DatasetPayload(fingerprint=fingerprint, dataset=dataset)
