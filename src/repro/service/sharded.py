"""The service tier: one router over N shards.

:class:`ShardedQueryService` is the router, and both front-ends are
it:

* :class:`SpatialQueryService` is the router over one in-process
  shard that takes datasets by reference and runs each miss in the
  calling thread;
* :class:`ShardedQueryService` scales the misses out across N **shard
  processes**, each a join executor (:class:`ShardState`: an
  executor and a lock) that runs the commands from its pipe one at a
  time — every command carries the datasets it reads, and a shard
  keeps only a bounded, content-keyed cache of the indexes and
  sketches its misses built, so a later miss reuses them.

The **router** (this process) owns everything a service keeps across
requests: the catalog (:class:`~repro.service.catalog.DatasetCatalog`,
names bound to fingerprinted content, with a statistics sketch per
content), the result cache, the
:class:`~repro.service.service.QueryWorkspace` whose index cache
answers every range query, and one
:class:`~repro.service.stats.ServiceLedger` per shard, the tier's only
counters.  It routes each join by a consistent-hash ring
(:class:`~repro.service.sharding.HashRing`) to the owner of its
ordered pair digest.  Aliasing is decided once, router-side, and so
is how long content lives on the wire.  On the process tier,
registered datasets ship as shared-memory references
(:class:`~repro.storage.shm.SharedDatasetRef`, published once per
content by the router's :class:`~repro.storage.shm.SharedDatasetPool`)
when possible, so shard workers attach zero-copy instead of unpickling
content per command.  A segment lives while a name serves its content
or while a sent command carries it: a command picks its payloads when
it is sent, a retire sends no command, and a retired segment is
released by the first retire that finds no command in flight carrying
it.

Every request runs one shape: resolve under the router's lock, compute
outside it, publish under it again, guarded by the catalog's
``names_bound_to``.  A repeated join is answered by the router's cache
and no shard sees it — even when every admission slot is held.  A
duplicate of a miss still in flight waits for that miss instead of
sending its own command.  A delta holds the catalog-mutation lock end
to end, patches the cached entries it touches router-side and files
the patched reports there; it sends no shard command.  Range queries
never reach a shard, so no range query waits behind a join.

The submission layer is asynchronous, with backpressure on the
requests the router cannot answer: at most ``max_inflight_per_shard``
commands may be in flight per shard, and a full shard blocks new
submissions up to ``queue_timeout_s`` before rejecting
(``error_type="ShardSaturated"``).

Shard crashes are isolated: the router respawns the process and
resends in-flight commands exactly once (nothing is replayed, and no
count is lost: a fresh worker needs no state to answer, only its
index cache starts empty) — a command that kills the worker twice
fails alone (``error_type="ShardCrashed"``),
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
import traceback
from collections.abc import Iterable
from concurrent.futures import Future
from dataclasses import dataclass, field
from multiprocessing.connection import Connection

from repro._types import IntArray
from repro.engine.executor import BatchExecutor, JoinRequest
from repro.engine.planner import JoinPlan, plan_join
from repro.engine.report import RunReport
from repro.engine.workspace import SpatialWorkspace
from repro.geometry.box import Box
from repro.joins.base import Dataset
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
    JoinCommand,
    ShardCommand,
    ShardReply,
    ShutdownCommand,
)
from repro.stats.sketch import DatasetSketch, build_sketch
from repro.streaming.delta import DatasetDelta
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
    "execute_command",
]

#: Exit code of a worker killed by :class:`CrashCommand` injection.
_CRASH_EXIT_CODE = 17
#: Sequence number of control traffic (shutdown, crash injection)
#: whose replies nobody waits on; real commands use the router's
#: counter, which starts at 1.
_CONTROL_SEQ = 0


class ShardSaturated(RuntimeError):
    """A shard stayed at its in-flight bound past the queue timeout."""


def _failed(seq: int, exc: BaseException) -> ShardReply:
    """The ``ok=False`` reply that stands for a captured exception: its
    message, then its traceback, as text (the one place an exception
    becomes reply text)."""
    trace = "".join(traceback.format_exception(exc))
    return ShardReply(
        seq=seq,
        ok=False,
        error=f"{exc}\n{trace}",
        error_type=type(exc).__name__,
    )


# ----------------------------------------------------------------------
# Shard-side command execution (runs in the worker process, and in the
# router process for inline shards)
# ----------------------------------------------------------------------
class ShardState:
    """Everything one shard holds: no names, no results, no counters,
    no datasets — only the indexes and sketches its misses built.

    A :class:`~repro.engine.executor.BatchExecutor` for joins, whose one
    long-lived workspace keeps those indexes and sketches by content
    (:attr:`Dataset.fingerprint <repro.joins.base.Dataset.fingerprint>`,
    LRU-bounded by
    :data:`~repro.engine.executor.EXECUTOR_CACHED_INDEXES`), so a miss
    reuses what an earlier miss on this shard built; and ``lock``,
    which runs one command at a time, since an executor serves one
    caller at a time: a worker's loop is serial anyway, and inline
    shards take commands from client threads.  No cache entry holds a
    command's dataset, so no shared-memory segment stays mapped for it.
    """

    def __init__(self) -> None:
        self.executor = BatchExecutor()
        self.lock = threading.Lock()


def _realise(payload: DatasetPayload) -> Dataset:
    """The concrete dataset behind a wire payload: a shared-memory ref
    attaches zero-copy (:func:`~repro.storage.shm.attach_dataset`; the
    mapping goes with the command's last view), a dataset is used as it
    arrived."""
    if payload.ref is not None:
        return attach_dataset(payload.ref)
    assert payload.dataset is not None  # DatasetPayload invariant
    return payload.dataset


def execute_command(shard: ShardState, command: ShardCommand) -> ShardReply:
    """Run one command under the shard's lock and capture its outcome
    as the wire reply.

    This is the *entire* shard-side vocabulary: everything a worker
    process does funnels through here, which is what makes the shard
    protocol unit-testable in-process (the inline shards call it
    directly).  A join replies with its
    :class:`~repro.engine.report.RunReport` and the wall of
    :meth:`BatchExecutor.run <repro.engine.executor.BatchExecutor.run>`,
    the miss's latency sample.  Failures are isolated per command: an
    exception becomes an ``ok=False`` reply (:func:`_failed`), never a
    dead shard.
    """
    try:
        if not isinstance(command, JoinCommand):
            raise TypeError(
                f"unhandled shard command: {type(command).__name__}"
            )
        with shard.lock:
            request = command.to_request(
                _realise(command.a), _realise(command.b)
            )
            start = time.perf_counter()
            report = shard.executor.run(request)
            wall = time.perf_counter() - start
    except Exception as exc:
        return _failed(command.seq, exc)
    return ShardReply(
        seq=command.seq, ok=True, payload=report, wall_seconds=wall
    )


def _shard_worker(conn: Connection) -> None:
    """Entry point of one shard process: a serial command loop over a
    private :class:`ShardState` (the tier's parallelism is *across*
    shards)."""
    shard = ShardState()
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

    def __init__(self, index: int, *, gate: threading.Semaphore) -> None:
        self.index = index
        self.gate = gate
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
            args=(child,),
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

    def drain(self) -> None:
        """A retire does not wait for this shard: its joins run in
        another interpreter, in parallel with the router's writes (see
        :meth:`_InlineShard.drain`)."""

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

    def __init__(self, index: int, *, gate: threading.Semaphore) -> None:
        self.index = index
        self.gate = gate
        self.state = ShardState()
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

    def drain(self) -> None:
        """Wait for the command running on this shard, if any; a retire
        calls it before it purges the router's cache.

        Nothing a retire drops is read by a running join, so this is
        not for safety: in one interpreter, overlapping a write with a
        join buys no parallelism (both need the GIL), so the write only
        slows the join down.  Measured on ``serve_single``, 2-CPU host,
        4 paired runs: without this wait ``ops_per_s`` fell 9 % and
        ``miss_p50_ms`` rose 18 %.
        """
        with self.state.lock:
            pass

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
    #: The datasets of ``request.a`` and ``request.b``.
    sides: tuple[Dataset, Dataset]
    #: Fingerprints resolved from names: a retire while the miss is in
    #: flight can unbind them, and filling the cache then would keep an
    #: answer for retired content.  Concrete sides are caller-managed
    #: and always fillable.
    named: tuple[str, ...]
    start: float
    future: "Future[ServiceResponse]" = field(default_factory=Future)
    #: The shared-memory refs the leader's command carries, pinned
    #: (``ShardedQueryService._pinned``) until its key is settled.
    pins: tuple[SharedDatasetRef, ...] = ()

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
    max_cached_results:
        Bound of the router's result cache, the tier's only one
        (LRU; ``None`` disables the bound).
    max_inflight_per_shard:
        Admission bound: commands in flight per shard before
        backpressure engages.
    queue_timeout_s:
        How long a submission the router cannot answer waits on a
        saturated shard before being rejected.
    inline:
        Run shards in-process (deterministic tests, coverage) instead
        of as worker processes.

    Every shard's executor and the router's query workspace use the
    default disk and cost models, so cached and freshly computed
    reports share one cost basis.  The query workspace keeps at most
    :attr:`SpatialWorkspace.DEFAULT_MAX_CACHED_INDEXES
    <repro.engine.workspace.SpatialWorkspace.DEFAULT_MAX_CACHED_INDEXES>`
    range indexes; each shard's executor bounds its own join indexes.
    """

    def __init__(
        self,
        shards: int = 4,
        *,
        max_cached_results: int | None = 256,
        max_inflight_per_shard: int = 8,
        queue_timeout_s: float = 2.0,
        inline: bool = False,
    ) -> None:
        if max_inflight_per_shard < 1:
            raise ValueError("max_inflight_per_shard must be >= 1")
        self._ring = HashRing(shards)
        self.queue_timeout_s = queue_timeout_s
        #: Guards catalog, payloads, pins, result cache, in-flight
        #: misses and ledgers; held briefly, never across a shard
        #: round-trip.
        self._lock = threading.Lock()
        #: Serialises catalog mutations (register/unregister/deltas/
        #: close) end-to-end, a retire's wait on inline shards
        #: included, and is the only context allowed to touch the (not
        #: thread-safe) publication pool.  Order: ``_mutate`` may take
        #: ``_lock`` or an inline shard's lock, never the reverse.
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
        #: Refs carried by sent commands not yet settled, one entry
        #: per command side.
        self._pinned: list[SharedDatasetRef] = []
        #: Refs of retired content still awaiting release, one entry
        #: per retire (content can be retired, re-published into the
        #: same segment while pinned, and retired again).
        self._retired: list[SharedDatasetRef] = []
        self._seq = itertools.count(1)
        self._closed = False
        self._queries = QueryWorkspace(SpatialWorkspace())
        shard_type: type[_InlineShard] | type[_ProcessShard] = (
            _InlineShard if inline else _ProcessShard
        )
        self._shards: list[_ProcessShard | _InlineShard] = []
        try:
            for index in range(shards):
                gate = threading.Semaphore(max_inflight_per_shard)
                self._shards.append(shard_type(index, gate=gate))
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
        old content's cached results and range index (unless an alias
        still serves it).  A join submitted after
        ``register`` returns sees the new content: every command carries
        the content its names resolved to at submission.
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
            payload = self._payload(dataset)
            if sketch is None:
                sketch = build_sketch(dataset)
        with self._lock:
            self._payloads[fingerprint] = payload
            entry = self._catalog.register(name, dataset, sketch=sketch)
        if old is not None:
            self._retire(old)
        return entry

    def _payload(self, dataset: Dataset) -> DatasetPayload:
        """How content travels to the shards: a shared-memory ref when
        the router can publish it, the pickled dataset otherwise.
        Caller holds ``_mutate`` (the pool is not thread-safe)."""
        ref = self._pages.publish(dataset)
        if ref is None:
            return DatasetPayload(dataset=dataset)
        return DatasetPayload(ref=ref)

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
        exactly like :meth:`register`; no shard command is sent.  The
        delta counts in the ledger of the old content's owner shard.

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
            new_dataset, fraction, noop, rewritten, fallbacks = advance_delta(
                delta,
                old.dataset,
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
                new_dataset.fingerprint,
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

    def _retire(self, old: CatalogEntry) -> None:
        """Tear down content a rebind or unregister left behind (caller
        holds ``_mutate``).

        If no surviving name serves the old content, the router drops
        its payload, purges its result cache of it and forgets its
        range index; no shard holds anything to drop.  Its
        shared-memory ref joins the pending ones, and every pending ref
        no sent command pins is released now; a pinned one waits for a
        later retire, or for :meth:`close`.
        """
        with self._lock:
            if self._catalog.names_bound_to(old.fingerprint):
                return
            payload = self._payloads.pop(old.fingerprint)
        for handle in self._shards:
            handle.drain()
        with self._lock:
            self._results.invalidate_fingerprint(old.fingerprint)
            self._queries.forget(old.dataset)
            if payload.ref is not None:
                self._retired.append(payload.ref)
            unpinned = [r for r in self._retired if r not in self._pinned]
            self._retired = [r for r in self._retired if r in self._pinned]
        for ref in unpinned:
            self._pages.release(ref)

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
    def submit(self, request: JoinRequest) -> ServiceResponse:
        """Serve one join: cache hit, or execute and fill.

        ``request.a`` / ``request.b`` may be catalog names (strings) or
        concrete :class:`~repro.joins.base.Dataset` objects; names are
        resolved through the catalog, concrete datasets are
        fingerprinted on the fly.
        """
        return self.submit_async(request).result()

    def submit_many(
        self, requests: Iterable[JoinRequest]
    ) -> list[ServiceResponse]:
        """Serve a batch of joins, in request order.

        The whole batch resolves before anything is submitted: an
        unknown name or an unsupported side raises without mutating
        service state.  Duplicate keys within one batch execute once
        and share the report (each duplicate still counts as its own
        cache miss).
        """
        return [future.result() for future in self._submit(requests)]

    def submit_async(
        self, request: JoinRequest
    ) -> "Future[ServiceResponse]":
        """Answer one join from the router's cache, or route it to its
        pair's owner shard, asynchronously.

        Resolution failures (unknown name, unsupported side type)
        raise synchronously.  A hit resolves the future at once
        (``cached=True``) and no shard sees the request.  A miss whose
        key is already in flight attaches to that miss: it sends no
        command, takes no admission slot, and resolves with the same
        answer (``cached=False``).  Admission failures never raise:
        the future resolves to an ``ok=False`` response with
        ``error_type="ShardSaturated"``.
        """
        return self._submit([request])[0]

    def _submit(
        self, requests: Iterable[JoinRequest]
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
        batch = [self._resolve(request, start) for request in requests]
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

    def _resolve(self, request: JoinRequest, start: float) -> _Submission:
        """One request's payloads, cache key and owner shard; raises
        before any state moves."""
        a = self._resolve_side(request.a)
        b = self._resolve_side(request.b)
        key = request_cache_key(
            a.fingerprint,
            b.fingerprint,
            request.algorithm,
            request.space,
            request.parameters,
            request.within,
        )
        named = tuple(
            dataset.fingerprint
            for side, dataset in ((request.a, a), (request.b, b))
            if isinstance(side, str)
        )
        return _Submission(
            request=dataclasses.replace(request, a=a, b=b),
            key=key,
            shard=self._ring.owner_of_pair(a.fingerprint, b.fingerprint),
            sides=(a, b),
            named=named,
            start=start,
        )

    def _resolve_side(self, side: object) -> Dataset:
        """The dataset one request side names or is."""
        if isinstance(side, str):
            with self._lock:
                return self._catalog.resolve(side).dataset
        if isinstance(side, Dataset):
            return side
        raise TypeError(
            "service requests take catalog names (str) or concrete "
            f"Datasets, got {type(side).__name__}"
        )

    def _admit(self, submission: _Submission) -> bool:
        """Answer a cache hit at once, or attach to the key's miss in
        flight; True when the submission leads a new miss and its
        command must be sent."""
        with self._lock:
            report = self._results.get(submission.key)
            if report is not None:
                self._ledgers[submission.shard].hit(
                    report.algorithm, time.perf_counter() - submission.start
                )
            elif submission.key in self._inflight:
                self._inflight[submission.key].append(submission)
                return False
            else:
                self._inflight[submission.key] = [submission]
                return True
        submission.answer(report, cached=True)
        return False

    def _send(self, leader: _Submission) -> None:
        """Send a leader's join to its owner shard once admitted; the
        reply settles every submission waiting on the key.

        The payloads are picked once the gate admits the command, not
        at resolution: content some name still serves travels as its
        current payload, whose ref the command pins until the key is
        settled; any other side travels as the dataset itself,
        pickled.  So an ad-hoc concrete side is never published, and a
        command that waited out a retire at the gate never carries a
        released segment.
        """
        handle = self._shards[leader.shard]
        if not handle.gate.acquire(timeout=self.queue_timeout_s):
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
        with self._lock:
            a, b = (
                self._payloads.get(dataset.fingerprint)
                or DatasetPayload(dataset=dataset)
                for dataset in leader.sides
            )
            leader.pins = tuple(
                side.ref for side in (a, b) if side.ref is not None
            )
            self._pinned.extend(leader.pins)
        command = JoinCommand(
            seq=next(self._seq),
            a=a,
            b=b,
            algorithm=request.algorithm,
            space=request.space,
            parameters=request.parameters,
            within=request.within,
        )

        def _finish(reply_future: "Future[ShardReply]") -> None:
            # Runs in the shard's receiver thread (or inline, in the
            # submitting thread).  Every waiter's future MUST resolve
            # on every path — an escaped exception here would strand
            # the submitters in ``.result()`` forever — so failures
            # become error replies, as they do in the shard.
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
        report = reply.payload if reply.ok else None
        assert report is None or isinstance(report, RunReport)
        with self._lock:
            for ref in leader.pins:
                self._pinned.remove(ref)
            waiters = self._inflight.pop(leader.key)
            ledger = self._ledgers[leader.shard]
            if rejected:
                ledger.rejected_requests += len(waiters)
            else:
                ledger.miss(len(waiters))
                ledger.executed(report, reply.wall_seconds, len(waiters))
            if report is not None:
                if all(self._catalog.names_bound_to(fp) for fp in leader.named):
                    self._results.put(leader.key, report)
                else:
                    ledger.cache_stale_fill_skips += 1
        for waiter in waiters:
            waiter.answer(
                report, error=reply.error, error_type=reply.error_type
            )

    # -- range queries -------------------------------------------------
    def range_query(self, dataset: Dataset | str, query: Box) -> IntArray:
        """Ids of the dataset's elements intersecting ``query``.

        Answered by the router from its query workspace: the first
        query against a dataset builds its index, later ones reuse it.
        No shard sees it, so it takes no admission slot, never raises
        :class:`ShardSaturated` and never waits behind a join.  The
        name resolves under ``_lock``, the index is built or probed
        under the query workspace's lock only, and if no name serves
        the content any more, a retire's forget ran before the build
        and missed it: the index is dropped here (``stale_index_drops``)
        and the hits go out as computed.  It counts in the ledger of
        the content's owner shard.
        """
        self._ensure_open()
        # A concrete side is hashed outside the lock, only to find the
        # owner whose ledger counts it.
        fingerprint = (
            None if isinstance(dataset, str)
            else self._resolve_side(dataset).fingerprint
        )
        with self._lock:
            target, guard, ledger = self._range_side(dataset, fingerprint)
            ledger.range_requests += 1
        hits, wall = self._queries.range_query(target, query)
        with self._lock:
            ledger.record_latency(RANGE_QUERY_LATENCY_KEY, wall)
            if guard is not None and not self._catalog.names_bound_to(guard):
                ledger.stale_index_drops += 1
                self._queries.forget(target)
        return hits

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
    max_cached_results:
        Bound of the result cache (LRU; ``None`` disables the bound).

    The shard's executor and the query workspace use the default disk
    and cost models, and the query workspace keeps its default index
    bound, as on :class:`ShardedQueryService`.  The shard runs each
    miss in the calling thread and takes datasets by reference: the
    service publishes nothing to shared memory and owns no segment,
    process or thread, so it needs no ``close()``.  Every caller is
    admitted (the caller's own thread does the work), so it never
    answers ``ShardSaturated``.  To serve across processes, use
    :class:`ShardedQueryService`.
    """

    def __init__(self, *, max_cached_results: int | None = 256) -> None:
        super().__init__(
            1,
            max_cached_results=max_cached_results,
            max_inflight_per_shard=sys.maxsize,
            inline=True,
        )

    def _payload(self, dataset: Dataset) -> DatasetPayload:
        """The dataset itself: the shard shares this process."""
        return DatasetPayload(dataset=dataset)
