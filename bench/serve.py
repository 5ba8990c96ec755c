"""``serve_single`` / ``serve_sharded``: two closed-loop clients against
a long-lived service.

Both workloads run the identical catalog, warm-up and op schedule; the
only difference is the service class, so the gap between them *is* the
sharded tier.  Each client issues its next op when the previous one
returned, unpaced.  Only client 0 writes (deltas must compose in
order); ops are classed by the *response* (``cached`` -> hit), not by
the schedule.
"""

from __future__ import annotations

import hashlib
import itertools
import pickle
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from repro import (
    Box,
    Dataset,
    DriftingClusterStream,
    JoinRequest,
    ShardedQueryService,
    SpatialQueryService,
    SpatialWorkspace,
    dataset_fingerprint,
)
from repro.joins import canonical_pairs
from repro.storage import SharedDatasetPool, attach_dataset

from bench import expected, speed
from bench.metrics import (
    SERVE,
    Measured,
    Result,
    p50,
    p90,
    peak_rss_mb,
    timed_setup,
)
from bench.speed import Calibrator
from bench.trace import SERVE_TARGETS, Tracer
from bench.workloads import (
    CLIENTS,
    LIVE,
    NAMES,
    STATIC_NAMES,
    Catalog,
    Op,
    Scale,
    client_ops,
    serve_catalog,
    serve_inputs_digest,
)

SHARDS = 2
#: Reference joins after the window may take this share of its length.
VERIFY_SHARE = 0.2
#: Ops of the schedule replayed on both tiers by :func:`replay_check`.
REPLAY_OPS = 200
#: Computed reports a client keeps whole for ``service.wire.*``.
WIRE_SAMPLES = 25


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
@dataclass
class Version:
    """One content a name was bound to, and when the binding call ran."""

    start: float
    end: float
    dataset: Dataset


@dataclass
class ServeState:
    catalog: Catalog
    service: SpatialQueryService | ShardedQueryService
    stream: DriftingClusterStream
    #: Which variant each static name is bound to right now.
    variant: dict[str, int]
    #: Every content each name was ever bound to, in binding order.
    versions: dict[str, list[Version]]


def build(workload: str, seed: int, scale: Scale, inline: bool = False) -> ServeState:
    """Set-up: data, service (shard spawn), registration, warm-up."""
    catalog = serve_catalog(seed, scale)
    stream = catalog.stream()
    service = (
        SpatialQueryService() if workload == "serve_single"
        else ShardedQueryService(SHARDS, inline=inline)
    )
    try:
        versions = {}
        for name in NAMES:
            dataset = stream.base() if name == LIVE else catalog.variants[name][0]
            service.register(name, dataset)
            versions[name] = [Version(float("-inf"), float("-inf"), dataset)]
        # Warm-up: every ordered hot pair once, one range query per name.
        for a in NAMES:
            for b in NAMES:
                if a != b:
                    service.submit(JoinRequest(a, b, "auto")).raise_for_failure()
        for name in NAMES:
            service.range_query(name, catalog.space)
    except BaseException:
        _close(service)
        raise
    return ServeState(catalog, service, stream, dict.fromkeys(STATIC_NAMES, 0), versions)


def _close(service) -> None:
    """Only the sharded tier owns processes and shared memory."""
    if isinstance(service, ShardedQueryService):
        service.close()


def teardown(state: ServeState) -> None:
    _close(state.service)


# ----------------------------------------------------------------------
# The measured window
# ----------------------------------------------------------------------
@dataclass
class JoinAnswer:
    """What the clients keep of one join response.

    The response itself is dropped at once: a thousand retained pair
    arrays would be a third of the process's peak memory, and
    ``peak_rss_mb`` is meant to be the program's."""

    key: tuple
    cached: bool
    patched: bool
    #: ``report is None`` (failed or rejected) or ``degraded=True``.
    bad: bool
    #: SHA-256 of the pair array's bytes as returned.
    digest: bytes = b""
    #: ``RunReport.total_cost()`` — simulated I/O + CPU.
    cost: float = 0.0
    #: Wall the join's own layers recorded: both builds plus the join.
    compute: float = 0.0


def _compute_seconds(report) -> float:
    """Wall the join's own layers recorded: both builds plus the join."""
    wall = report.join_stats.wall_seconds
    if not report.reused_a:
        wall += report.build_a.wall_seconds
    if not report.reused_b:
        wall += report.build_b.wall_seconds
    return wall


@dataclass
class OpRecord:
    client: int
    index: int
    op: Op
    start: float
    end: float
    #: :class:`JoinAnswer` (join), id array (range) or ``None`` (write,
    #: or any op that raised).
    answer: object
    error: str | None = None
    #: Set by verification.
    wrong: bool = False
    #: How much slower than the reference the machine ran around the op.
    slowdown: float = 1.0

    @property
    def raw(self) -> float:
        return self.end - self.start

    @property
    def seconds(self) -> float:
        """Latency at the reference machine speed (``bench/speed.py``)."""
        return self.raw / self.slowdown

    @property
    def failed(self) -> bool:
        if self.error is not None or self.wrong:
            return True
        return self.op.kind == "join" and self.answer.bad


@dataclass
class Log:
    """Everything one window (or one client of it) recorded."""

    records: list[OpRecord] = field(default_factory=list)
    speed: Calibrator = field(default_factory=Calibrator)
    #: One pair array per distinct ``(cache key, digest)`` seen.
    pairs: dict[tuple, np.ndarray] = field(default_factory=dict)
    #: A few computed reports, kept whole for the wire probe.
    reports: list[object] = field(default_factory=list)

    def keep(self, response) -> JoinAnswer:
        report = response.report
        if report is None or response.degraded:
            return JoinAnswer(response.key, response.cached, False, bad=True)
        pairs = report.result.pairs
        digest = hashlib.sha256(np.ascontiguousarray(pairs)).digest()
        self.pairs.setdefault((response.key, digest), pairs)
        if not response.cached and len(self.reports) < WIRE_SAMPLES:
            self.reports.append(report)
        return JoinAnswer(
            response.key, response.cached, report.delta_patched, False,
            digest, report.total_cost(), _compute_seconds(report),
        )


def _execute(state: ServeState, op: Op, payload):
    service = state.service
    if op.kind == "join":
        return service.submit(
            JoinRequest(op.a, op.b, op.algorithm, within=op.within)
        )
    if op.kind == "range":
        return service.range_query(op.a, op.box)
    if op.kind == "delta":
        service.apply_delta(op.a, payload)
    else:
        service.register(op.a, payload)
    return None


def _prepare(state: ServeState, op: Op):
    """Generator-side work of a write, kept out of the op's latency."""
    if op.kind == "delta":
        return state.stream.tick()
    if op.kind == "rebind":
        state.variant[op.a] ^= 1
        return state.catalog.variants[op.a][state.variant[op.a]]
    return None


def _client(
    state: ServeState, client: int, seed: int, deadline: float,
    limit: int | None, tracer: Tracer | None,
) -> Log:
    """One closed-loop client: next op when the previous one returned."""
    ops = client_ops(seed, client, state.catalog.space)
    log = Log()
    for index in itertools.count():
        if limit is not None and index >= limit:
            break
        log.speed.sample_if_due()
        op = next(ops)
        payload = _prepare(state, op)
        start = time.perf_counter()
        if start >= deadline:
            break
        answer, error = None, None
        try:
            if tracer is None:
                answer = _execute(state, op, payload)
            else:
                with tracer.span(f"op.{op.kind}", op=client * 10**6 + index):
                    answer = _execute(state, op, payload)
        except Exception as exc:  # a raising op is a failed op
            error = f"{type(exc).__name__}: {exc}"
        end = time.perf_counter()
        if op.kind == "join" and error is None:
            answer = log.keep(answer)
        log.records.append(OpRecord(client, index, op, start, end, answer, error))
        if op.kind in ("delta", "rebind"):
            dataset = state.stream.current if op.kind == "delta" else payload
            state.versions[op.a].append(Version(start, end, dataset))
    log.speed.sample()
    for record in log.records:
        record.slowdown = log.speed.slowdown(record.start, record.end)
    return log


def _merge(logs: list[Log]) -> Log:
    merged = Log(
        sorted((r for log in logs for r in log.records), key=lambda r: r.start),
        speed.merged([log.speed for log in logs]),
    )
    for log in logs:
        for key, pairs in log.pairs.items():
            merged.pairs.setdefault(key, pairs)
        merged.reports.extend(log.reports)
    return merged


def run_clients(
    state: ServeState, seed: int, seconds: float, max_ops: int | None,
    tracer: Tracer | None = None,
) -> Log:
    """Run both clients for ``seconds`` (or ``max_ops`` ops each, if
    that comes first); one log, records in start order."""
    deadline = time.perf_counter() + seconds
    with ThreadPoolExecutor(CLIENTS, thread_name_prefix="bench-client") as pool:
        futures = [
            pool.submit(_client, state, c, seed, deadline, max_ops, tracer)
            for c in range(CLIENTS)
        ]
        # A crashed client must fail the run, not shorten it.
        return _merge([future.result() for future in futures])


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------
def _overlap_ids(dataset: Dataset, box: Box) -> np.ndarray:
    """Ids whose box intersects ``box`` (closed intervals), by NumPy."""
    lo, hi = np.asarray(box.lo), np.asarray(box.hi)
    mask = np.all((dataset.boxes.lo <= hi) & (dataset.boxes.hi >= lo), axis=1)
    return np.sort(dataset.ids[mask])


def _verify_ranges(state: ServeState, records: list[OpRecord]) -> int:
    """Each range answer must equal the overlap filter over a content
    that was bound to the name at some point while the query ran."""
    checked = 0
    for record in records:
        if record.op.kind != "range" or record.error is not None:
            continue
        versions = state.versions[record.op.a]
        answer = np.sort(record.answer)
        record.wrong = True
        for j, version in enumerate(versions):
            bound_before_end = version.start <= record.end
            rebound_before_start = (
                j + 1 < len(versions) and versions[j + 1].end < record.start
            )
            if bound_before_end and not rebound_before_start:
                if np.array_equal(answer, _overlap_ids(version.dataset, record.op.box)):
                    record.wrong = False
                    break
        checked += 1
    return checked


def _verify_joins(
    state: ServeState, log: Log, seed: int, budget: float
) -> tuple[int, int, int]:
    """Check join responses against fresh joins of the keyed contents.

    All responses sharing a cache key must carry the same pair set; then
    one fresh ``SpatialWorkspace`` join per key must match as well, for
    as many keys as ``budget`` seconds allow: first the keys that served
    a ``delta_patched`` report, then the rest, each in a seeded order.
    Returns ``(keys checked, keys seen, patched keys checked)``.
    """
    by_fingerprint = {
        dataset_fingerprint(version.dataset): version.dataset
        for versions in state.versions.values()
        for version in versions
    }
    for variants in state.catalog.variants.values():
        for dataset in variants:
            by_fingerprint[dataset_fingerprint(dataset)] = dataset

    groups: dict[tuple, list[OpRecord]] = {}
    for record in log.records:
        if record.op.kind == "join" and not record.failed:
            groups.setdefault(record.answer.key, []).append(record)
    # Pair sets are compared in canonical form; the digests are of the
    # bytes as returned, so equal digests need no second look.
    canonical: dict[tuple, bytes] = {}
    for (key, _), pairs in log.pairs.items():
        found = canonical_pairs(pairs).tobytes()
        if canonical.setdefault(key, found) != found:
            for member in groups.get(key, ()):
                member.wrong = True

    patched = [
        key for key, group in groups.items() if any(r.answer.patched for r in group)
    ]
    patched_set = set(patched)
    rest = [key for key in groups if key not in patched_set]
    rng = np.random.default_rng([seed, 7])
    rng.shuffle(patched)
    rng.shuffle(rest)
    checked = 0
    stop = time.perf_counter() + budget
    for key in patched + rest:
        if checked and time.perf_counter() >= stop:
            break
        group = groups[key]
        a = by_fingerprint.get(key[0])
        b = by_fingerprint.get(key[1])
        if a is None or b is None:
            ok = False  # answered from a content the benchmark never bound
        else:
            fresh = SpatialWorkspace().join(
                a, b, algorithm="pbsm", within=group[0].op.within
            )
            ok = canonical_pairs(fresh.result.pairs).tobytes() == canonical[key]
        if not ok:
            for member in group:
                member.wrong = True
        checked += 1
    return checked, len(groups), min(checked, len(patched))


def verify(
    state: ServeState, log: Log, seed: int,
    budget: float, notes: list[str], label: str = "",
) -> int:
    """Run every per-op check; returns the number of failed ops."""
    ranges = _verify_ranges(state, log.records)
    checked, seen, patched = _verify_joins(state, log, seed, budget)
    failed = sum(r.failed for r in log.records)
    notes.append(
        f"check{label}: {ranges} range answers against a NumPy overlap "
        f"filter; {checked} of {seen} join keys ({patched} delta-patched) "
        f"against a fresh pbsm join; {failed} of {len(log.records)} ops failed"
    )
    for record in log.records:
        if record.error is not None:
            notes.append(f"  op {record.client}/{record.index} raised {record.error}")
            break
    return failed


def replay_check(seed: int, scale: Scale, notes: list[str]) -> bool:
    """The first ops of the schedule, single-threaded on both tiers,
    must give byte-identical pair arrays and range answers."""
    answers = []
    for workload in SERVE:
        state = build(workload, seed, scale)
        try:
            records = [
                record
                for client in range(CLIENTS)
                for record in _client(
                    state, client, seed, float("inf"), REPLAY_OPS // CLIENTS, None
                ).records
            ]
        finally:
            teardown(state)
        answers.append(
            [
                None if r.failed
                else r.answer.digest if r.op.kind == "join"
                else r.answer.tobytes() if r.op.kind == "range"
                else b""
                for r in records
            ]
        )
    single, sharded = answers
    same = sum(x is not None and x == y for x, y in zip(single, sharded))
    ok = same == len(single) == len(sharded)
    notes.append(
        f"check replay: {same}/{len(single)} answers byte-identical "
        "between SpatialQueryService and ShardedQueryService"
    )
    return ok


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def _joins(records, cached: bool) -> list[OpRecord]:
    return [
        r for r in records
        if r.op.kind == "join" and not r.failed and r.answer.cached == cached
    ]


def _kind(records, *kinds: str) -> list[OpRecord]:
    return [r for r in records if r.op.kind in kinds and not r.failed]


def _seconds(records) -> list[float]:
    return [r.seconds for r in records]


def _rate(log: Log, failed: int) -> float:
    """Correct ops per second at the reference machine speed: per client,
    ops over the client's busy time (the sum of its scaled latencies —
    a closed-loop client is idle only while the harness works), summed
    over the clients."""
    total = 0.0
    for client in range(CLIENTS):
        own = [r for r in log.records if r.client == client]
        if own:
            total += len(own) / sum(r.seconds for r in own)
    return total * (len(log.records) - failed) / len(log.records)


def end_to_end(log: Log, failed: int, measured: Measured) -> None:
    misses = _joins(log.records, cached=False)
    measured.put("ops_per_s", _rate(log, failed), len(log.records))
    measured.timing("op_p90_ms", _seconds(log.records), quantile=p90)
    measured.timing("miss_p50_ms", _seconds(misses))
    measured.timing("miss_p90_ms", _seconds(misses), quantile=p90)
    if misses:
        measured.put(
            "sim_cost_per_join",
            float(np.mean([r.answer.cost for r in misses])), len(misses),
        )
    measured.put("peak_rss_mb", peak_rss_mb(), 1)


def _shard_rows(stats) -> list[tuple[float, int]]:
    """Per shard: (busy seconds, requests) from ``stats().per_shard``."""
    rows = []
    for shard in stats.per_shard:
        busy = sum(
            row["count"] * row["mean_s"]
            for row in shard["latency_by_algorithm"].values()
        )
        rows.append((busy, shard["requests"] + shard["range_requests"]))
    return rows


def client_and_counters(
    workload: str, state: ServeState, log: Log, before, after, measured: Measured
) -> None:
    """Layer metrics of an *untraced* window: client-observed class
    latencies and counter deltas read through ``stats()``."""
    records = log.records
    hits, misses = _joins(records, True), _joins(records, False)
    ranges = _kind(records, "range")
    deltas = _kind(records, "delta")
    measured.timing("client.op_p50_ms", _seconds(records))
    measured.timing("client.hit_p50_ms", _seconds(hits))
    measured.timing("client.range_p50_ms", _seconds(ranges))
    measured.timing("client.range_p90_ms", _seconds(ranges), quantile=p90)
    measured.timing("client.write_p50_ms", _seconds(_kind(records, "delta", "rebind")))
    measured.timing("service.apply_delta_ms", _seconds(deltas))

    def delta(attr: str) -> int:
        return getattr(after, attr) - getattr(before, attr)

    probes = delta("cache_hits") + delta("cache_misses")
    if probes:
        measured.put("service.cache.hit_rate", delta("cache_hits") / probes, probes)
    measured.put("service.cache.evictions", delta("cache_evictions"), probes)
    measured.put("service.cache.invalidations", delta("cache_invalidations"), probes)
    patches, fallbacks = delta("delta_patches"), delta("delta_patch_fallbacks")
    measured.put("service.delta_patches", patches, len(deltas))
    measured.put("service.delta_patch_fallbacks", fallbacks, len(deltas))
    if patches + fallbacks:
        measured.put("service.patch_rate", patches / (patches + fallbacks), patches + fallbacks)
    measured.put("service.stale_fill_skips", delta("cache_stale_fill_skips"), len(misses))
    measured.put("service.stale_index_drops", delta("stale_index_drops"), len(ranges))

    if workload == "serve_single":
        duplicates = sum(
            any(
                other.client != miss.client
                and other.answer.key == miss.answer.key
                and other.start < miss.start < other.end
                for other in misses
            )
            for miss in misses
        )
        if misses:
            measured.put(
                "service.duplicate_miss_share", duplicates / len(misses), len(misses)
            )
        return

    wall = max(r.end for r in records) - min(r.start for r in records)
    rows = [
        (busy_after - busy_before, reqs_after - reqs_before)
        for (busy_before, reqs_before), (busy_after, reqs_after)
        in zip(_shard_rows(before), _shard_rows(after))
    ]
    requests = [reqs for _, reqs in rows]
    measured.put(
        "service.sharded.shard_busy_share",
        float(np.mean([busy / wall for busy, _ in rows])), len(rows),
    )
    measured.put(
        "service.sharded.shard_imbalance",
        max(requests) / float(np.mean(requests)), sum(requests),
    )
    measured.put("service.sharded.rejected", delta("rejected_requests"), len(records))
    measured.put("service.sharded.degraded", delta("degraded_responses"), len(records))
    measured.put(
        "service.sharded.respawns", sum(state.service.shard_respawns()), len(records)
    )
    measured.timing(
        "service.sharded.queue_wait_ms",
        [(r.raw - r.answer.compute) / r.slowdown for r in misses],
    )
    # What a reply costs on the wire, measured from outside on reports
    # the clients actually received.
    sizes, round_trips = [], []
    for report in log.reports:
        start = time.perf_counter()
        blob = pickle.dumps(report, pickle.HIGHEST_PROTOCOL)
        pickle.loads(blob)
        round_trips.append(time.perf_counter() - start)
        sizes.append(len(blob))
    if sizes:
        measured.put("service.wire.reply_bytes", p50(sizes), len(sizes))
    measured.timing(
        "service.wire.pickle_ms", round_trips, slowdown=log.speed.window_slowdown()
    )


@dataclass
class Window:
    """One traced window: its inputs, what it recorded, when it began."""

    state: ServeState
    log: Log
    since: float


def _traced_window(workload, seed, scale, seconds, tracer, inline=False) -> Window:
    state = build(workload, seed, scale, inline=inline)
    try:
        since = time.perf_counter()
        log = run_clients(state, seed, seconds, scale.max_ops, tracer)
    finally:
        teardown(state)
    return Window(state, log, since)


def _span_metrics(workload: str, tracer: Tracer, window: Window, measured: Measured) -> None:
    """Layer metrics read off the spans of one traced window, scaled to
    the reference machine speed by the window's median slowdown."""
    slow = window.log.speed.window_slowdown()

    def timing(name: str, span: str, **how) -> None:
        measured.timing(name, tracer.durations(span, window.since), slowdown=slow, **how)

    if workload == "serve_single":
        timing("service.cache.probe_us", "service.cache.probe", scale=1e6)
        timing("service.catalog.resolve_us", "service.catalog.resolve", scale=1e6)
        timing("stats.sketch_apply_delta_ms", "stats.sketch_apply_delta")
    else:
        timing("storage.shm.publish_ms", "storage.shm.publish")
    timing("joins.delta_join_ms", "joins.delta_join")
    timing("streaming.delta_apply_ms", "streaming.delta_apply")
    # Per op, not per call: the function memoises by object, so half of
    # a write's calls return at once and a per-call median sits between.
    measured.timing(
        "storage.fingerprint_ms",
        tracer.per_op("storage.fingerprint", window.since), slowdown=slow,
    )
    measured.put(
        "storage.fingerprint_calls",
        len(tracer.durations("storage.fingerprint", window.since)),
        len(window.log.records),
    )


def _shard_side_metrics(tracer: Tracer, window: Window, measured: Measured) -> None:
    """Spans that run where the join runs: in this process for
    ``serve_single``, inside the shards for ``serve_sharded`` (hence
    read from the inline-mode window there)."""
    slow = window.log.speed.window_slowdown()
    records = window.log.records
    executor = tracer.durations("engine.executor_run", window.since)
    measured.timing("engine.executor_run_ms", executor, slowdown=slow)
    measured.put(
        "core.index_builds",
        len(tracer.durations("core.index_build", window.since)), len(records),
    )
    misses = _seconds(_joins(records, cached=False))
    if executor and misses:
        measured.put(
            "service.submit_glue_ms",
            (p50(misses) - p50(executor) / slow) * 1e3, len(misses),
        )


def run(
    workload: str, seed: int, scale: Scale, seconds: float,
    trace: bool, process_start: float | None,
) -> Result:
    measured = Measured()
    notes: list[str] = []
    sharded = workload == "serve_sharded"

    if not trace:
        state, setup_s = timed_setup(
            lambda: build(workload, seed, scale),
            scale.setup_repeats, process_start, teardown,
        )
        try:
            log = run_clients(state, seed, seconds, scale.max_ops)
        finally:
            teardown(state)
        ok = expected.check_inputs(
        workload, seed, scale, serve_inputs_digest(state.catalog, seed), notes
    )
        failed = verify(state, log, seed, VERIFY_SHARE * seconds, notes)
        notes.append(log.speed.describe())
        notes.append(f"raw op_p90 {p90([r.raw for r in log.records]) * 1e3:.2f} ms")
        measured.put("setup_s", setup_s, scale.setup_repeats)
        end_to_end(log, failed, measured)
        return Result(workload, trace, len(log.records), failed, ok, measured, notes)

    # Traced run: an untraced window (the reference, and the source of
    # client latencies and counters), then the same schedule with span
    # wrappers installed; the sharded tier runs it twice more, in
    # process mode (router-side spans) and inline (shard-side spans).
    seconds /= 3 if sharded else 2
    state = build(workload, seed, scale)
    try:
        before = state.service.stats()
        plain = run_clients(state, seed, seconds, scale.max_ops)
        after = state.service.stats()
        client_and_counters(workload, state, plain, before, after, measured)
    finally:
        teardown(state)
    ok = expected.check_inputs(
        workload, seed, scale, serve_inputs_digest(state.catalog, seed), notes
    )
    budget = VERIFY_SHARE * seconds
    failed = verify(state, plain, seed, budget, notes, " (plain window)")
    attempted = len(plain.records)

    tracer = Tracer()
    with tracer.wrapping(SERVE_TARGETS):
        traced = _traced_window(workload, seed, scale, seconds, tracer)
        windows = [("traced", traced)]
        _span_metrics(workload, tracer, traced, measured)
        if sharded:
            inline = _traced_window(workload, seed, scale, seconds, tracer, inline=True)
            windows.append(("inline", inline))
            _shard_side_metrics(tracer, inline, measured)
            hits = _joins(plain.records, True)
            hop = p50(_seconds(hits)) - p50(_seconds(_joins(inline.log.records, True)))
            measured.put("service.sharded.hop_ms", hop * 1e3, len(hits))
        else:
            _shard_side_metrics(tracer, traced, measured)
    for label, window in windows:
        failed += verify(window.state, window.log, seed, budget, notes, f" ({label} window)")
        attempted += len(window.log.records)
    notes.append(traced.log.speed.describe())
    measured.put(
        "trace.overhead_share",
        1.0 - _rate(traced.log, 0) / _rate(plain, 0), len(traced.log.records),
    )

    # Direct probes on pinned inputs.
    left, right = (state.catalog.variants[name][0] for name in STATIC_NAMES[:2])
    measured.timing(
        "joins.pbsm_join_ms",
        speed.probe(lambda: SpatialWorkspace().join(left, right, algorithm="pbsm")),
    )
    if sharded:
        calibrator = Calibrator()
        attaches = []
        with SharedDatasetPool() as pool:
            for variants in state.catalog.variants.values():
                for dataset in variants:
                    ref = pool.publish(dataset)
                    if ref is not None:
                        calibrator.sample()
                        start = time.perf_counter()
                        attach_dataset(ref)
                        attaches.append(time.perf_counter() - start)
        if attaches:
            measured.timing(
                "storage.shm.attach_ms", attaches, slowdown=calibrator.window_slowdown()
            )

    notes.extend(tracer.warnings)
    path = tracer.write(workload, {"seed": seed, "scale": scale.name})
    notes.append(f"trace: {len(tracer.spans)} spans -> bench/out/{path.name}")
    return Result(workload, trace, attempted, failed, ok, measured, notes)
