"""``cold_uniform`` / ``cold_skewed``: the library path, one client.

Op = ``SpatialWorkspace().join(a, b)`` on a fresh workspace with
``algorithm="auto"``, rotating over the workload's dataset pairs.  One
closed-loop client: the next join starts when the previous one
returned.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass

import numpy as np

from repro import (
    Dataset,
    SpatialWorkspace,
    build_sketch,
    plan_join,
    scaled_space,
    uniform_dataset,
)
from repro.index.str_pack import str_partition_with_bounds
from repro.joins import canonical_pairs, grid_hash_join, plane_sweep_join
from repro.storage import element_page_capacity

from bench import expected, speed
from bench.metrics import Measured, Result, p50, p90, peak_rss_mb, timed_setup
from bench.speed import Calibrator
from bench.trace import Tracer
from bench.workloads import Scale, cold_inputs_digest, cold_pairs

WARMUP_JOINS = 2


def pairs_digest(pairs: np.ndarray) -> str:
    """SHA-256 of the canonical (sorted, deduplicated) id-pair array."""
    return hashlib.sha256(canonical_pairs(pairs).tobytes()).hexdigest()


Pairs = list[tuple[Dataset, Dataset]]


def build(workload: str, seed: int, scale: Scale) -> Pairs:
    """Set-up: data generation and warm-up joins."""
    pairs = cold_pairs(workload, seed, scale)
    for a, b in pairs[:WARMUP_JOINS]:
        SpatialWorkspace().join(a, b)
    return pairs


@dataclass
class JoinRecord:
    op: int
    pair: int
    start: float
    end: float
    #: ``None`` when the join raised.
    pairs: np.ndarray | None
    cost: float = 0.0
    counters: tuple[float, ...] = ()

    @property
    def seconds(self) -> float:
        return self.end - self.start


#: ``core.*`` counters read off every report, in this order.
COUNTERS = (
    "core.pages_read",
    "core.intersection_tests",
    "core.metadata_comparisons",
    "core.index_pages_written",
    "core.role_switches",
    "core.splits_to_unit",
    "core.splits_to_element",
    "pairs_found",
)


def _counters(report) -> tuple[float, ...]:
    stats = report.join_stats
    extras = stats.extras
    return (
        stats.pages_read,
        stats.intersection_tests,
        stats.metadata_comparisons,
        report.index_pages_written_a + report.index_pages_written_b,
        extras.get("role_switches", 0.0),
        extras.get("splits_to_unit", 0.0),
        extras.get("splits_to_element", 0.0),
        stats.pairs_found,
    )


#: The stages of a traced cold op, in call order.
STAGES = ("stats.sketch", "engine.plan", "core.index_build", "core.join")


def _staged_join(tracer: Tracer, op: int, a: Dataset, b: Dataset):
    """``SpatialWorkspace().join(a, b)`` as staged calls into public
    functions, each timed from outside; the final ``join`` reuses both
    indexes, so it times the join phase alone."""
    with tracer.span("op.join", op=op):
        with tracer.span("stats.sketch"):
            sketch_a = build_sketch(a)
        with tracer.span("stats.sketch"):
            sketch_b = build_sketch(b)
        ws = SpatialWorkspace()
        with tracer.span("engine.plan"):
            plan = plan_join(
                a, b, "auto", explain=True,
                sketches=(sketch_a, sketch_b),
                page_size=ws.page_size,
                disk_model=ws.disk.model,
                cost_model=ws.cost_model,
            )
        with tracer.span("core.index_build"):
            ws.build_index(a, plan.algorithm)
            ws.build_index(b, plan.algorithm)
        with tracer.span("core.join"):
            report = ws.join(a, b, algorithm=plan.algorithm)
    if not (report.reused_a and report.reused_b):
        tracer.warnings.append(
            f"staged join {op} rebuilt an index ({plan.algorithm}): "
            "core.index_build_ms is counted twice in trace.coverage"
        )
    return report


def _loop(
    pairs: Pairs, seconds: float, max_ops: int | None,
    tracer: Tracer | None = None, first_op: int = 0,
) -> tuple[list[JoinRecord], Calibrator]:
    """Closed loop, one client: run joins (staged ones under a tracer)
    until the window has passed, sampling the machine's speed between."""
    records: list[JoinRecord] = []
    calibrator = Calibrator()
    calibrator.sample()
    count = len(pairs)
    deadline = time.perf_counter() + seconds
    op = first_op
    while max_ops is None or op - first_op < max_ops:
        a, b = pairs[op % count]
        start = time.perf_counter()
        if start >= deadline:
            break
        try:
            if tracer is None:
                report = SpatialWorkspace().join(a, b)
            else:
                report = _staged_join(tracer, op, a, b)
        except Exception:  # a raising op is a failed op, not a dead run
            records.append(JoinRecord(op, op % count, start, time.perf_counter(), None))
        else:
            end = time.perf_counter()
            records.append(
                JoinRecord(
                    op, op % count, start, end, report.result.pairs,
                    report.total_cost(), _counters(report),
                )
            )
        op += 1
        calibrator.sample_if_due()
    return records, calibrator


def _verify(
    workload: str, seed: int, scale: Scale,
    pairs: Pairs, records: list[JoinRecord], notes: list[str],
) -> int:
    """Failed ops: raised, or a pair set unlike the references — an
    independent ``"pbsm"`` join of the same pair, computed here, and for
    the pinned seed the brute-force digest in ``expected.json``."""
    brute = expected.brute_digests(workload, seed, scale)
    reference = {
        k: pairs_digest(SpatialWorkspace().join(a, b, algorithm="pbsm").result.pairs)
        for k, (a, b) in enumerate(pairs)
        if any(r.pair == k for r in records)
    }
    failed = 0
    for record in records:
        if record.pairs is None:
            failed += 1
            continue
        digest = pairs_digest(record.pairs)
        ok = digest == reference[record.pair]
        if brute is not None:
            ok = ok and digest == brute[record.pair]
        failed += not ok
    oracle = "pbsm + pinned brute force" if brute is not None else "pbsm"
    notes.append(
        f"check joins: {len(records) - failed}/{len(records)} pair sets "
        f"equal the {oracle} digest"
    )
    return failed


def _per_pair_mean(records: list[JoinRecord], column) -> float:
    """Mean over the distinct pairs of a per-join quantity.

    Every join of one pair reports the same simulated cost and counters,
    so this is exact however many ops the window held."""
    by_pair: dict[int, list[float]] = {}
    for record in records:
        if record.pairs is not None:
            by_pair.setdefault(record.pair, []).append(column(record))
    return float(np.mean([np.mean(v) for v in by_pair.values()]))


def _rate(records: list[JoinRecord], failed: int, calibrator: Calibrator) -> float:
    """Correct ops per second of client time at the reference speed.

    The client is busy from the first op to the last but for the
    harness's own work between ops, so its time is the sum of the
    (scaled) latencies."""
    return (len(records) - failed) / sum(_latencies(records, calibrator))


def _latencies(records: list[JoinRecord], calibrator: Calibrator) -> list[float]:
    """Per-op latency at the reference machine speed."""
    return [r.seconds / calibrator.slowdown(r.start, r.end) for r in records]


def run(
    workload: str, seed: int, scale: Scale, seconds: float,
    trace: bool, process_start: float | None,
) -> Result:
    pairs, setup_s = timed_setup(
        lambda: build(workload, seed, scale), scale.setup_repeats, process_start
    )
    # A counted window (tiny scale) visits every pair twice.
    max_ops = None if scale.max_ops is None else 2 * len(pairs)
    notes: list[str] = []
    pinned_ok = expected.check_inputs(
        workload, seed, scale, cold_inputs_digest(pairs), notes
    )
    measured = Measured()

    if not trace:
        records, window_speed = _loop(pairs, seconds, max_ops)
        failed = _verify(workload, seed, scale, pairs, records, notes)
        latencies = _latencies(records, window_speed)
        notes.append(window_speed.describe())
        notes.append(f"raw miss_p50 {p50([r.seconds for r in records]) * 1e3:.2f} ms")
        measured.put("setup_s", setup_s, scale.setup_repeats)
        measured.put("ops_per_s", _rate(records, failed, window_speed), len(records))
        # Every cold op is a computed join, so ``miss_*`` is every op.
        measured.timing("op_p90_ms", latencies, quantile=p90)
        measured.timing("miss_p50_ms", latencies)
        measured.timing("miss_p90_ms", latencies, quantile=p90)
        measured.put(
            "sim_cost_per_join",
            _per_pair_mean(records, lambda r: r.cost),
            len(records),
        )
        measured.put("peak_rss_mb", peak_rss_mb(), 1)
        return Result(workload, trace, len(records), failed, pinned_ok, measured, notes)

    # Traced run: half the window plain (the reference the trace is
    # judged against), half staged.
    plain, plain_speed = _loop(pairs, seconds / 2, max_ops)
    tracer = Tracer()
    staged, staged_speed = _loop(
        pairs, seconds / 2, max_ops, tracer, first_op=len(plain)
    )
    records = plain + staged
    failed = _verify(workload, seed, scale, pairs, records, notes)
    notes.append(staged_speed.describe())

    # Everything below is scaled to the reference machine speed: the
    # plain window by its own samples, the spans by the staged window's.
    plain_p50 = p50(_latencies(plain, plain_speed))
    slow = staged_speed.window_slowdown()
    in_stages: dict[int | None, float] = {}
    for _, name, start, end, _, op in tracer.spans:
        if name in STAGES:
            in_stages[op] = in_stages.get(op, 0.0) + (end - start)
    staged_sum = p50(
        [
            in_stages[r.op] / staged_speed.slowdown(r.start, r.end)
            for r in staged if r.op in in_stages
        ]
    )
    for span in STAGES:
        measured.timing(f"{span}_ms", tracer.durations(span), slowdown=slow)
    measured.put("client.op_p50_ms", plain_p50 * 1e3, len(plain))
    measured.put("engine.workspace_glue_ms", (plain_p50 - staged_sum) * 1e3, len(plain))
    measured.put("trace.coverage", staged_sum / plain_p50, len(staged))
    measured.put(
        "trace.overhead_share",
        1.0 - _rate(staged, 0, staged_speed) / _rate(plain, 0, plain_speed),
        len(staged),
    )
    # Exact counters come from the plain joins' own reports.
    for column, name in enumerate(COUNTERS[:-1]):
        measured.put(
            name, _per_pair_mean(plain, lambda r, c=column: r.counters[c]), len(plain)
        )
    found = _per_pair_mean(plain, lambda r: r.counters[-1])
    compared = _per_pair_mean(plain, lambda r: r.counters[1] + r.counters[2])
    measured.put("core.pairs_per_test", found / compared, len(plain))

    # Direct probes on pinned inputs.
    a, b = pairs[0]
    ws = SpatialWorkspace()
    capacity = element_page_capacity(ws.page_size, a.ndim)
    centers, space = a.boxes.centers(), a.boxes.mbb()
    measured.timing(
        "index.str_partition_ms",
        speed.probe(lambda: str_partition_with_bounds(centers, capacity, space)),
    )
    if workload == "cold_uniform":
        density = scaled_space(2 * scale.probe_n)
        left = uniform_dataset(scale.probe_n, seed=1, space=density).boxes
        right = uniform_dataset(scale.probe_n, seed=2, space=density).boxes
        measured.timing(
            "joins.grid_hash_ms", speed.probe(lambda: grid_hash_join(left, right))
        )
        measured.timing(
            "joins.plane_sweep_ms", speed.probe(lambda: plane_sweep_join(left, right))
        )
    notes.extend(tracer.warnings)
    path = tracer.write(workload, {"seed": seed, "scale": scale.name})
    notes.append(f"trace: {len(tracer.spans)} spans -> bench/out/{path.name}")
    return Result(workload, trace, len(records), failed, pinned_ok, measured, notes)
