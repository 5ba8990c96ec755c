"""Command line of the benchmark (``python3 -m bench``).

* no ``--workload``: every workload in its own fresh interpreter, once
  untraced (end-to-end metrics) and once traced (per-layer metrics),
  then the cross-tier replay check; every metric is printed by name
  with its unit and sample count, every answer is checked;
* ``--workload W --seed N --seconds S --trace 0|1``: one run; the last
  line of standard output is the driver's JSON object;
* ``--repeat N``: N untraced sets, workloads interleaved, with the gap
  between the first two sets judged against each metric's bound;
* ``--repin``: rewrite ``bench/expected.json`` for the default seed.

Whatever is asked runs in a child of the process started here, which
returns once the child and every process it started has ended
(``supervise.py``).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import bench
from bench import supervise

if __name__ == "__main__" and "--worker" not in sys.argv:
    # Every call runs as a supervised child, so that none leaves a process
    # behind; hand over before the imports only the child needs.
    sys.exit(supervise.run([sys.executable, "-m", "bench", *sys.argv[1:], "--worker"]))

from bench import cold, expected, serve
from bench.metrics import ALL, COLD, END_TO_END, SERVE, Result, catalogue
from bench.workloads import (
    DEFAULT_SEED,
    SCALES,
    Scale,
    cold_inputs_digest,
    cold_pairs,
    serve_catalog,
    serve_inputs_digest,
)


def run_workload(
    workload: str, seed: int, scale: Scale, seconds: float,
    trace: bool, process_start: float | None = None,
) -> Result:
    module = cold if workload in COLD else serve
    return module.run(workload, seed, scale, seconds, trace, process_start)


def driver_object(result: Result) -> dict[str, object]:
    """The object the driver reads: every metric of the run's kind, with
    0 where the metric is not defined on this workload."""
    metrics = {}
    for metric in catalogue(result.trace):
        value, _ = result.measured.get(metric.name, (0.0, 0))
        metrics[metric.name] = {"value": value, "unit": metric.unit}
    return {
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }


def report(result: Result) -> bool:
    """Print one run for a reader; False if a metric that should be
    there is not."""
    kind = "per-layer (traced)" if result.trace else "end-to-end (untraced)"
    print(f"== {result.workload}: {kind} ==")
    complete = True
    for metric in catalogue(result.trace):
        if result.workload not in metric.on:
            continue
        if metric.name not in result.measured:
            print(f"  {metric.name:<34} ABSENT")
            complete = complete and result.trace  # a missing layer only warns
            continue
        value, samples = result.measured[metric.name]
        print(f"  {metric.name:<34} {value:>14.4f} {metric.unit:<6} n={samples}")
    for note in result.notes:
        print(f"  {note}")
    share = result.failed / result.attempted if result.attempted else 1.0
    print(
        f"  failed_share {share:.4f} ({result.failed} of {result.attempted} ops)"
        f" -> {'CORRECT' if result.correct and complete else 'INCORRECT'}"
    )
    return complete


def run_one(args, scale: Scale) -> int:
    result = run_workload(
        args.workload, args.seed, scale, args.seconds,
        bool(args.trace), bench.PROCESS_START,
    )
    if not report(result):
        result.checks_ok = False
    print(json.dumps(driver_object(result)), flush=True)
    return 0


# ----------------------------------------------------------------------
# The whole suite: one fresh interpreter per run
# ----------------------------------------------------------------------
def _child(args, workload: str, trace: int) -> dict[str, object]:
    command = [
        sys.executable, "-m", "bench",
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
        "--scale", args.scale,
    ]
    done = subprocess.run(
        command, cwd=bench.ROOT, stdout=subprocess.PIPE, text=True, check=False
    )
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        print(done.stdout)
        raise SystemExit(f"{' '.join(command)} exited with {done.returncode}")
    print("\n".join(lines[:-1]), flush=True)
    return json.loads(lines[-1])


def run_suite(args, scale: Scale) -> int:
    ok = True
    for workload in ALL:
        for trace in (0, 1):
            ok = _child(args, workload, trace)["correct"] and ok
    notes: list[str] = []
    ok = serve.replay_check(args.seed, scale, notes) and ok
    print("== cross-tier replay ==")
    for note in notes:
        print(f"  {note}")
    print("ALL CHECKS PASSED" if ok else "SOME CHECKS FAILED")
    return 0 if ok else 1


def run_repeat(args) -> int:
    sets = [
        {workload: _child(args, workload, 0) for workload in ALL}
        for _ in range(args.repeat)
    ]
    ok = all(run["correct"] for runs in sets for run in runs.values())
    print(f"== repeatability: set 1 vs set 2 of {args.repeat} ==")
    for workload in ALL:
        first, second = (s[workload]["metrics"] for s in sets[:2])
        for metric in END_TO_END:
            v1, v2 = first[metric.name]["value"], second[metric.name]["value"]
            gap = abs(v2 - v1) / v1
            passed = gap <= metric.bound
            ok = ok and passed
            print(
                f"  {workload:<14} {metric.name:<18} {v1:>12.4f} {v2:>12.4f} "
                f"{metric.unit:<5} gap {gap:6.1%} bound {metric.bound:4.0%} "
                f"{'PASS' if passed else 'FAIL'}"
            )
    return 0 if ok else 1


def repin() -> int:
    """Recompute the default seed's pins for every scale (slow: one
    brute-force join per cold dataset pair)."""
    from repro import SpatialWorkspace

    pins: dict[str, dict[str, dict[str, object]]] = {}
    for scale in SCALES.values():
        pins[scale.name] = {}
        for workload in COLD:
            pairs = cold_pairs(workload, DEFAULT_SEED, scale)
            brute = []
            for a, b in pairs:
                report_ = SpatialWorkspace().join(a, b, algorithm="brute")
                brute.append(cold.pairs_digest(report_.result.pairs))
                print(f"{scale.name} {workload}: brute {len(brute)}/{len(pairs)}", flush=True)
            pins[scale.name][workload] = {
                "inputs_digest": cold_inputs_digest(pairs), "brute": brute,
            }
        digest = serve_inputs_digest(serve_catalog(DEFAULT_SEED, scale), DEFAULT_SEED)
        for workload in SERVE:
            pins[scale.name][workload] = {"inputs_digest": digest}
    expected.write(pins)
    print(f"wrote {expected.PATH}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__)
    parser.add_argument("--workload", choices=ALL)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SCALES), default="full")
    parser.add_argument("--repeat", type=int)
    parser.add_argument("--repin", action="store_true")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    scale = SCALES[args.scale]
    if args.seconds is None:
        args.seconds = scale.seconds
    if args.repin:
        return repin()
    if args.workload:
        return run_one(args, scale)
    if args.repeat:
        return run_repeat(args)
    return run_suite(args, scale)


if __name__ == "__main__":
    sys.exit(main())
