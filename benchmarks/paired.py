"""Paired parent-vs-change runs of the benchmark (choosing-metrics §8).

    python benchmarks/paired.py PARENT_TREE CHANGE_TREE --workload W[,W2,...] --seed S --pairs N

runs ``python3 -m bench --workload W --seed S --seconds 20 --trace 0`` in
each tree, alternating which side goes first, and prints — one table per
workload of the comma-separated list, each after its own pairs — per
end-to-end metric of ``BENCHMARK.json``: both medians with quartiles, the
parent's spread (the distance between its quartiles, relative to its
median), the no-regression verdict, the pairs the change won (ties count
for neither side) and whether the medians differ by more than the
parent's spread.  A gain is claimable where the change wins at least
nine tenths of the pairs *and* the gap exceeds that spread.

The verdict judges the change's median against the parent's by the
metric's ``bound``: "regressed" where it is worse by
more than the bound, "unresolved" where the parent's spread is itself
wider than the bound (so the runs cannot tell), else "no regression".
A change whose every run beats every parent run is never unresolved.
"""

import argparse
import json
import statistics
import subprocess
from pathlib import Path


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(bound: float, sign: float, parent: list[float], change: list[float]) -> str:
    """The no-regression verdict of one metric over paired runs.

    ``sign`` is -1 where lower is better, +1 where higher is; spread and
    gap are relative to the parent's median (absolute where it is 0).
    """
    p1, p2, p3 = quartiles(parent)
    c2 = quartiles(change)[1]
    if min(sign * y for y in change) > max(sign * x for x in parent):
        return "no regression"
    scale = abs(p2) or 1.0
    if (p3 - p1) / scale > bound:
        return "unresolved"
    if sign * (p2 - c2) / scale > bound:
        return "regressed"
    return "no regression"


def summarise(
    metrics: list[dict[str, str]], parent: list[dict], change: list[dict]
) -> list[str]:
    """One printable row per metric from the paired runs' JSON objects
    (``parent[k]`` and ``change[k]`` are pair ``k``)."""
    rows = [
        f"{'metric':<18} {'parent p50 [q1, q3]':<32} "
        f"{'change p50 [q1, q3]':<32} {'delta':>8} {'spread':>7}  "
        f"{'verdict (bound)':<22} wins  gap > parent IQR"
    ]
    for spec in metrics:
        name, sign = spec["name"], -1.0 if spec["better"] == "lower" else 1.0
        p = [run["metrics"][name]["value"] for run in parent]
        c = [run["metrics"][name]["value"] for run in change]
        (p1, p2, p3), (c1, c2, c3) = quartiles(p), quartiles(c)
        gains = [sign * (y - x) for x, y in zip(p, c, strict=True)]
        wins = sum(gain > 0 for gain in gains)
        beyond = abs(c2 - p2) > p3 - p1
        claim = beyond and sign * (c2 - p2) > 0 and wins >= 0.9 * len(p)
        judged = f"{verdict(spec['bound'], sign, p, c)} ({spec['bound']:.0%})"
        rows.append(
            f"{name:<18} {f'{p2:.6g} [{p1:.6g}, {p3:.6g}]':<32} "
            f"{f'{c2:.6g} [{c1:.6g}, {c3:.6g}]':<32} "
            f"{f'{(c2 - p2) / p2:+.1%}' if p2 else 'n/a':>8} "
            f"{f'{(p3 - p1) / abs(p2):.1%}' if p2 else 'n/a':>7}  {judged:<22} "
            f"{wins}/{len(p)} (lost {sum(gain < 0 for gain in gains)})  "
            f"{'yes' if beyond else 'no'}{'  <- claimable' if claim else ''}"
        )
    for side, runs in (("parent", parent), ("change", change)):
        failed, ops = (sum(r[k] for r in runs) for k in ("failed", "attempted"))
        rows.append(f"{side}: failed {failed} of {ops} ops")
    return rows


def run_once(tree: Path, workload: str, seed: int) -> dict:
    """One untraced benchmark run in ``tree``; its JSON last line."""
    command = ["python3", "-m", "bench", "--workload", workload,
               "--seed", str(seed), "--seconds", "20", "--trace", "0"]
    done = subprocess.run(command, cwd=tree, check=True, capture_output=True, text=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def workload_list(text: str) -> list[str]:
    """``"cold_skewed,cold_uniform"`` as its names, in order."""
    names = [name.strip() for name in text.split(",")]
    if not all(names) or len(set(names)) != len(names):
        raise argparse.ArgumentTypeError(
            f"expected distinct comma-separated workload names, got {text!r}"
        )
    return names


def main(argv: list[str] | None = None, run=run_once) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", type=Path, nargs=2, metavar="TREE",
                        help="the parent's checkout, then the change's")
    parser.add_argument("--workload", required=True, type=workload_list,
                        help="one name, or several separated by commas")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    spec = json.loads((args.trees[1] / "BENCHMARK.json").read_text())
    for workload in args.workload:
        runs: tuple[list[dict], list[dict]] = [], []
        for k in range(args.pairs):
            for side in (0, 1)[:: 1 if k % 2 == 0 else -1]:
                runs[side].append(run(args.trees[side], workload, args.seed))
                values = {m: v["value"] for m, v in runs[side][-1]["metrics"].items()}
                print(f"{workload} pair {k + 1} {args.trees[side]}: {values}", flush=True)
        print(f"{workload}, seed {args.seed}, {args.pairs} pairs")
        print("\n".join(summarise(spec["end_to_end"], *runs)), flush=True)


if __name__ == "__main__":
    main()
