"""Compare two checkouts on one benchmark workload in alternating pairs.

    python3 tools/bench_pairs.py PARENT CHANGE --workload dse_search --pairs 10

The host's speed drifts, so one run of each side shows little.  This runs
``bench/run.py --trace 0`` in each checkout (its own ``bench/run.py`` and
``src``), pair by pair, with the same seed for both runs of a pair and the
order of the two runs swapped from one pair to the next.  Each run lasts the
``run_seconds`` of CHANGE's ``BENCHMARK.json``.  It prints every end-to-end
metric that file declares, and the share of failed ops (``fail_ratio``), per
pair, then per metric the parent's and the change's medians and quartiles,
the median change, how many pairs the change won (a tie is not a win) and a
verdict, in the metric's ``better`` direction:

  gain        the change won at least 9 of 10 pairs and its median is better
              than the parent's by more than the parent's quartile spread;
  worse       its median is worse than the parent's by more than the metric's
              ``bound`` in BENCHMARK.json, a share of the parent's median
              (``fail_ratio`` has bound 0: any rise is worse);
  unresolved  neither.

The runs inherit the environment, so the ``PYTHONDONTWRITEBYTECODE`` setting
is printed too.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Callable

# (checkout, workload, seed, seconds) -> {metric name: value}
Runner = Callable[[Path, str, int, float], dict]


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The end-to-end metrics of one ``bench/run.py`` run in ``checkout``."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", repr(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    metrics["fail_ratio"] = result["failed"] / result["attempted"]
    return metrics


def benchmark(checkout: Path) -> tuple[float, list[tuple[str, str, float]]]:
    """The run length the checkout's BENCHMARK.json sets, and the (name, better, bound) of
    each end-to-end metric it declares."""
    with open(checkout / "BENCHMARK.json", encoding="utf-8") as f:
        declared = json.load(f)
    return declared["run_seconds"], [(m["name"], m["better"], m["bound"]) for m in declared["end_to_end"]]


def pairs(parent: Path, change: Path, workload: str, n: int, seconds: float, seed: int,
          run: Runner) -> list[tuple[dict, dict]]:
    """``n`` (parent, change) metric pairs; pair i uses seed ``seed + i`` and the even
    pairs run the parent first, the odd pairs the change first."""
    out = []
    for i in range(n):
        sides = {}
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            sides[side] = run(parent if side == "parent" else change, workload, seed + i, seconds)
        out.append((sides["parent"], sides["change"]))
    return out


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _verdict(wins: int, n: int, parent: tuple[float, float, float], change_median: float,
             better: str, bound: float) -> str:
    o1, om, o3 = parent
    gain = (change_median - om) if better == "higher" else (om - change_median)
    if 10 * wins >= 9 * n and gain > o3 - o1:
        return "gain"
    if -gain > bound * abs(om):
        return "worse"
    return "unresolved"


def report(results: list[tuple[dict, dict]], metrics: list[tuple[str, str, float]]) -> list[str]:
    """The lines printed for the pairs: each pair, then one summary line per metric."""
    lines = []
    for i, (p, c) in enumerate(results):
        cells = "  ".join(f"{name}={p[name]:.4g}->{c[name]:.4g}" for name, *_ in metrics if name in p and name in c)
        lines.append(f"pair {i + 1}: {cells}")
    for name, better, bound in metrics:
        both = [(p[name], c[name]) for p, c in results if name in p and name in c]
        if not both:
            continue
        old, new = [p for p, _ in both], [c for _, c in both]
        wins = sum((c < p) if better == "lower" else (c > p) for p, c in both)
        (o1, om, o3), (n1, nm, n3) = _quartiles(old), _quartiles(new)
        change = f"{(nm - om) / om:+.1%}" if om else "n/a"
        lines.append(f"{name} ({better} is better, bound {bound:g}): parent {om:.4g} [{o1:.4g}, {o3:.4g}]  "
                     f"change {nm:.4g} [{n1:.4g}, {n3:.4g}]  median change {change}  "
                     f"change won {wins} of {len(both)}  "
                     f"verdict: {_verdict(wins, len(both), (o1, om, o3), nm, better, bound)}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair (default 1)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    seconds, metrics = benchmark(args.change)
    print(f"PYTHONDONTWRITEBYTECODE={os.environ.get('PYTHONDONTWRITEBYTECODE', '(unset)')}")
    results = pairs(args.parent, args.change, args.workload, args.pairs, seconds, args.seed, run_bench)
    print("\n".join(report(results, metrics + [("fail_ratio", "lower", 0.0)])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
