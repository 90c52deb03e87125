"""Check the JSON result line that ends a ``bench/run.py`` run.

``bench/run.py`` exits 0 even when an output is wrong, so a smoke run must
read its verdict.  The last line of the run's stdout must be JSON with
``"correct": true`` and ``"failed": 0``.  With ``--per-layer``, every
``<workload>.<per_layer name>`` that ``BENCHMARK.json`` declares must also be
among its metrics, so that a renamed or deleted traced function cannot drop
its metrics silently (this needs a ``--workload all --trace 1`` run).

    python3 bench/run.py --workload all --seed 1 --seconds 2 --trace 1 > run.txt
    python3 tools/check_bench_result.py run.txt --per-layer BENCHMARK.json

Exits 0 when the run passes, 1 with the reason otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys


def problems(result: dict, benchmark: dict | None) -> list[str]:
    found = []
    if result.get("correct") is not True or result.get("failed") != 0:
        found.append(f"verdict: correct={result.get('correct')} failed={result.get('failed')}")
    if benchmark is not None:
        metrics = result.get("metrics", {})
        expected = [
            f"{workload['name']}.{metric['name']}"
            for workload in benchmark["workloads"]
            for metric in benchmark["per_layer"]
        ]
        missing = [name for name in expected if name not in metrics]
        if missing:
            found.append(f"{len(missing)} of {len(expected)} per-layer metrics missing: {', '.join(missing)}")
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("output", help="saved stdout of bench/run.py")
    parser.add_argument("--per-layer", metavar="BENCHMARK_JSON",
                        help="also require every declared per-layer metric of every workload")
    args = parser.parse_args(argv)

    with open(args.output, encoding="utf-8") as f:
        lines = [line for line in f.read().splitlines() if line.strip()]
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print(f"{args.output}: the last line is not the JSON result", file=sys.stderr)
        return 1
    benchmark = None
    if args.per_layer:
        with open(args.per_layer, encoding="utf-8") as f:
            benchmark = json.load(f)
    found = problems(result, benchmark)
    for line in found:
        print(f"benchmark {line}", file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
