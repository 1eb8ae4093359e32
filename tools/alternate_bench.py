"""Alternating parent/change runs of the benchmark, summarized per metric.

    python3 tools/alternate_bench.py PARENT CHANGE --workload singular_points \
        [--pairs 5] [--seconds 20] [--seed 7]

PARENT and CHANGE are two source checkouts.  Each pair runs
`python3 perfbench/run.py --workload W --seed S --seconds T --trace 0` once
in each checkout, one after the other, the parent first in even pairs and
the change first in odd ones, so that a drift of the machine's speed
favours neither side.  Both runs of a pair see the same environment, so
the two trees must be in the same bytecode-cache state (for example both
without `__pycache__` under PYTHONDONTWRITEBYTECODE=1).

After the runs it prints, for every end-to-end metric of the change's
`BENCHMARK.json`, the parent's and the change's medians and quartiles, the
change in the median, and the number of pairs in which the change was
better; then each run's `attempted`, `failed` and `peak_rss_mb`.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(checkout, workload, seed, seconds):
    """The JSON result line of one benchmark run in `checkout`."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def quartiles(values):
    """(first quartile, median, third quartile) of a non-empty list."""
    if len(values) == 1:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def summarize(pairs, metrics):
    """Summary lines of (parent, change) result pairs.

    `metrics` lists (name, better) with better "lower" or "higher", as the
    `end_to_end` entries of BENCHMARK.json give them.
    """
    lines = [f"{len(pairs)} pairs; median [quartiles] of parent and change, "
             "change in the median, pairs the change won"]
    for name, better in metrics:
        sides = [[result["metrics"][name]["value"] for result in side]
                 for side in zip(*pairs)]
        (p1, pm, p3), (c1, cm, c3) = map(quartiles, sides)
        won = sum(c < p if better == "lower" else c > p for p, c in zip(*sides))
        delta = f"{(cm / pm - 1) * 100:+.1f}%" if pm else "n/a"
        lines.append(f"{name}: {pm:.4g} [{p1:.4g}, {p3:.4g}] -> "
                     f"{cm:.4g} [{c1:.4g}, {c3:.4g}] {delta} "
                     f"won {won}/{len(pairs)} ({better} is better)")
    for i, pair in enumerate(pairs):
        lines.append(f"pair {i}: " + "; ".join(
            f"{side} attempted {result['attempted']} failed {result['failed']} "
            f"peak_rss_mb {result['metrics']['peak_rss_mb']['value']:.2f}"
            for side, result in zip(SIDES, pair)))
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = [(m["name"], m["better"]) for m in spec["end_to_end"]]
    pairs = []
    for i in range(args.pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        results = {side: run_once(getattr(args, side), args.workload, args.seed,
                                  args.seconds)
                   for side in order}
        pairs.append((results["parent"], results["change"]))
        print(f"# pair {i} done", file=sys.stderr, flush=True)
    print("\n".join(summarize(pairs, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
