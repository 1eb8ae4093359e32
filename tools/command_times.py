"""Each command's in-process median time in one checkout, with the commands
that set the benchmark's `op_ms_tail` and `op_ms_p50` marked.

    python3 tools/command_times.py TREE --workload rank_ideals \
        [--seed 7] [--passes 30]

TREE is a source checkout.  The workload's commands are built by TREE's
`perfbench/workloads.build` (imported, not changed) into a temporary
directory that is removed afterwards, and run in this process with
`--json` by TREE's `perfbench/run.run_in_process` (imported, not changed),
as the benchmark's in-process runs are: one untimed warm-up op, then
`--passes` passes over all commands, each in an order shuffled from the
seed.  Times are measured wall times, not scaled to a reference speed, so
compare two checkouts only between runs made one right after the other.

It prints one line per command, slowest first: its median in ms and its
label.  `op_ms_tail` is the largest median, and `op_ms_p50` the median of
the medians, which is the middle command's or the mean of the two middle
ones; the lines of those commands end in `<- op_ms_tail` or `<- op_ms_p50`.
Then a line gives both figures, and a last one the number of runs whose
exit code or report did not match the op.
"""

import argparse
import random
import statistics
import sys
import tempfile
from pathlib import Path


def summarize(times):
    """Summary lines of {label: [seconds, ...]}, one line per command."""
    medians = sorted(((statistics.median(runs) * 1000, label)
                      for label, runs in times.items()),
                     key=lambda item: (-item[0], item[1]))
    n = len(medians)
    # descending order puts the same one or two commands in the middle
    middle = {(n - 1) // 2, n // 2}
    lines = []
    for rank, (ms, label) in enumerate(medians):
        marks = [mark for mark, hit in (("op_ms_tail", rank == 0),
                                        ("op_ms_p50", rank in middle)) if hit]
        lines.append(f"{ms:9.3f}  {label}" + "".join(f"  <- {m}" for m in marks))
    p50 = statistics.median(ms for ms, _ in medians)
    lines.append(f"op_ms_p50 {p50:.3f} op_ms_tail {medians[0][0]:.3f}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("tree", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--passes", type=int, default=30)
    args = parser.parse_args(argv)
    tree = args.tree.resolve()
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    from run import run_in_process
    from workloads import WORKLOADS, build

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    rng = random.Random(args.seed)
    failed = 0
    with tempfile.TemporaryDirectory() as workdir:
        ops = build(args.workload, args.seed, Path(workdir))
        run_in_process(ops[0])
        times = {op.label: [] for op in ops}
        for _ in range(args.passes):
            for op in rng.sample(ops, len(ops)):
                wall, _cpu, problems = run_in_process(op)
                times[op.label].append(wall)
                failed += bool(problems)
    print(f"# {args.workload} seed {args.seed}: median of {args.passes} "
          f"in-process runs of {len(ops)} commands, in ms, unscaled")
    print("\n".join(summarize(times)))
    print(f"failed {failed} of {args.passes * len(ops)} runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
