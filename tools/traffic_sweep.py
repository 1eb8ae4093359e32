"""Statements of `src/detsing` that no benchmark op runs.

    python3 tools/traffic_sweep.py
    python3 tools/traffic_sweep.py --workload NAME

Run from any directory; the package is imported from this checkout's `src`.
The ops of the three benchmark workloads, or of the one named, at seeds 7
and 11, are built by `perfbench/workloads.build` (imported, not changed)
into a temporary directory that is removed afterwards, through
`tools/workload_ops.py`.  Each op runs once with `--json` in this process
through `detsing.cli.main`, by the benchmark's own
`perfbench/run.run_in_process`, under the tracer of `tools/line_sweep.py`.
It then prints `module:line: source` for every statement of `src/detsing`
that no op ran, and their count, as that tool does.  A change confined to
those statements cannot move any benchmark figure.  An op whose exit code
or report differs from what its workload expects is named on standard
error, and the exit code is then 1.
"""

import sys

from line_sweep import main
from workload_ops import SEEDS, WORKLOADS, built, workload_option

# `run_in_process` imports the package when it first runs, under the
# tracer, so the package's module-level statements count as run
from run import run_in_process


def run_ops(workloads):
    """Build the ops of `workloads` at each seed and run each as the
    benchmark's in-process runs do; 1 when one goes wrong, else 0."""
    failed = 0
    for workload in workloads:
        for seed in SEEDS:
            with built(workload, seed) as (_, ops):
                for op in ops:
                    *_, problems = run_in_process(op)
                    if problems:
                        failed = 1
                        print(f"{op.label}: {'; '.join(problems)}",
                              file=sys.stderr)
    return failed


if __name__ == "__main__":
    workload = workload_option(sys.argv[1:])
    sys.exit(main(lambda: run_ops([workload] if workload else WORKLOADS)))
