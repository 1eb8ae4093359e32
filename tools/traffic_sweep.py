"""Statements of `src/detsing` that no benchmark op runs.

    python3 tools/traffic_sweep.py
    python3 tools/traffic_sweep.py --workload NAME

Run from any directory; the package is imported from this checkout's `src`.
The ops of the three benchmark workloads, or of the one named, at seeds 7
and 11, are built by `perfbench/workloads.build` (imported, not changed)
into a temporary directory that is removed afterwards.  Each op runs once
with `--json` in this process through `detsing.cli.main`, by the
benchmark's own `perfbench/run.run_in_process`, under the tracer of
`tools/line_sweep.py`.  It then prints `module:line: source` for every
statement of `src/detsing` that no op ran, and their count, as that tool
does.  A change confined to those statements cannot move any benchmark
figure.  An op whose exit code or report differs from what its workload
expects is named on standard error, and the exit code is then 1.
"""

import shutil
import sys
import tempfile
from pathlib import Path

from line_sweep import ROOT, main

sys.path.insert(0, str(ROOT / "perfbench"))

# `run_in_process` imports the package when it first runs, under the
# tracer, so the package's module-level statements count as run
from run import run_in_process  # noqa: E402
from workloads import WORKLOADS, build  # noqa: E402

SEEDS = (7, 11)


def run_ops(ops):
    """Run each op as the benchmark's in-process runs do; 1 when one goes
    wrong, else 0."""
    failed = 0
    for op in ops:
        *_, problems = run_in_process(op)
        if problems:
            failed = 1
            print(f"{op.label}: {'; '.join(problems)}", file=sys.stderr)
    return failed


def sweep_workloads(workloads):
    """Build the ops of `workloads` at each seed, sweep them, and print."""
    workdir = Path(tempfile.mkdtemp(prefix="traffic-sweep-"))
    try:
        ops = [op for workload in workloads for seed in SEEDS
               for op in build(workload, seed, workdir / f"{workload}-{seed}")]
        return main(lambda: run_ops(ops))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    argv = sys.argv[1:]
    if argv and (len(argv) != 2 or argv[0] != "--workload"
                 or argv[1] not in WORKLOADS):
        sys.exit(f"usage: [--workload {{{','.join(WORKLOADS)}}}]")
    sys.exit(sweep_workloads(argv[1:] or WORKLOADS))
