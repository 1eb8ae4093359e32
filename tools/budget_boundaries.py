"""Smallest `--spair-budget` at which each command stops tripping the budget.

    python3 tools/budget_boundaries.py > boundaries.txt
    python3 tools/budget_boundaries.py --workload NAME > boundaries.txt
    python3 tools/budget_boundaries.py COMMAND MODEL.json [OPTION ...]

Run from any directory; the package is imported from this checkout's `src`.
With no arguments it runs the `fixtures` workload's commands (the README
and acceptance commands on the bundled fixtures); with `--workload NAME` it
runs the commands of that benchmark workload, at seed 7 for the seeded
ones.  The commands are built by `perfbench/workloads.build`, imported, not
changed, into a temporary directory that is removed afterwards.  Given
other arguments, it runs them as one detsing command.  Each command runs
in this process through
`detsing.cli.main` and prints one line: its label (the op label, or the
arguments as given), the smallest budget whose run does not stop with
"S-pair budget of ... exceeded" (exit 3), and the exit code at that budget.
A command that needs no pair prints 1.  The budget bounds each Buchberger
run, so a run that completes at b completes at every larger b, and the
search doubles the budget and then bisects.  A command that trips even the
default budget prints `>` and that budget.

To see which boundaries a change moves, run it on the parent and on the
change and diff the two outputs.
"""

import contextlib
import io
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from detsing.cli import main  # noqa: E402
from detsing.grobner import DEFAULT_SPAIR_BUDGET  # noqa: E402
from workloads import WORKLOADS, build  # noqa: E402

SEED = 7  # the seed of the seeded workloads' models


def _run(argv, budget):
    # (exit code, whether the run stopped on the S-pair budget)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main([*argv, "--spair-budget", str(budget)])
        except SystemExit as stop:
            code = stop.code
    return code, code == 3 and "S-pair budget of" in err.getvalue()


def boundary(argv):
    """(smallest budget that completes, or None past the default; exit code)."""
    code, tripped = _run(argv, DEFAULT_SPAIR_BUDGET)
    if tripped:
        return None, code
    low, high = 0, 1  # the budget `low` trips, unless it is 0
    while True:
        code, tripped = _run(argv, high)
        if not tripped:
            break
        low, high = high, min(2 * high, DEFAULT_SPAIR_BUDGET)
    while high - low > 1:
        mid = (low + high) // 2
        mid_code, tripped = _run(argv, mid)
        if tripped:
            low = mid
        else:
            high, code = mid, mid_code
    return high, code


def _line(label, argv):
    budget, code = boundary(argv)
    shown = f">{DEFAULT_SPAIR_BUDGET}" if budget is None else budget
    return f"{label} budget={shown} code={code}"


def workload_lines(workload="fixtures"):
    """One line per command of a benchmark workload, in workload order."""
    workdir = tempfile.mkdtemp(prefix="budget-boundaries-")
    try:
        for op in build(workload, SEED, workdir):
            yield _line(op.label, op.argv)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    argv = sys.argv[1:]
    if argv[:1] == ["--workload"]:
        if len(argv) != 2 or argv[1] not in WORKLOADS:
            sys.exit(f"usage: --workload {{{','.join(WORKLOADS)}}}")
        lines = workload_lines(argv[1])
    else:
        lines = [_line(" ".join(argv), argv)] if argv else workload_lines()
    for line in lines:
        print(line)
