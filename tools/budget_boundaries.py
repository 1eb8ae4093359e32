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
in this process through `detsing.cli.main`, by `tools/workload_ops.py`,
and prints one line: its label (the op label, or the arguments as given),
the smallest budget whose run does not stop with
"S-pair budget of ... exceeded" (exit 3), and the exit code at that budget.
A command that needs no pair prints 1.  The budget bounds each Buchberger
run, so a run that completes at b completes at every larger b, and the
search doubles the budget and then bisects.  A command that trips even the
default budget prints `>` and that budget.

To see which boundaries a change moves, run it on the parent and on the
change and diff the two outputs.
"""

import sys

from workload_ops import SEEDS, built, run, workload_option

from detsing.grobner import DEFAULT_SPAIR_BUDGET


def _run(argv, budget):
    # (exit code, whether the run stopped on the S-pair budget)
    code, _, err = run([*argv, "--spair-budget", str(budget)])
    return code, code == 3 and "S-pair budget of" in err


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
    with built(workload, SEEDS[0]) as (_, ops):
        for op in ops:
            yield _line(op.label, op.argv)


if __name__ == "__main__":
    argv = sys.argv[1:]
    if not argv or argv[0] == "--workload":
        lines = workload_lines(workload_option(argv) or "fixtures")
    else:
        lines = [_line(" ".join(argv), argv)]
    for line in lines:
        print(line)
