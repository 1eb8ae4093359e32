"""What the measurement tools share: the benchmark workloads' ops and one
detsing command run in this process.

Importing it puts this checkout's `src` and `perfbench` first on
`sys.path`.  The ops are built by `perfbench/workloads.build` (imported,
not changed).  `report_digest.py`, `budget_boundaries.py` and
`traffic_sweep.py` use it; `command_times.py` does not, since it imports
the `perfbench` of another checkout.
"""

import contextlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (7, 11)  # the seeds of the seeded workloads' models

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS, build  # noqa: E402


@contextlib.contextmanager
def built(workload, seed):
    """(workdir, ops) of `workload` at `seed`, built into a temporary
    directory that is removed when the block ends, however it ends."""
    with tempfile.TemporaryDirectory(prefix=f"{workload}-{seed}-") as workdir:
        yield workdir, build(workload, seed, workdir)


def run(argv):
    """(exit code, stdout, stderr) of one command through `detsing.cli.main`,
    in this process; an argparse exit is returned, not raised."""
    # imported at the first call, so that a tracer set before it sees the
    # package's module-level statements run
    from detsing.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as stop:
            code = stop.code
    return code, out.getvalue(), err.getvalue()


def workload_option(argv):
    """The workload that the arguments `[--workload NAME]` name, or None
    when there are none; exits with a usage line on anything else."""
    if argv and (len(argv) != 2 or argv[0] != "--workload"
                 or argv[1] not in WORKLOADS):
        sys.exit(f"usage: [--workload {{{','.join(WORKLOADS)}}}]")
    return argv[1] if argv else None
