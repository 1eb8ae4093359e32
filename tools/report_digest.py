"""Digest of every report the benchmark workloads produce.

    python3 tools/report_digest.py > digest.txt
    python3 tools/report_digest.py MODEL.json ... > digest.txt

Run from any directory; the package is imported from this checkout's `src`
and the ops are built by `perfbench/workloads.build` (imported, not
changed) into a temporary directory that is removed afterwards.  Each op of
the three workloads, at seeds 7 and 11, runs in this process through
`detsing.cli.main`, once as text and once with `--json`, and prints one
line: workload, seed, label and format, then the exit code and the sha256
of standard output and of standard error.  The temporary directory's path
is replaced by `<workdir>` before hashing, so two checkouts give equal
lines exactly when their reports are byte-identical.  To check that a
change keeps every report, run it on the parent and on the change and
diff the two outputs.

Given model files, it digests those instead: `analyze`, `groebner --ideal
minors` and `groebner --ideal lower` on each, as text and with `--json`,
one line per report, labelled by the path as given.
"""

import contextlib
import hashlib
import io
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (7, 11)
FORMATS = (("text", ()), ("json", ("--json",)))
MODEL_COMMANDS = (("analyze",), ("groebner", "--ideal", "minors"),
                  ("groebner", "--ideal", "lower"))

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from detsing.cli import main  # noqa: E402
from workloads import WORKLOADS, build  # noqa: E402


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _run(argv, workdir=None):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as stop:
            code = stop.code
    texts = out.getvalue(), err.getvalue()
    if workdir is not None:
        texts = [text.replace(workdir, "<workdir>") for text in texts]
    return (code, *map(_sha, texts))


def digest_lines():
    """One line per (workload, seed, op, format), in a fixed order."""
    for workload in WORKLOADS:
        for seed in SEEDS:
            workdir = tempfile.mkdtemp(prefix="report-digest-")
            try:
                for op in build(workload, seed, workdir):
                    for fmt, extra in FORMATS:
                        code, out, err = _run((*op.argv, *extra), workdir)
                        yield (f"{workload} {seed} {op.label} [{fmt}] "
                               f"code={code} stdout={out} stderr={err}")
            finally:
                shutil.rmtree(workdir, ignore_errors=True)


def model_lines(paths):
    """One line per (model, command, format), in argument order."""
    for path in paths:
        for command, *options in MODEL_COMMANDS:
            for fmt, extra in FORMATS:
                code, out, err = _run((command, path, *options, *extra))
                label = " ".join((command, *options))
                yield (f"{path} {label} [{fmt}] "
                       f"code={code} stdout={out} stderr={err}")


if __name__ == "__main__":
    paths = sys.argv[1:]
    for line in model_lines(paths) if paths else digest_lines():
        print(line)
