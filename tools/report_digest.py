"""Digest of every report the benchmark workloads produce.

    python3 tools/report_digest.py > digest.txt
    python3 tools/report_digest.py MODEL.json ... > digest.txt

Run from any directory; the package is imported from this checkout's `src`
and the ops are built by `perfbench/workloads.build` (imported, not
changed) into a temporary directory that is removed afterwards, both
through `tools/workload_ops.py`.  Each op of the three workloads, at seeds
7 and 11, runs in this process through `detsing.cli.main`, once as text
and once with `--json`, and prints one line: workload, seed, label and
format, then the exit code and the sha256 of standard output and of
standard error.  The temporary directory's path is replaced by
`<workdir>` before hashing, so two checkouts give equal lines exactly when
their reports are byte-identical.  To check that a change keeps every
report, run it on the parent and on the change and diff the two outputs.

Given model files, it digests those instead: `analyze`, `groebner --ideal
minors` and `groebner --ideal lower` on each, as text and with `--json`,
one line per report, labelled by the path as given.
"""

import hashlib
import sys

from workload_ops import SEEDS, WORKLOADS, built, run

FORMATS = (("text", ()), ("json", ("--json",)))
MODEL_COMMANDS = (("analyze",), ("groebner", "--ideal", "minors"),
                  ("groebner", "--ideal", "lower"))


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _digest(argv, workdir=None):
    code, *texts = run(argv)
    if workdir is not None:
        texts = [text.replace(workdir, "<workdir>") for text in texts]
    return (code, *map(_sha, texts))


def digest_lines():
    """One line per (workload, seed, op, format), in a fixed order."""
    for workload in WORKLOADS:
        for seed in SEEDS:
            with built(workload, seed) as (workdir, ops):
                for op in ops:
                    for fmt, extra in FORMATS:
                        code, out, err = _digest((*op.argv, *extra), workdir)
                        yield (f"{workload} {seed} {op.label} [{fmt}] "
                               f"code={code} stdout={out} stderr={err}")


def model_lines(paths):
    """One line per (model, command, format), in argument order."""
    for path in paths:
        for command, *options in MODEL_COMMANDS:
            for fmt, extra in FORMATS:
                code, out, err = _digest((command, path, *options, *extra))
                label = " ".join((command, *options))
                yield (f"{path} {label} [{fmt}] "
                       f"code={code} stdout={out} stderr={err}")


if __name__ == "__main__":
    paths = sys.argv[1:]
    for line in model_lines(paths) if paths else digest_lines():
        print(line)
