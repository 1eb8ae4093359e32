"""Benchmark of the detsing command line, end to end and layer by layer.

    python3 perfbench/run.py --workload fixtures --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from `src`
and launched as `python -c "from detsing.cli import main_script; ..."` with
`PYTHONPATH=src`, so nothing needs installing.  Inputs are generated from
the seed into `.perfbench/` and removed afterwards; `--trace 1` leaves its
spans there as `trace-<workload>-<seed>.json`.

Load model: a closed loop with one client.  One command runs at a time, in
this process through `detsing.cli.main`, or as one child process.  Every
command's exit code and JSON report are checked against values known from
the construction of its input (see workloads.py).

`--trace 0` prints the end-to-end metrics; `--trace 1` runs one untraced
and one traced pass, prints the per-layer metrics (see tracing.py) and the
tracing overhead.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

from tracing import LAYER_METRICS, Tracer
from workloads import WORKLOADS, Op, build, check

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

# A run is whole rounds.  A round is shuffled passes over the workload's
# commands in this process, at least one and until they took
# IN_PROCESS_ROUND_S, then one pass over its process commands and one set-up
# probe.  The run stops after the first round that ends with both MIN_ROUNDS
# and --seconds reached.
MIN_ROUNDS = 5
IN_PROCESS_ROUND_S = 2.5
IMPORT_PROBES = 7
CHILD_TIMEOUT_S = 60
LAUNCH = "from detsing.cli import main_script; main_script()"

# Other tenants of the host slow this machine's cores by up to 2x, for
# seconds to minutes at a time, and thread CPU time slows with wall time.
# So every timed command runs between two runs of a reference that does not
# involve detsing (see `scaled`), and its times are scaled to the
# reference's speed on an idle 2-vCPU x86-64 virtual machine under Python
# 3.11: a small kernel for in-process commands (0.66 ms, best of three) and
# a bare interpreter start for fresh processes (40 ms), which tracks
# process start-up far better than the kernel does.
REFERENCE_S = 0.00066
REFERENCE_START_S = 0.040
_REF_A = {(i, j, 5 - i - j): Fraction(2 * i + 1, j + 3)
          for i in range(5) for j in range(5 - i)}
_REF_B = {(j, i, 5 - i - j): Fraction(j - 2, 2 * i + 1)
          for i in range(5) for j in range(5 - i)}


def _reference_kernel():
    # the product of two polynomials stored as {exponents: Fraction}, the
    # kind of work detsing does, written without any detsing code
    out = {}
    for ea, ca in _REF_A.items():
        for eb, cb in _REF_B.items():
            e = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
            c = out.get(e, 0) + ca * cb
            if c:
                out[e] = c
            else:
                out.pop(e, None)
    return sorted(out)


def kernel_s():
    """Best of three wall times of the reference kernel, in seconds."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        _reference_kernel()
        best = min(best, time.perf_counter() - start)
    return best


def bare_start_s():
    """Wall seconds of one bare interpreter start."""
    return _interpreter_ms("pass") / 1000


IN_PROCESS = (kernel_s, REFERENCE_S)
FRESH_PROCESS = (bare_start_s, REFERENCE_START_S)


def scaled(runner, ops, reference=IN_PROCESS):
    """Yield (op, times at the reference speed, measured times, problems).

    `reference` is a timing function and its time at the reference speed.
    It runs before the first op and after each op, and each op's times are
    scaled by that time over the mean of the runs just before and after it.
    """
    timer, nominal = reference
    before = timer()
    for op in ops:
        *times, problems = runner(op)
        after = timer()
        factor = 2 * nominal / (before + after)
        yield op, [t * factor for t in times], times, problems
        before = after


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _parse_report(stdout):
    try:
        report = json.loads(stdout)
    except ValueError:
        return None
    return report if isinstance(report, dict) else None


def run_in_process(op):
    """(wall s, thread CPU s, problems) of one command through cli.main."""
    import detsing.cli as cli

    out, err = io.StringIO(), io.StringIO()
    argv = [*op.argv, "--json"]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start, cpu_start = time.perf_counter(), time.thread_time()
        try:
            code = cli.main(argv)
        except SystemExit as stop:
            code = stop.code
        except Exception:
            code = None
            err.write(traceback.format_exc())
        cpu = time.thread_time() - cpu_start
        wall = time.perf_counter() - start
    return wall, cpu, check(op, code, _parse_report(out.getvalue()),
                            err.getvalue())


def run_process(op):
    """(wall s, problems) of one command as a fresh interpreter process."""
    cmd = [sys.executable, "-c", LAUNCH, *op.argv, "--json"]
    start = time.perf_counter()
    try:
        done = subprocess.run(cmd, env=_child_env(), capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return time.perf_counter() - start, ["timed out"]
    wall = time.perf_counter() - start
    return wall, check(op, done.returncode, _parse_report(done.stdout),
                       done.stderr)


def probe_setup(workload, seed):
    """(s, problems) from spawning a fresh benchmark process to its first op.

    The probe prints the time at which its warm-up op ended, which is when
    a measured run would start its first timed op.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           workload, "--seed", str(seed), "--setup-probe"]
    start = time.time()
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return time.time() - start, ["timed out"]
    try:
        ready = float(done.stdout.split()[-1])
    except (IndexError, ValueError):
        ready = time.time()
    problems = [] if done.returncode == 0 else [done.stderr.strip()[-300:]]
    return ready - start, problems


class Tally:
    """Attempted and failed commands, with the first few failures kept."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.examples = []

    def add(self, label, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.examples) < 5:
                self.examples.append(f"{label}: {'; '.join(problems)}")


def one_pass(ops, rng, tally, tracer=None):
    """Wall seconds at the reference speed of one shuffled in-process pass
    over the ops, by label."""
    def run(op):
        if tracer is not None:
            tracer.op_id = len(results)
        return run_in_process(op)

    results = {}
    shuffled = rng.sample(ops, len(ops))
    for op, (wall, _cpu), _, problems in scaled(run, shuffled):
        tally.add(op.label, problems)
        results[op.label] = wall
    return results


def _interpreter_ms(code):
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=_child_env(), check=True,
                   capture_output=True, timeout=CHILD_TIMEOUT_S)
    return (time.perf_counter() - start) * 1000


def _median_ms(samples, index):
    """Per command, the median of one of its times in ms: scaled, measured."""
    return ([statistics.median(s[index] for s, _ in runs) * 1000
             for runs in samples.values()],
            [statistics.median(m[index] for _, m in runs) * 1000
             for runs in samples.values()])


def measure(workload, seed, seconds, ops, tally):
    """End-to-end metrics of untraced runs."""
    rng = random.Random(seed)
    proc_ops = [op for op in ops if op.proc]
    probe = Op("set-up probe", (), 0)
    inproc = {op.label: [] for op in ops}
    procs = {op.label: [] for op in proc_ops}
    setups = {probe.label: []}
    factors = []

    def record(results, timed):
        for op, times, measured, problems in timed:
            tally.add(op.label, problems)
            results[op.label].append((times, measured))
            factors.append(times[0] / measured[0])

    start = time.perf_counter()
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() - start < seconds:
        round_start = time.perf_counter()
        while time.perf_counter() - round_start < IN_PROCESS_ROUND_S:
            record(inproc, scaled(run_in_process, rng.sample(ops, len(ops))))
        record(procs, scaled(run_process, rng.sample(proc_ops, len(proc_ops)),
                             FRESH_PROCESS))
        record(setups, scaled(lambda _: probe_setup(workload, seed), [probe],
                              FRESH_PROCESS))
        rounds += 1

    op_ms, op_measured = _median_ms(inproc, 0)
    cpu_ms, _ = _median_ms(inproc, 1)
    proc_ms, proc_measured = _median_ms(procs, 0)
    (setup_ms,), (setup_measured_ms,) = _median_ms(setups, 0)
    passes = len(next(iter(inproc.values())))
    print(f"# {workload} seed {seed}: {rounds} rounds with {passes} passes "
          f"over {len(ops)} commands in process, {len(proc_ops)} commands as "
          f"fresh processes and one set-up probe, in "
          f"{time.perf_counter() - start:.1f} s")
    print("# times are each command's median over its runs, at the "
          "reference speed; scale factors "
          f"{min(factors):.3f}-{max(factors):.3f}, median "
          f"{statistics.median(factors):.3f}")
    print(f"# measured: op_ms_p50 {statistics.median(op_measured):.3f}, "
          f"op_ms_tail {max(op_measured):.3f}, proc_ms_p50 "
          f"{statistics.median(proc_measured):.3f}, setup_s "
          f"{setup_measured_ms / 1000:.4f}")
    print(f"# op_ms_tail and proc_ms_tail are the slowest of {len(op_ms)} "
          f"and {len(proc_ms)} commands")
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (setup_ms / 1000, "s"),
        "op_ms_p50": (statistics.median(op_ms), "ms"),
        "op_ms_tail": (max(op_ms), "ms"),
        "op_cpu_ms_p50": (statistics.median(cpu_ms), "ms"),
        "ops_per_s": (len(op_ms) * 1000 / sum(op_ms), "1/s"),
        "proc_ms_p50": (statistics.median(proc_ms), "ms"),
        "proc_ms_tail": (max(proc_ms), "ms"),
        "peak_rss_mb": (peak_kib / 1024, "MB"),
    }


def traced_pass(ops, rng, tally):
    """One pass with every traced function wrapped; the tracer and results."""
    tracer = Tracer()
    tracer.install()
    try:
        results = one_pass(ops, rng, tally, tracer)
    finally:
        tracer.restore()
    return tracer, results


def measure_layers(workload, seed, ops, tally, spans_path):
    """Per-layer metrics of one traced pass, next to one untraced pass."""
    rng = random.Random(seed)
    plain = one_pass(ops, rng, tally)
    tracer, traced = traced_pass(ops, rng, tally)
    bare, imported = [], []
    for _ in range(IMPORT_PROBES):
        bare.append(_interpreter_ms("pass"))
        imported.append(_interpreter_ms("import detsing.cli"))
    layers = tracer.layer_metrics(len(ops))
    layers["cli.import_ms"] = (statistics.median(imported)
                               - statistics.median(bare))
    plain_ms = sum(plain.values()) * 1000 / len(ops)
    traced_ms = sum(traced.values()) * 1000 / len(ops)
    print(f"# {workload} seed {seed}: one pass of {len(ops)} commands "
          f"untraced and one traced; {len(tracer.spans)} spans written to "
          f"{spans_path}")
    print(f"# tracing overhead: {traced_ms - plain_ms:.3f} ms per op "
          f"({(traced_ms / plain_ms - 1) * 100:.1f}% of {plain_ms:.3f} ms), "
          "at the reference speed")
    spans_path.write_text(json.dumps(tracer.dump()), encoding="utf-8")
    units = dict(LAYER_METRICS)
    return {name: (value, units[name]) for name, value in layers.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "detsing" / "cli.py").is_file():
        print(f"error: no detsing sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import detsing.cli  # noqa: F401  part of the measured set-up

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    tally = Tally()
    try:
        ops = build(args.workload, args.seed, workdir)
        *_, problems = run_in_process(ops[0])  # untimed warm-up op
        tally.add(f"warm-up {ops[0].label}", problems)
        if args.setup_probe:
            if problems:
                print("; ".join(problems), file=sys.stderr)
                return 1
            print(repr(time.time()))
            return 0
        if args.trace:
            spans = WORK / f"trace-{args.workload}-{args.seed}.json"
            metrics = measure_layers(args.workload, args.seed, ops, tally,
                                     spans)
        else:
            metrics = measure(args.workload, args.seed, args.seconds, ops,
                              tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for example in tally.examples:
        print(f"# FAILED {example}")
    print(f"# failed_ratio {tally.failed}/{tally.attempted} = "
          f"{tally.failed / tally.attempted}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
