"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

import detsing.cli  # noqa: E402
import detsing.detvar  # noqa: E402
import detsing.grobner  # noqa: E402
import detsing.indexcalc  # noqa: E402
import detsing.polyalg  # noqa: E402

def small_ops(workload, seed, workdir):
    """The workload's cheapest ops, so a traced pass takes under a second."""
    ops = workloads.build(workload, seed, workdir)
    return ops if workload == "fixtures" else [op for op in ops if op.proc]


def test_untraced_run_leaves_the_program_alone(tmp_path):
    ops = small_ops("fixtures", 1, tmp_path)
    tally = run.Tally()
    run.one_pass(ops, random.Random(1), tally)
    assert tally.failed == 0
    assert detsing.detvar.buchberger is detsing.grobner.buchberger
    assert detsing.cli.buchberger is detsing.grobner.buchberger
    assert detsing.indexcalc.minors is detsing.polyalg.minors
    assert not hasattr(detsing.polyalg.Polynomial.shift, "__wrapped__")


def test_wrappers_cover_every_binding_and_are_removed(tmp_path):
    original = detsing.grobner.buchberger
    original_minors = detsing.polyalg.minors
    original_shift = detsing.polyalg.Polynomial.shift
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = detsing.grobner.buchberger
        assert wrapped is not original and wrapped.__wrapped__ is original
        for module in (detsing.detvar, detsing.indexcalc, detsing.cli,
                       detsing):
            assert module.buchberger is wrapped
        for module in (detsing.detvar, detsing.indexcalc, detsing.cli,
                       detsing):
            assert module.minors is detsing.polyalg.minors
        assert detsing.polyalg.minors is not original_minors
        assert detsing.detvar.rank_at_point.__wrapped__ is not None
        assert detsing.polyalg.Polynomial.shift is not original_shift
    finally:
        tracer.restore()
    assert detsing.grobner.buchberger is original
    assert detsing.detvar.buchberger is original
    assert detsing.cli.buchberger is original
    assert detsing.polyalg.minors is original_minors
    assert detsing.polyalg.Polynomial.shift is original_shift


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_deterministic_counters_repeat_for_a_seed(workload, tmp_path):
    seen = []
    for attempt in range(2):
        ops = small_ops(workload, 7, tmp_path / str(attempt))
        tally = run.Tally()
        tracer, _ = run.traced_pass(ops, random.Random(attempt), tally)
        assert tally.failed == 0, tally.examples
        layers = tracer.layer_metrics(len(ops))
        seen.append({key: layers[key] for key in tracing.DETERMINISTIC})
    assert seen[0] == seen[1]
    assert seen[0]["grobner.buchberger.grevlex.gens_in"] > 0
    assert seen[0]["polyalg.minors.out_terms"] > 0


def test_spans_nest_and_self_times_add_up(tmp_path):
    ops = small_ops("fixtures", 1, tmp_path)
    tracer, _ = run.traced_pass(ops, random.Random(1), run.Tally())
    roots = [s for s in tracer.spans if s[3] is None]
    assert [s[0] for s in roots] == ["cli.main"] * len(ops)
    assert {s[4] for s in roots} == set(range(len(ops)))
    layers = tracer.layer_metrics(len(ops))
    shares = sum(layers[f"{m}.share"] for m in tracing.MODULES)
    assert shares == pytest.approx(1.0)
    names = {name for name, _ in tracing.LAYER_METRICS}
    assert set(layers) == names


@pytest.mark.parametrize("workload", ["rank_ideals", "singular_points"])
def test_inputs_follow_the_seed(workload, tmp_path):
    def files(seed, sub):
        workloads.build(workload, seed, tmp_path / sub)
        return {p.name: p.read_text() for p in (tmp_path / sub).iterdir()}

    assert files(3, "a") == files(3, "b")
    assert files(3, "a") != files(4, "c")


def test_check_rejects_a_wrong_report():
    op = workloads.Op("verify", ("verify", "x.json"), 0,
                      {"identity.lhs": 5, "ledger.entries#len": 3})
    good = {"identity": {"lhs": 5}, "ledger": {"entries": [1, 2, 3]}}
    assert workloads.check(op, 0, good, "") == []
    assert workloads.check(op, 1, good, "")
    assert workloads.check(op, 0, {"identity": {"lhs": 6},
                                   "ledger": {"entries": [1, 2, 3]}}, "")
    assert workloads.check(op, 0, {"identity": {"lhs": 5}}, "")
    assert workloads.check(op, 0, None, "")
    assert workloads.check(op, 0, good, "resource limit: S-pair budget")


def test_scaled_times_share_one_factor_per_op():
    timed = list(run.scaled(lambda op: (op, op / 2, [f"op {op}"]), [0.2, 0.1]))
    assert [op for op, *_ in timed] == [0.2, 0.1]
    for op, times, measured, problems in timed:
        assert problems == [f"op {op}"]
        assert measured == [op, op / 2]
        assert times[0] == pytest.approx(2 * times[1])
        assert 0.2 < times[0] / measured[0] < 5


def test_setup_probe_times_up_to_the_first_op():
    start = time.time()
    seconds, problems = run.probe_setup("fixtures", 1)
    assert problems == []
    assert 0 < seconds < time.time() - start


def test_fails_without_the_program_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("run.py", "workloads.py", "tracing.py"):
        shutil.copy(HERE / name, bench / name)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fixtures",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
