"""The maintenance scripts under tools/ run as documented, and the
benchmark's tracer still finds every function it wraps."""

import ast
import hashlib
import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import fixture_path

from detsing import detvar, grobner
from detsing.polyalg import parse_polynomial

ROOT = Path(__file__).resolve().parent.parent
TOOLS = ROOT / "tools"


def run_tool(name, *args, cwd):
    done = subprocess.run([sys.executable, str(TOOLS / name), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0 and done.stderr == ""
    return done.stdout


def test_code_lines_lists_every_module_and_sums_them(tmp_path):
    lines = run_tool("code_lines.py", cwd=tmp_path).splitlines()
    rows = [line.split() for line in lines]
    *modules, (total, label) = rows
    assert label == "total"
    names = [name for _, name in modules]
    assert names == sorted(p.name for p in (ROOT / "src" / "detsing").glob("*.py"))
    assert int(total) == sum(int(count) for count, _ in modules)


SWEPT_MODULE = '''"""A module whose every kind of line the sweep must sort."""

import os


def used(x):
    """Both branches run."""
    if x:
        return 1
    return (
        2)


def unused():
    return 3


class Box:
    size = 1

    def method(self):
        try:
            return os.sep
        except ValueError:
            return None
'''

SWEPT_TESTS = '''from detsing.mod import Box, used


def test_used():
    assert used(1) == 1 and used(0) == 2
    assert Box().method()
'''


def test_line_sweep_lists_the_statements_no_test_runs(tmp_path):
    # a copy of the tool in a tree of its own sweeps that tree's package
    # and tests, never the real suite
    (tmp_path / "tools").mkdir()
    (tmp_path / "tools" / "line_sweep.py").write_text(
        (TOOLS / "line_sweep.py").read_text(encoding="utf-8"), encoding="utf-8")
    package = tmp_path / "src" / "detsing"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("", encoding="utf-8")
    (package / "mod.py").write_text(SWEPT_MODULE, encoding="utf-8")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_mod.py").write_text(SWEPT_TESTS,
                                                    encoding="utf-8")
    done = subprocess.run(
        [sys.executable, str(tmp_path / "tools" / "line_sweep.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout
    lines = done.stdout.splitlines()
    assert "1 passed" in lines[-5]
    # the docstrings, the def and class lines and the import are not
    # statements, and the `return` over two lines ran as one
    assert lines[-4:] == ["mod:15: return 3",
                          "mod:24: except ValueError:",
                          "mod:25: return None",
                          "3 statements never ran"]


def _body_lines(module, name):
    """First lines of the statements directly in function `name`'s body."""
    path = Path(module.__file__)
    tree = ast.parse(path.read_text(encoding="utf-8"))
    (node,) = [n for n in ast.walk(tree)
               if isinstance(n, ast.FunctionDef) and n.name == name]
    return [stmt.lineno for stmt in node.body[1:]]  # after the docstring


def test_traffic_sweep_lists_what_the_fixture_ops_leave_unrun(tmp_path):
    # every fixture eliminant comes from a basis element in the last
    # variable alone, so `_minimal_polynomial` never runs; `classify` does
    lines = run_tool("traffic_sweep.py", "--workload", "fixtures",
                     cwd=tmp_path).splitlines()
    assert re.fullmatch(r"\d+ statements never ran", lines[-1])
    listed = {line.split(" ", 1)[0] for line in lines[:-1]}
    assert all(f"grobner:{n}:" in listed
               for n in _body_lines(grobner, "_minimal_polynomial"))
    assert f"detvar:{_body_lines(detvar, 'classify')[0]}:" not in listed


def test_report_digest_of_a_model_repeats(tmp_path, run_cli):
    model = fixture_path("twisted_cubic.json")
    first = run_tool("report_digest.py", model, cwd=tmp_path)
    lines = first.splitlines()
    assert len(lines) == 6
    fields = re.compile(r" code=(\d+) stdout=([0-9a-f]{64}) stderr=([0-9a-f]{64})$")
    assert all(fields.search(line) for line in lines)
    # the first line digests the text report of `analyze`
    code, out, err = run_cli("analyze", model)
    assert lines[0] == (f"{model} analyze [text] code={code} "
                        f"stdout={hashlib.sha256(out.encode()).hexdigest()} "
                        f"stderr={hashlib.sha256(err.encode()).hexdigest()}")
    assert run_tool("report_digest.py", model, cwd=tmp_path) == first


def test_budget_boundaries_of_the_fixture_commands_and_of_an_argv(tmp_path,
                                                                  run_cli):
    lines = run_tool("budget_boundaries.py", cwd=tmp_path).splitlines()
    assert len(lines) == 13
    fields = re.compile(r" budget=(\d+) code=(\d+)$")
    assert all(fields.search(line) for line in lines)
    # both dimensions certify from the generators; the chart basis of the
    # maximal minors is certified by its Hilbert function and takes no pair,
    # and the lower one takes C(4, 2) for its four distinct 1-minors
    assert "verify twisted_cubic budget=1 code=0" in lines
    assert "groebner minors twisted_cubic budget=1 code=0" in lines
    assert "groebner lower twisted_cubic budget=6 code=0" in lines
    # exit 3 for an unsupported germ is not a tripped budget; the lower
    # basis of its three distinct 1-minors takes their 3 pairs
    assert "analyze non_quasihomogeneous budget=3 code=3" in lines
    argv = ("groebner", fixture_path("twisted_cubic.json"), "--ideal", "lower")
    (line,) = run_tool("budget_boundaries.py", *argv, cwd=tmp_path).splitlines()
    assert line == " ".join(argv) + " budget=6 code=0"
    # the boundary is where the command stops tripping the budget
    for budget, code in ((5, 3), (6, 0)):
        assert run_cli(*argv, "--spair-budget", budget)[0] == code
    assert run_tool("budget_boundaries.py", "--workload", "fixtures",
                    cwd=tmp_path).splitlines() == lines


def test_budget_boundary_across_a_widening(tmp_path, run_cli):
    # the form basis outgrows the first fields, which hold twice the
    # generator degree 3; the call widens them and goes on, so the budget
    # counts its 21 pairs once
    model = tmp_path / "widening.json"
    model.write_text(json.dumps({
        "schema_version": 1, "variables": ["x", "y", "z"], "matrix": [["x"]],
        "t": 1, "ambient": {"kind": "affine", "dim": 3}, "singularities": [],
        "form": {"kind": "explicit", "coefficients": [
            "x^3 + y*z^2", "x*y^2 + x*z^2", "y^3 - z^3"]}}))
    argv = ("groebner", str(model), "--ideal", "form")
    (line,) = run_tool("budget_boundaries.py", *argv, cwd=tmp_path).splitlines()
    assert line == " ".join(argv) + " budget=21 code=0"
    assert run_cli(*argv, "--spair-budget", 20)[0] == 3


def test_budget_boundaries_of_a_workload(tmp_path):
    # every singular grid certifies its principal rank ideal, and its lower
    # basis of the distinct [f, g] takes their one pair
    lines = run_tool("budget_boundaries.py", "--workload", "singular_points",
                     cwd=tmp_path).splitlines()
    assert len(lines) == 13
    assert all(re.fullmatch(r"analyze grid[456]_\d budget=1 code=3", line)
               for line in lines)
    done = subprocess.run([sys.executable, str(TOOLS / "budget_boundaries.py"),
                           "--workload", "nothing"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode != 0 and "usage" in done.stderr


@pytest.fixture
def workload_ops(monkeypatch):
    # the module puts this checkout's src and perfbench first on sys.path;
    # the copy of sys.path set here is undone after the test
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(
        "workload_ops", TOOLS / "workload_ops.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_workload_ops_built_removes_its_directory(workload_ops):
    with workload_ops.built("fixtures", 7) as (workdir, ops):
        assert Path(workdir).is_dir() and ops
    assert not Path(workdir).exists()
    with pytest.raises(KeyError):
        with workload_ops.built("singular_points", 7) as (workdir, ops):
            assert any(Path(workdir).iterdir())
            raise KeyError(ops[0].label)
    assert not Path(workdir).exists()


def test_workload_ops_run_returns_an_argparse_exit(workload_ops):
    # a missing positional argument makes argparse exit 2 with its usage;
    # `run` returns that code instead of letting SystemExit escape
    code, out, err = workload_ops.run(["verify"])
    assert (code, out) == (2, "")
    assert err.startswith("usage: detsing verify")


def test_benchmark_tracer_wraps_a_run_and_restores_it(run_cli):
    # perfbench/run.py --trace 1 wraps every function its tracer names; a
    # refactor that renames or deletes one fails here, not in the benchmark
    spec = importlib.util.spec_from_file_location(
        "tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        code, _, _ = run_cli("verify", fixture_path("twisted_cubic.json"))
        # verify certifies both dimensions and forms no S-polynomial, and
        # the chart basis of groebner --ideal minors is certified with none
        chart, _, _ = run_cli("groebner", fixture_path("twisted_cubic.json"),
                              "--ideal", "minors")
        # Buchberger forms its S-polynomials on packed terms, so the public
        # wrapper the tracer names is called here
        s = grobner.s_polynomial(*(parse_polynomial(t, ("x", "y"))
                                   for t in ("x^2 - y", "x*y - 1")))
    finally:
        tracer.restore()
    assert code == chart == 0
    assert str(s) == "-y^2 + x"
    names = {span[0] for span in tracer.spans}
    assert {"detvar.classify", "grobner.s_polynomial",
            "indexcalc.cstar_fixed_points"} <= names
    assert not hasattr(grobner.buchberger, "__wrapped__")


def canned_result(op_ms, ops_per_s, attempted, rss):
    """One result line of perfbench/run.py, as the benchmark prints it."""
    return json.dumps({
        "correct": True, "attempted": attempted, "failed": 0,
        "metrics": {"op_ms_p50": {"value": op_ms, "unit": "ms"},
                    "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
                    "peak_rss_mb": {"value": rss, "unit": "MB"}}})


def test_alternate_bench_summary_of_canned_runs():
    # no benchmark runs here: the summary of three pairs of result lines,
    # in which the change wins two pairs on the lower-is-better op_ms_p50
    # and every pair on the higher-is-better ops_per_s
    spec = importlib.util.spec_from_file_location(
        "alternate_bench", TOOLS / "alternate_bench.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    lines = [(canned_result(1.8, 550, 2000, 20.5), canned_result(1.6, 600, 2400, 20.7)),
             (canned_result(1.9, 540, 1900, 20.6), canned_result(1.7, 590, 2300, 20.8)),
             (canned_result(1.7, 560, 2100, 20.4), canned_result(1.75, 570, 2200, 20.6))]
    pairs = [tuple(json.loads(line) for line in pair) for pair in lines]
    summary = bench.summarize(pairs, [("op_ms_p50", "lower"), ("ops_per_s", "higher")])
    assert summary == [
        "3 pairs; median [quartiles] of parent and change, change in the "
        "median, pairs the change won",
        "op_ms_p50: 1.8 [1.75, 1.85] -> 1.7 [1.65, 1.725] -5.6% won 2/3 "
        "(lower is better)",
        "ops_per_s: 550 [545, 555] -> 590 [580, 595] +7.3% won 3/3 "
        "(higher is better)",
        "pair 0: parent attempted 2000 failed 0 peak_rss_mb 20.50; "
        "change attempted 2400 failed 0 peak_rss_mb 20.70",
        "pair 1: parent attempted 1900 failed 0 peak_rss_mb 20.60; "
        "change attempted 2300 failed 0 peak_rss_mb 20.80",
        "pair 2: parent attempted 2100 failed 0 peak_rss_mb 20.40; "
        "change attempted 2200 failed 0 peak_rss_mb 20.60"]
    # one pair has no spread: its quartiles are its value
    assert bench.quartiles([2.0]) == (2.0, 2.0, 2.0)


def test_command_times_summary_of_canned_timings():
    # no timed run here: the medians of canned seconds per command, slowest
    # first, with the tail and the one or two middle commands marked
    spec = importlib.util.spec_from_file_location(
        "command_times", TOOLS / "command_times.py")
    times = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(times)
    runs = {"analyze a": [0.0010, 0.0012, 0.0011],
            "groebner b": [0.0023, 0.0021, 0.0022],
            "analyze c": [0.0004, 0.0005, 0.0006]}
    assert times.summarize(runs) == [
        "    2.200  groebner b  <- op_ms_tail",
        "    1.100  analyze a  <- op_ms_p50",
        "    0.500  analyze c",
        "op_ms_p50 1.100 op_ms_tail 2.200"]
    # with an even count the p50 is the mean of the two middle medians
    runs["verify d"] = [0.0003]
    assert times.summarize(runs) == [
        "    2.200  groebner b  <- op_ms_tail",
        "    1.100  analyze a  <- op_ms_p50",
        "    0.500  analyze c  <- op_ms_p50",
        "    0.300  verify d",
        "op_ms_p50 0.800 op_ms_tail 2.200"]
    # one command sets both
    assert times.summarize({"only": [0.001]}) == [
        "    1.000  only  <- op_ms_tail  <- op_ms_p50",
        "op_ms_p50 1.000 op_ms_tail 1.000"]
