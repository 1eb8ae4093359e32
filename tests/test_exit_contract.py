"""Exit-code contract of the command line tool under mutated and generated inputs.

Every run exits 0 (ok), 1 (identity violated), 2 (input error) or 3
(unsupported or out of budget); exit 1 comes only with a report whose
identity status is "violated", and nothing but argparse's usage exit escapes
`main`.  Exit 4 (internal error) marks a fault of the program, so it fails
these tests.  The inputs are the bundled fixtures with one or two entries
dropped, swapped for small atoms, or duplicated, and small well-formed
models drawn afresh.  Files that `json.dumps` cannot write (bytes that are
not UTF-8, integers past the interpreter's digit limit, arrays nested past
the recursion limit) run as fresh processes.
"""

import contextlib
import copy
import io
import json
import os
import subprocess
import sys
from importlib.resources import files
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import detsing
from conftest import fixture_path
from detsing import cli
from detsing.cli import main

FIXTURES = {
    path.name: json.loads(path.read_text(encoding="utf-8"))
    for path in (files("detsing") / "fixtures").iterdir()
    if path.name.endswith(".json")
}
# "x0^²" and the 5000-digit string reach the polynomial tokenizer's
# non-ASCII digits and the interpreter's limit on digits in int(str)
ATOMS = (None, True, False, 0, 1, -1, 2, 3, "", "x0", "x1^2", "0",
         "[0:0:0:0:1]", "(0, 0)", "x0^²", "9" * 5000, [], {})
COMMANDS = (("analyze",), ("verify",), ("euler",), ("index",),
            ("groebner", "--ideal", "minors"), ("groebner", "--ideal", "lower"),
            ("groebner", "--ideal", "form"))
# a tight budget keeps every run short; exceeding it exits 3
BUDGET = "400"


def _positions(value, path=()):
    """(path, whether the parent is a list) for every entry below the root."""
    if isinstance(value, dict):
        items, in_list = value.items(), False
    elif isinstance(value, list):
        items, in_list = enumerate(value), True
    else:
        return
    for key, item in items:
        yield path + (key,), in_list
        yield from _positions(item, path + (key,))


@st.composite
def mutated_inputs(draw):
    # a seeded generator spreads the picks evenly over the positions
    rng = draw(st.randoms(use_true_random=True))
    name = rng.choice(sorted(FIXTURES))
    data = copy.deepcopy(FIXTURES[name])
    for _ in range(rng.randint(1, 2)):
        op = rng.choice(("drop", "atom", "atom", "duplicate"))
        positions = list(_positions(data))
        if op == "duplicate":
            positions = [p for p in positions if p[1]]
        if not positions:
            break
        # depth first, so the few top-level entries are hit as often as
        # the many matrix cells
        depth = rng.choice(sorted({len(p) for p, _ in positions}))
        path, in_list = rng.choice([p for p in positions if len(p[0]) == depth])
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        if op == "drop":
            del parent[key]
        elif op == "atom":
            # most swaps keep the JSON type, so the input can stay valid
            kind = type(parent[key])
            atoms = [a for a in ATOMS if type(a) is kind]
            if not atoms or rng.random() < 0.25:
                atoms = ATOMS
            parent[key] = copy.deepcopy(rng.choice(atoms))
        else:
            parent.insert(key, copy.deepcopy(parent[key]))
    points = [s["point"] for s in FIXTURES[name]["singularities"]]
    return name, data, points


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("mutated")


@settings(max_examples=500)
@given(case=mutated_inputs(), command=st.sampled_from(COMMANDS),
       pick=st.integers(0, 3))
@example(case=("twisted_cubic_wrong_chi.json",
               FIXTURES["twisted_cubic_wrong_chi.json"], ["[0:0:0:0:1]"]),
         command=("verify",), pick=0)
def test_exit_code_contract(workdir, case, command, pick):
    name, data, points = case
    at = points[pick % len(points)] if points else "[1:0:0]"
    check_contract(workdir / name, data, command, at)


def check_contract(path, data, command, at):
    path.write_text(json.dumps(data), encoding="utf-8")
    argv = [command[0], str(path), *command[1:], "--json",
            "--spair-budget", BUDGET]
    if command[0] == "index":
        argv += ["--at", at]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as stop:
            assert stop.code == 2
            return
    assert code in (0, 1, 2, 3)
    if code == 1:
        assert json.loads(out.getvalue())["identity"]["status"] == "violated"


def _entry(draw, nvars, degrees):
    """An integer polynomial string of up to three terms, each of a degree
    drawn from `degrees`."""
    text = ""
    for _ in range(draw(st.integers(0, 3))):
        c = draw(st.integers(-3, 3).filter(bool))
        degree = draw(st.sampled_from(degrees))
        factors = [str(abs(c))] + [
            f"x{draw(st.integers(0, nvars - 1))}" for _ in range(degree)]
        text += (" - " if c < 0 else " + ") + "*".join(factors)
    return text.removeprefix(" + ").strip() or "0"


@st.composite
def small_models(draw):
    """A well-formed model: up to 3 x 3, 2 to 4 variables, linear or
    quadratic integer entries (homogeneous of one degree when projective),
    and, sometimes, weights with a cstar form and a known chi_X."""
    nvars = draw(st.integers(2, 4))
    projective = draw(st.booleans())
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    degrees = [draw(st.integers(1, 2))] if projective else [0, 1, 2]
    data = {
        "schema_version": 1,
        "variables": [f"x{i}" for i in range(nvars)],
        "matrix": [[_entry(draw, nvars, degrees) for _ in range(cols)]
                   for _ in range(rows)],
        "t": draw(st.integers(1, min(rows, cols))),
        "ambient": {"kind": "projective" if projective else "affine",
                    "dim": nvars - 1 if projective else nvars},
        "singularities": [],
    }
    if draw(st.booleans()):
        data["weights"] = draw(st.lists(st.integers(0, 6), min_size=nvars,
                                        max_size=nvars))
        data["form"] = {"kind": "cstar"}
    if draw(st.booleans()):
        data["known"] = {"chi_X": draw(st.integers(-1, 5))}
    if projective:
        at = "[" + ":".join(["1"] + ["0"] * (nvars - 1)) + "]"
    else:
        at = "(" + ", ".join(["0"] * nvars) + ")"
    return data, at


@given(case=small_models())
def test_exit_code_contract_on_generated_models(workdir, case):
    data, at = case
    for command in COMMANDS:
        check_contract(workdir / "generated.json", data, command, at)


def test_internal_error_exits_4(monkeypatch, run_cli):
    def broken(*args):
        raise RuntimeError("classification broke")

    monkeypatch.setattr(cli, "classify", broken)
    code, out, err = run_cli("analyze", fixture_path("twisted_cubic.json"))
    assert (code, out) == (4, "")
    assert err == "internal error: RuntimeError: classification broke\n"


@pytest.mark.parametrize("stop", [KeyboardInterrupt, SystemExit])
def test_interrupts_pass_through(monkeypatch, stop):
    def interrupted(*args):
        raise stop

    monkeypatch.setattr(cli, "classify", interrupted)
    with pytest.raises(stop):
        main(["analyze", fixture_path("twisted_cubic.json")])


FIXTURE_TEXT = json.dumps(FIXTURES["twisted_cubic.json"])
RAW_FILES = {
    "not-utf8": b"\xff\xfe" + FIXTURE_TEXT.encode(),
    "5000-digit-integer": FIXTURE_TEXT.replace(
        '"schema_version": 1', '"schema_version": ' + "9" * 5000).encode(),
    "nested-3000-deep": ("[" * 3000 + "]" * 3000).encode(),
}


@pytest.mark.parametrize("content", RAW_FILES.values(), ids=RAW_FILES.keys())
def test_raw_file_exits_2_without_a_traceback(tmp_path, content):
    path = tmp_path / "model.json"
    path.write_bytes(content)
    src = str(Path(detsing.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-m", "detsing.cli", "analyze", str(path)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert done.stderr.startswith("error: ")
    assert "Traceback" not in done.stderr
