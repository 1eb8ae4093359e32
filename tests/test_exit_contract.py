"""Exit-code contract of the command line tool under mutated inputs.

Every run exits 0 (ok), 1 (identity violated), 2 (input error) or 3
(unsupported or out of budget); exit 1 comes only with a report whose
identity status is "violated", and nothing but argparse's usage exit escapes
`main`.  The inputs are the bundled fixtures with one or two entries
dropped, swapped for small atoms, or duplicated.  Files that `json.dumps`
cannot write (bytes that are not UTF-8, integers past the interpreter's
digit limit, arrays nested past the recursion limit) run as fresh processes.
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
    path = workdir / name
    path.write_text(json.dumps(data), encoding="utf-8")
    argv = [command[0], str(path), *command[1:], "--json",
            "--spair-budget", BUDGET]
    if command[0] == "index":
        argv += ["--at", points[pick % len(points)] if points else "[1:0:0]"]
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
