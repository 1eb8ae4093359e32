"""Byte-for-byte goldens of the input errors: exit code, stdout and stderr.

Each case is one malformed model file or argument, built from a bundled
fixture by a few edits.  Together they reach every input-error message of
the model loader, of the polynomial parser and of the ledger assembly, the
`ValueError`s that the loader forwards from `AmbientSpace`,
`DeterminantalModel`, `PolyMatrix` and `ProjectivePoint`, and, in the
`then` cases, which of two faults is reported.  The `ledger` cases reach
every message with which `verify` declines a well-formed ledger (exit 3).
The expected output in `golden/input_errors.json` is recorded output; the
model's path reads MODEL there.  To record it afresh, run
`PYTHONPATH=src python tests/test_input_errors.py`.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from conftest import fixture_path

GOLDEN_PATH = Path(__file__).parent / "golden" / "input_errors.json"
DROP = object()

TC = "twisted_cubic.json"
TC_INDEX = "twisted_cubic_index.json"
FS = "form_staircase.json"
NQ = "non_quasihomogeneous.json"


def edited(name, *edits):
    """The fixture with each edit (*path, value) applied; DROP deletes."""
    data = json.loads(Path(fixture_path(name)).read_text(encoding="utf-8"))
    for *path, value in edits:
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        if value is DROP:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    return data


def analyze(*edits, name=TC):
    return ("analyze", "MODEL"), edited(name, *edits)


def verify(*edits, name=TC):
    return ("verify", "MODEL"), edited(name, *edits)


# an essential singular line in P^5: the singular points are not finite, so
# the singularities list is not compared against them
SINGULAR_LINE = {
    "schema_version": 1, "variables": [f"x{i}" for i in range(6)],
    "matrix": [["x0", "x1"], ["x2", "x3"]], "t": 2,
    "ambient": {"kind": "projective", "dim": 5}, "weights": [0, 1, 2, 3, 4, 5],
    "singularities": [], "form": {"kind": "cstar"}, "known": {"chi_X": 6}}

FIVE_THOUSAND_NINES = "9" * 5000

# id -> (argv with MODEL for the model's path, model: JSON value, raw bytes,
# or None for no file)
CASES = {
    # the file
    "unreadable": (("analyze", "MODEL"), None),
    "not utf-8": (("analyze", "MODEL"), b"\xff\xfe{}"),
    "not json": (("analyze", "MODEL"), b'{"schema_version": 1,'),
    # the top-level object
    "input not an object": (("analyze", "MODEL"), [edited(TC)]),
    "input unknown key": analyze(("extra", 1)),
    "input missing key": analyze(("t", DROP)),
    "input unknown key then missing key": analyze(("extra", 1), ("t", DROP)),
    "schema_version not an integer": analyze(("schema_version", "1")),
    "schema_version boolean": analyze(("schema_version", True)),
    "schema_version 2": analyze(("schema_version", 2)),
    "variables not a list": analyze(("variables", "x0")),
    "variables empty": analyze(("variables", [])),
    "variables non-string": analyze(("variables", 1, 7)),
    "variables repeated": analyze(("variables", 1, "x0")),
    # "2" would read as the integer 2 in the matrix, "y z" as two names
    "variables not a name": analyze(("variables", 1, "2")),
    "variables name with a space": analyze(("variables", 1, "y z")),
    "variables then matrix": analyze(("variables", []), ("matrix", [])),
    # the matrix
    "matrix not a list": analyze(("matrix", "x0")),
    "matrix empty": analyze(("matrix", [])),
    "matrix empty row": analyze(("matrix", 1, [])),
    "matrix row not a list": analyze(("matrix", 1, "x1")),
    "matrix row shape then cell": analyze(("matrix", 0, 0, "x0 +"),
                                          ("matrix", 1, [])),
    "matrix cell not a string": analyze(("matrix", 0, 1, 1)),
    "matrix cell syntax": analyze(("matrix", 0, 1, "x1 +")),
    "matrix cell unknown variable": analyze(("matrix", 1, 2, "y")),
    "matrix cell non-ascii digit": analyze(("matrix", 1, 2, "x3^²")),
    "matrix cell deep nesting": analyze(
        ("matrix", 0, 0, "(" * 101 + "x0" + ")" * 101)),
    "matrix cell unclosed parenthesis": analyze(("matrix", 0, 0, "(x0 + x1")),
    "matrix cell trailing token": analyze(("matrix", 0, 0, "x0 x1")),
    "matrix cell literal past the digit limit": analyze(
        ("matrix", 0, 0, "x0 + " + FIVE_THOUSAND_NINES)),
    "matrix cell order": analyze(("matrix", 1, 0, 1), ("matrix", 0, 2, 2)),
    "matrix all zero": analyze(("matrix", [["0", "0", "0"], ["0", "0", "0"]])),
    "matrix ragged": analyze(("matrix", 1, ["x1", "x2"])),
    "matrix ragged then ambient.dim": analyze(("matrix", 1, ["x1", "x2"]),
                                              ("ambient", "dim", 0)),
    # t and the ambient space
    "t not an integer": analyze(("t", "2")),
    "t boolean": analyze(("t", True)),
    "t out of range": analyze(("t", 3)),
    "t zero": analyze(("t", 0)),
    "t then ambient": analyze(("t", "2"), ("ambient", [])),
    "ambient not an object": analyze(("ambient", "projective")),
    "ambient unknown key": analyze(("ambient", "chart", 0)),
    "ambient missing key": analyze(("ambient", "dim", DROP)),
    "ambient.kind not a string": analyze(("ambient", "kind", 1)),
    "ambient.kind unknown": analyze(("ambient", "kind", "weighted")),
    "ambient.kind then dim": analyze(("ambient", "kind", "weighted"),
                                     ("ambient", "dim", "4")),
    "ambient.dim not an integer": analyze(("ambient", "dim", "4")),
    "ambient.dim zero": analyze(("ambient", "dim", 0)),
    "ambient.dim against variables": analyze(("ambient", "dim", 3)),
    "affine dim against variables": analyze(("ambient", "dim", 3), name=FS),
    "projective entries not homogeneous": analyze(("matrix", 0, 0, "x0 + 1")),
    "projective entries of two degrees": analyze(("matrix", 0, 0, "x0^2")),
    # weights
    "weights not a list": analyze(("weights", 3)),
    "weights too short": analyze(("weights", [0, 1, 2])),
    "weights entry not an integer": analyze(("weights", 4, "4")),
    "weights entry boolean": analyze(("weights", 4, True)),
    "model then weights": analyze(("t", 3), ("weights", 3)),
    "weights then singularities": analyze(("weights", 3),
                                          ("singularities", {})),
    # singularities
    "singularities not a list": analyze(("singularities", {})),
    "singularity not an object": analyze(("singularities", 0, "[0:0:0:0:1]")),
    "singularity unknown key": analyze(("singularities", 0, "nu", 1)),
    "singularity missing point": analyze(("singularities", 0, "point", DROP)),
    "point not a string": analyze(("singularities", 0, "point", 5)),
    "projective point shape": analyze(
        ("singularities", 0, "point", "(0, 0, 0, 0, 1)")),
    "projective point entry": analyze(
        ("singularities", 0, "point", "[0:0:x:0:1]")),
    "projective point entry past the digit limit": analyze(
        ("singularities", 0, "point", f"[0:0:0:0:{FIVE_THOUSAND_NINES}]")),
    "projective point zero": analyze(
        ("singularities", 0, "point", "[0:0:0:0:0]")),
    "projective point count": analyze(
        ("singularities", 0, "point", "[0:0:0:1]")),
    "projective point entry then count": analyze(
        ("singularities", 0, "point", "[0:x:1]")),
    "affine point shape": analyze(("singularities", [{"point": "[0:0]"}]),
                                  name=NQ),
    "affine coordinate exponent": analyze(
        ("singularities", 0, "point", "(1e3, 0)"), name=NQ),
    "affine coordinate zero denominator": analyze(
        ("singularities", 0, "point", "(1/0, 0)"), name=NQ),
    "affine coordinate past the digit limit": analyze(
        ("singularities", 0, "point", f"({FIVE_THOUSAND_NINES}, 0)"), name=NQ),
    "affine point count": analyze(("singularities", 0, "point", "(0)"),
                                  name=NQ),
    "affine coordinate then count": analyze(
        ("singularities", 0, "point", "(x)"), name=NQ),
    "duplicate point": analyze(
        ("singularities", [{"point": "[0:0:0:0:1]"}, {"point": "[0:0:0:0:2]"}])),
    "duplicate point then field": analyze(
        ("singularities", [{"point": "[0:0:0:0:1]"},
                           {"point": "[0:0:0:0:2]", "mu": "1"}])),
    "point then field": analyze(("singularities", 0, "point", "[0:0:0:0:0]"),
                                ("singularities", 0, "mu", "1")),
    "field mu not an integer": analyze(("singularities", 0, "mu", "1")),
    "field d boolean": analyze(("singularities", 0, "d", True)),
    "field chi_smoothing null": analyze(
        ("singularities", 0, "chi_smoothing", None)),
    "field smoothable not a boolean": analyze(
        ("singularities", 0, "smoothable", 1)),
    "field order": analyze(("singularities", 0, "smoothable", 1),
                           ("singularities", 0, "chi_lower_stratum", "1"),
                           ("singularities", 0, "n", "2")),
    "singularities then form": analyze(("singularities", 0, "mu", "1"),
                                       ("form", 1)),
    # form
    "form not an object": analyze(("form", "cstar")),
    "form unknown key": analyze(("form", "weights", [])),
    "form missing kind": analyze(("form", {})),
    "form.kind not a string": analyze(("form", "kind", 1)),
    "form.kind unknown": analyze(("form", "kind", "radial")),
    "cstar form with coefficients": analyze(("form", "coefficients", [])),
    "cstar form without weights": analyze(("weights", DROP)),
    "explicit form without coefficients": analyze(
        ("form", "coefficients", DROP), name=FS),
    "explicit form without coefficients in projective mode": analyze(
        ("form", "kind", "explicit")),
    "explicit form in projective mode": analyze(
        ("form", {"kind": "explicit", "coefficients": ["x0"] * 5})),
    "form.coefficients not a list": analyze(("form", "coefficients", "x^2"),
                                            name=FS),
    "form.coefficients too short": analyze(("form", "coefficients", ["x^2"]),
                                           name=FS),
    "form.coefficients entry not a string": analyze(
        ("form", "coefficients", 1, 3), name=FS),
    "form.coefficients entry syntax": analyze(
        ("form", "coefficients", 0, "x^"), name=FS),
    "form then known": analyze(("form", "kind", 1), ("known", 1)),
    # known
    "known not an object": analyze(("known", 3)),
    "known unknown key": analyze(("known", "mu", 1)),
    "known.chi_X not an integer": analyze(("known", "chi_X", "3")),
    "known.chi_X then indices": analyze(("known", "chi_X", "3"),
                                        ("known", "indices", [])),
    "known.indices not an object": analyze(("known", "indices", [])),
    "known.indices point": analyze(
        ("known", "indices", {"[0:0:x:0:1]": 3})),
    "known.indices point count": analyze(
        ("known", "indices", {"[0:1]": 3})),
    "known.indices affine point": analyze(
        ("known", {"indices": {"(0, a)": 1}}), name=FS),
    "known.indices repeated point": analyze(
        ("known", "indices", {"[0:0:0:0:1]": 3, "[0:0:0:0:2]": 3})),
    "known.indices value not an integer": analyze(
        ("known", "indices", {"[0:0:0:0:1]": "3"})),
    "known.indices value then next point": analyze(
        ("known", "indices", {"[0:0:0:0:1]": "3", "[x]": 3})),
    # the ledger
    "singular point outside the variety": verify(
        ("singularities", 0, "point", "[1:1:0:0:0]")),
    "singular point in the smooth stratum": verify(
        ("singularities", 0, "point", "[1:0:0:0:0]")),
    "record t out of range": verify(("singularities", 0, "t", 3)),
    "record mu negative": verify(("singularities", 0, "mu", -1)),
    "record smoothable contradicts d": verify(
        ("singularities", 0, "smoothable", False)),
    "singularities differ from computed": verify(("singularities", [])),
    "cstar weights repeated": verify(("weights", [0, 1, 1, 3, 4])),
    "cstar weights not invariant": verify(("weights", [0, 2, 1, 3, 4])),
    "fixed point missing from singularities": (("verify", "MODEL"),
                                               SINGULAR_LINE),
    "known index at a smooth fixed point": verify(
        ("known", "indices", {"[1:0:0:0:0]": 2})),
    "known index point outside the smooth stratum": verify(
        ("known", "indices", {"[1:1:0:0:0]": 1})),
    "record codimension past the formulas": verify(
        ("singularities", 0, "p", 4)),
    # exit 3: the ledger is well formed, but the identity cannot settle it
    "ledger with mu open": verify(("singularities", 0, "mu", DROP)),
    "ledger forcing a negative mu": verify(
        ("singularities", 0, "mu", DROP),
        ("known", "indices", "[0:0:0:0:1]", -5)),
    "ledger defect of no one unknown": verify(
        ("singularities", 0, "mu", DROP), ("singularities", 0, "n", 3),
        ("singularities", 0, "p", 2)),
    "ledger with two unknowns": verify(("singularities", 0, "mu", DROP),
                                       ("known", "chi_X", DROP)),
    "ledger of an affine model": verify(name=FS),
    # commands and arguments
    "spair budget zero": (("analyze", "MODEL", "--spair-budget", "0"),
                          edited(TC)),
    "spair budget then model": (("analyze", "MODEL", "--spair-budget", "-1"),
                                edited(TC, ("t", 3))),
    "euler with chi_X": (("euler", "MODEL"), edited(TC)),
    "index at projective entry": (("index", "MODEL", "--at", "[0:0:x:0:1]"),
                                  edited(TC_INDEX)),
    "index at projective count": (("index", "MODEL", "--at", "[0:0:1]"),
                                  edited(TC_INDEX)),
    "index at affine coordinate": (("index", "MODEL", "--at", "(0, 1e3)"),
                                   edited(FS)),
    "index at affine shape": (("index", "MODEL", "--at", "0, 1"), edited(FS)),
    "index at point not in the ledger": (
        ("index", "MODEL", "--at", "[1:1:0:0:0]"), edited(TC_INDEX)),
    "index at a given index": (("index", "MODEL", "--at", "[0:0:0:0:1]"),
                               edited(TC)),
    "model then index at": (("index", "MODEL", "--at", "[x]"),
                            edited(TC_INDEX, ("t", 3))),
    "groebner form without an explicit form": (
        ("groebner", "MODEL", "--ideal", "form"), edited(TC)),
}


def run_case(argv, model, directory):
    """(code, stdout, stderr) of one case, with the model's path as MODEL."""
    from detsing.cli import main

    path = Path(directory) / "model.json"
    if isinstance(model, bytes):
        path.write_bytes(model)
    elif model is not None:
        path.write_text(json.dumps(model), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(path) if a == "MODEL" else a for a in argv])
    return code, out.getvalue(), err.getvalue().replace(str(path), "MODEL")


def test_every_case_is_recorded():
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_input_error_matches_golden(tmp_path, case):
    want = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))[case]
    code, out, err = run_case(*CASES[case], tmp_path)
    assert {"code": code, "stdout": out, "stderr": err} == want


if __name__ == "__main__":
    recorded = {}
    for case, (argv, model) in CASES.items():
        with tempfile.TemporaryDirectory() as directory:
            code, out, err = run_case(argv, model, directory)
        recorded[case] = {"code": code, "stdout": out, "stderr": err}
    GOLDEN_PATH.write_text(json.dumps(recorded, indent=1, ensure_ascii=False)
                           + "\n", encoding="utf-8")
