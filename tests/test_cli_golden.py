"""Byte-for-byte CLI goldens: exit code and stdout of fixed commands.

The cases are the bundled-fixture commands of the benchmark's `fixtures`
workload, plus `groebner --ideal lower` and `analyze` on a generic 3x3
projective model with t = 3, each in text and `--json` form.  The expected
output in `golden/cli.json` is recorded output, not recomputed here, so any
change to what these commands print shows up as a failure.
"""

import json
from pathlib import Path

import pytest

from conftest import fixture_path

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "cli.json").read_text(encoding="utf-8"))

GENERIC_3X3 = {
    "schema_version": 1,
    "variables": [f"x{i}" for i in range(9)],
    "matrix": [["x0", "x1", "x2"], ["x3", "x4", "x5"], ["x6", "x7", "x8"]],
    "t": 3,
    "ambient": {"kind": "projective", "dim": 8},
    "singularities": [],
}

COMMANDS = [
    ("verify", "twisted_cubic.json"),
    ("verify", "twisted_cubic_wrong_chi.json"),
    ("verify", "smooth_conic.json"),
    ("euler", "twisted_cubic_euler.json"),
    ("index", "twisted_cubic_index.json", "--at", "[0:0:0:0:1]"),
    ("index", "segre_cone.json", "--at", "[0:0:0:0:0:0:1]"),
    ("analyze", "twisted_cubic.json"),
    ("analyze", "non_quasihomogeneous.json"),
    ("analyze", "form_staircase.json"),
    ("groebner", "twisted_cubic.json", "--ideal", "minors"),
    ("groebner", "twisted_cubic.json", "--ideal", "lower"),
    ("groebner", "form_staircase.json", "--ideal", "form"),
    ("groebner", "smooth_conic.json", "--ideal", "minors"),
    ("groebner", "generic_3x3_t3.json", "--ideal", "lower"),
    ("analyze", "generic_3x3_t3.json"),
]

CASES = [argv + extra for argv in COMMANDS for extra in ((), ("--json",))]


def _resolve(argv, tmp_path):
    if argv[1] == "generic_3x3_t3.json":
        path = tmp_path / argv[1]
        path.write_text(json.dumps(GENERIC_3X3), encoding="utf-8")
        return (argv[0], str(path)) + argv[2:]
    return (argv[0], fixture_path(argv[1])) + argv[2:]


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_cli_output_matches_golden(run_cli, tmp_path, argv):
    want = GOLDEN[" ".join(argv)]
    code, out, _ = run_cli(*_resolve(argv, tmp_path))
    assert (code, out) == (want["code"], want["stdout"])
