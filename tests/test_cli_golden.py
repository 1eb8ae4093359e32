"""Byte-for-byte CLI goldens: exit code and stdout of fixed commands.

The cases are the bundled-fixture commands of the benchmark's `fixtures`
workload, plus `groebner --ideal lower` and `analyze` on a generic 3x3
projective model with t = 3, `analyze` on an affine grid with fractional
roots, `analyze` and `groebner --ideal minors` on a projective cone
whose vertex is charted at non-integral offsets, and `analyze` on an affine
grid whose roots have eight distinct prime denominators, and `verify` and
`index` on column-operated copies of the twisted cubic and Segre cone
fixtures, whose cstar check tests split minors, and `analyze` and
`groebner --ideal lower` on an affine model whose point solver substitutes
roots, each in text and `--json` form.  The expected output in `golden/cli.json` is recorded output, not
recomputed here, so any change to what these commands print shows up as a
failure.
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

# [[f(x), g(y)], [g(y), f(x)]]: rank 0 at the 3 x 2 grid of roots of f and g,
# most of them fractions, so the germ charts are shifted by fractions
FRACTIONAL_GRID = {
    "schema_version": 1,
    "variables": ["x", "y"],
    "matrix": [["(2*x - 1)*(x + 3)*(3*x - 2)", "(2*y + 3)*(y - 2)"],
               ["(2*y + 3)*(y - 2)", "(2*x - 1)*(x + 3)*(3*x - 2)"]],
    "t": 2,
    "ambient": {"kind": "affine", "dim": 2},
    "singularities": [],
}

# a rational normal curve cone whose vertex [0:2:3:1:5] is charted at x1,
# with offsets 0, 3/2, 1/2, 5/2
SHIFTED_CONE = {
    "schema_version": 1,
    "variables": [f"x{i}" for i in range(5)],
    "matrix": [["x0", "3*x1 - 2*x2", "x1 - 2*x3"],
               ["3*x1 - 2*x2", "x1 - 2*x3", "5*x1 - 2*x4"]],
    "t": 2,
    "ambient": {"kind": "projective", "dim": 4},
    "singularities": [],
}

# [[f(x), g(y)], [g(y), f(x)]] with roots at eight distinct prime
# denominators: the 4 x 4 grid is charted with one constant for all 16 points,
# far above what any single point needs
LARGE_K_GRID = {
    "schema_version": 1,
    "variables": ["x", "y"],
    "matrix": [["(2*x - 1)*(3*x - 1)*(5*x - 1)*(7*x - 1)",
                "(11*y + 1)*(13*y + 1)*(17*y + 1)*(19*y + 1)"],
               ["(11*y + 1)*(13*y + 1)*(17*y + 1)*(19*y + 1)",
                "(2*x - 1)*(3*x - 1)*(5*x - 1)*(7*x - 1)"]],
    "t": 2,
    "ambient": {"kind": "affine", "dim": 2},
    "singularities": [],
}

# the twisted cubic and Segre cone fixtures with col3 + col1 as the third
# column: the same varieties, but the minor of the last two columns, such as
# x1*(x3 + x1) - x2*(x2 + x0), now splits into weight components, so the
# cstar check tests them against the span of the 2-minors
TWISTED_CUBIC_COLUMN_OP = {
    "schema_version": 1,
    "variables": [f"x{i}" for i in range(5)],
    "matrix": [["x0", "x1", "x2 + x0"], ["x1", "x2", "x3 + x1"]],
    "t": 2,
    "ambient": {"kind": "projective", "dim": 4},
    "weights": [0, 1, 2, 3, 4],
    "singularities": [{"point": "[0:0:0:0:1]", "mu": 1}],
    "form": {"kind": "cstar"},
    "known": {"chi_X": 3, "indices": {"[0:0:0:0:1]": 3}},
}

SEGRE_CONE_COLUMN_OP = {
    "schema_version": 1,
    "variables": [f"x{i}" for i in range(7)],
    "matrix": [["x0", "x1", "x2 + x0"], ["x3", "x4", "x5 + x3"]],
    "t": 2,
    "ambient": {"kind": "projective", "dim": 6},
    "weights": [0, 1, 2, 3, 4, 5, 6],
    "singularities": [{"point": "[0:0:0:0:0:0:1]", "chi_smoothing": 1,
                       "chi_lower_stratum": 1}],
    "form": {"kind": "cstar"},
    "known": {"chi_X": 7},
}

# [[y - x^2, h(x)], [h(x), y - x^2]] with h = x (x - 1) (x - 2): rank 0 at
# (0, 0), (1, 1) and (2, 4).  The lower basis keeps x*y + 2*x - 3*y, so the
# eliminant in y is not its only element with y, and the point solver
# substitutes each root of y (y - 1) (y - 4) into the generators
PARABOLA_ROOTS = {
    "schema_version": 1,
    "variables": ["x", "y"],
    "matrix": [["y - x^2", "x*(x - 1)*(x - 2)"],
               ["x*(x - 1)*(x - 2)", "y - x^2"]],
    "t": 2,
    "ambient": {"kind": "affine", "dim": 2},
    "singularities": [],
}

INLINE_MODELS = {
    "generic_3x3_t3.json": GENERIC_3X3,
    "fractional_grid.json": FRACTIONAL_GRID,
    "shifted_cone.json": SHIFTED_CONE,
    "large_k_grid.json": LARGE_K_GRID,
    "twisted_cubic_column_op.json": TWISTED_CUBIC_COLUMN_OP,
    "segre_cone_column_op.json": SEGRE_CONE_COLUMN_OP,
    "parabola_roots.json": PARABOLA_ROOTS,
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
    ("analyze", "fractional_grid.json"),
    ("analyze", "shifted_cone.json"),
    ("groebner", "shifted_cone.json", "--ideal", "minors"),
    ("analyze", "large_k_grid.json"),
    ("verify", "twisted_cubic_column_op.json"),
    ("index", "segre_cone_column_op.json", "--at", "[0:0:0:0:0:0:1]"),
    ("analyze", "parabola_roots.json"),
    ("groebner", "parabola_roots.json", "--ideal", "lower"),
]

CASES = [argv + extra for argv in COMMANDS for extra in ((), ("--json",))]


def _resolve(argv, tmp_path):
    if argv[1] in INLINE_MODELS:
        path = tmp_path / argv[1]
        path.write_text(json.dumps(INLINE_MODELS[argv[1]]), encoding="utf-8")
        return (argv[0], str(path)) + argv[2:]
    return (argv[0], fixture_path(argv[1])) + argv[2:]


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_cli_output_matches_golden(run_cli, tmp_path, argv):
    want = GOLDEN[" ".join(argv)]
    code, out, _ = run_cli(*_resolve(argv, tmp_path))
    assert (code, out) == (want["code"], want["stdout"])
