"""Seeded inputs for the benchmark workloads, with the reports they must give.

Every expected value comes from the construction of the model or from the
values the README and the acceptance tests state, never from a run of the
program.  `build(workload, seed, workdir)` writes the model files and
returns the ops of one pass; the first op is the warm-up op.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, gcd
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "src" / "detsing" / "fixtures"

WORKLOADS = ("fixtures", "rank_ideals", "singular_points")


@dataclass(frozen=True)
class Op:
    """One detsing command: argv without --json, exit code and report values.

    `expect` maps a dotted report path to its value; a path ending in
    `#len` compares the length of the list at that path.  `proc` marks the
    ops that also run as fresh processes.
    """

    label: str
    argv: tuple
    code: int
    expect: dict = field(default_factory=dict)
    proc: bool = False


def check(op, code, report, stderr):
    """Mismatches between one command's outcome and its op; empty when right."""
    problems = []
    if code != op.code:
        problems.append(f"exit code {code}, expected {op.code}")
    if "resource limit" in stderr or "Traceback" in stderr:
        problems.append(f"stderr: {stderr.strip()[:200]}")
    if report is None:
        return problems + ["no JSON report"]
    for path, want in op.expect.items():
        node = report
        keys = path.removesuffix("#len").split(".")
        try:
            for key in keys:
                node = node[key]
        except (KeyError, TypeError):
            problems.append(f"{path} missing")
            continue
        got = len(node) if path.endswith("#len") else node
        if got != want:
            problems.append(f"{path} = {got!r}, expected {want!r}")
    return problems


def _write(workdir, name, model):
    path = workdir / name
    path.write_text(json.dumps(model, indent=1), encoding="utf-8")
    return str(path)


# --- fixtures: the README and acceptance-test commands --------------------

def _fixture_ops(workdir):
    files = {}
    for source in sorted(FIXTURES.glob("*.json")):
        target = workdir / source.name
        target.write_bytes(source.read_bytes())
        files[source.stem] = str(target)
    if len(files) != 8:
        raise FileNotFoundError(f"expected 8 bundled fixtures in {FIXTURES}")

    def op(label, argv, code, expect):
        return Op(label, argv, code, expect, proc=True)

    cone = files["twisted_cubic"]
    return [
        op("verify twisted_cubic", ("verify", cone), 0,
           {"identity.status": "verified", "identity.lhs": 5,
            "identity.rhs": 5, "ledger.chi_X": 3}),
        op("verify twisted_cubic_wrong_chi",
           ("verify", files["twisted_cubic_wrong_chi"]), 1,
           {"identity.status": "violated", "identity.lhs": 5,
            "identity.rhs": 6}),
        op("verify smooth_conic", ("verify", files["smooth_conic"]), 0,
           {"identity.status": "verified", "identity.lhs": 2,
            "ledger.defects": []}),
        op("euler twisted_cubic_euler",
           ("euler", files["twisted_cubic_euler"]), 0,
           {"identity.status": "solved", "identity.name": "chi_X",
            "identity.value": 3}),
        op("index twisted_cubic_index",
           ("index", files["twisted_cubic_index"], "--at", "[0:0:0:0:1]"), 0,
           {"identity.status": "solved", "identity.value": 3,
            "identity.name": "index@[0:0:0:0:1]"}),
        op("index segre_cone",
           ("index", files["segre_cone"], "--at", "[0:0:0:0:0:0:1]"), 0,
           {"identity.status": "solved", "identity.value": 4}),
        op("analyze twisted_cubic", ("analyze", cone), 0,
           {"classification.codimension": 2, "classification.dimension": 2,
            "classification.singular_points": ["[0:0:0:0:1]"],
            "classification.local_supported": True}),
        op("analyze non_quasihomogeneous",
           ("analyze", files["non_quasihomogeneous"]), 3,
           {"classification.local_supported": False}),
        op("analyze form_staircase", ("analyze", files["form_staircase"]), 0,
           {"classification.empty": False}),
        op("groebner minors twisted_cubic",
           ("groebner", cone, "--ideal", "minors"), 0,
           {"groebner.chart_point": "[0:0:0:0:1]",
            "groebner.basis": ["x1^2 - x0*x2", "x1*x2 - x0*x3",
                               "x2^2 - x1*x3"],
            "groebner.dimension": 2,
            "groebner.quotient_dimension": "infinite"}),
        op("groebner lower twisted_cubic",
           ("groebner", cone, "--ideal", "lower"), 0,
           {"groebner.basis": ["x0", "x1", "x2", "x3"],
            "groebner.quotient_dimension": 1}),
        op("groebner form form_staircase",
           ("groebner", files["form_staircase"], "--ideal", "form"), 0,
           {"groebner.basis": ["y^3", "x^2"],
            "groebner.quotient_dimension": 6}),
        op("groebner minors smooth_conic",
           ("groebner", files["smooth_conic"], "--ideal", "minors"), 0,
           {"groebner.chart_point": None}),
    ]


# --- rank_ideals: Hankel cones, generic matrices, random coordinates ------

def _variables(count):
    return [f"x{i}" for i in range(count)]


def _projective(grid, nvars, t):
    return {"schema_version": 1, "variables": _variables(nvars),
            "matrix": grid, "t": t,
            "ambient": {"kind": "projective", "dim": nvars - 1},
            "singularities": []}


def _hankel_grid(k):
    # 2 x k Hankel matrix: the cone over the rational normal curve of degree
    # k, with vertex at the last coordinate point of P^(k+1)
    return [list(range(k)), list(range(1, k + 1))], k + 2


def _generic_grid(n, p):
    return [[i * p + j for j in range(p)] for i in range(n)], n * p


def _linear_form(row):
    text = ""
    for coeff, name in zip(row, _variables(len(row))):
        if coeff:
            sign = "-" if coeff < 0 else "+"
            mag = "" if abs(coeff) == 1 else f"{abs(coeff)}*"
            text += f" {sign} {mag}{name}"
    text = text.strip()
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def _point_label(coords):
    g = 0
    for c in coords:
        g = gcd(g, c)
    coords = [c // g for c in coords]
    if next(c for c in coords if c) < 0:
        coords = [-c for c in coords]
    return "[" + ":".join(str(c) for c in coords) + "]"


def _unimodular(n, rng):
    """A random integer matrix of determinant 1 and its integer inverse.

    It is a product of three random elementary column operations.  With
    n + 2 of them a model's cost varied 4-7x with the seed, which moved
    op_ms_p50 between seeds; with three, every random model stays near or
    below 20 ms, well under the median command.
    """
    g = [[int(i == j) for j in range(n)] for i in range(n)]
    inv = [row[:] for row in g]
    for _ in range(3):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        for row in g:          # column i += c * column j
            row[i] += c * row[j]
        inv[j] = [a - c * b for a, b in zip(inv[j], inv[i])]
    return g, inv


def _rank_model_ops(workdir, name, cells, nvars, n, p, t, vertex, groebner,
                    proc, rng=None):
    """Analyze (and optionally groebner) ops for one rank-ideal model.

    `cells[i][j]` is the variable index of entry (i, j) in the base model.
    With `rng`, every variable x_i is replaced by a random unimodular
    integer combination, which keeps codimension, dimension and the vertex
    (mapped through the inverse) while making every entry a dense linear
    form.
    """
    grid = [[f"x{c}" for c in row] for row in cells]
    point = None if vertex is None else [int(i == vertex) for i in range(nvars)]
    if rng is not None:
        g, inv = _unimodular(nvars, rng)
        grid = [[_linear_form(g[c]) for c in row] for row in cells]
        if point is not None:
            point = [row[vertex] for row in inv]
    path = _write(workdir, f"{name}.json", _projective(grid, nvars, t))
    codim = (n - t + 1) * (p - t + 1)
    points = [] if point is None else [_point_label(point)]
    ops = [Op(f"analyze {name}", ("analyze", path), 0,
              {"classification.codimension": codim,
               "classification.dimension": nvars - 1 - codim,
               "classification.determinantal": True,
               "classification.singular_locus_dimension":
                   nvars - (n - t + 2) * (p - t + 2) if vertex is None else 1,
               "classification.singular_points": points,
               "classification.local_supported": True}, proc=proc)]
    if groebner:
        expect = {"groebner.chart_point": points[0] if points else None,
                  "groebner.quotient_dimension": "infinite"}
        if vertex is not None:
            # in the chart at the vertex: the affine cone, of dimension 2,
            # cut out by a quadratic basis of the C(k, 2) minors
            expect.update({"groebner.dimension": 2,
                           "groebner.basis#len": comb(p, 2)})
        else:
            expect["groebner.dimension"] = nvars - codim
        ops.append(Op(f"groebner minors {name}",
                      ("groebner", path, "--ideal", "minors"), 0, expect,
                      proc=proc))
    return ops


def _rank_ideal_ops(workdir, rng):
    ops = []
    # k = 7 and 8 (0.85 s and 1.5 s) are left out so that a run fits
    # enough rounds for a steady median of every command
    for k in range(4, 7):
        cells, nvars = _hankel_grid(k)
        ops += _rank_model_ops(workdir, f"hankel2x{k}", cells, nvars, 2, k, 2,
                               nvars - 1, groebner=k in (4, 6), proc=k == 4)
    # 5x5 at t=5 (2.7 s) is left out for the same reason
    for n, p, t in ((2, 4, 2), (2, 5, 2), (3, 3, 2), (3, 3, 3), (3, 4, 2),
                    (3, 4, 3), (4, 4, 4)):
        cells, nvars = _generic_grid(n, p)
        ops += _rank_model_ops(workdir, f"generic{n}x{p}t{t}", cells, nvars,
                               n, p, t, None,
                               groebner=(n, p, t) in ((2, 5, 2), (3, 4, 3)),
                               proc=(n, p, t) in ((2, 4, 2), (3, 3, 2),
                                                  (3, 3, 3)))
    # random integer linear entries: the Hankel 2x3 cone in P^4 and a
    # generic 2x3 in P^6, P^7 and P^8, in random coordinates.  The cone and
    # the generic matrix in P^6 leave one coordinate free, whose point is
    # the only singular point.  Larger models are left out because their
    # cost varies too much with the seed: 0.07-0.27 s for a Hankel 2x4 in
    # P^5, 0.1-0.5 s for a generic 2x4 in P^7, 0.2-7 s for a 3x3 in P^8.
    hankel, generic = _hankel_grid(3)[0], _generic_grid(2, 3)[0]
    for i, (cells, nvars, vertex) in enumerate((
            (hankel, 5, 4), (hankel, 5, 4), (generic, 7, 6),
            (generic, 8, None), (generic, 9, None))):
        ops += _rank_model_ops(workdir, f"random{i}_2x3P{nvars - 1}",
                               cells, nvars, 2, 3, 2, vertex, groebner=False,
                               proc=False, rng=rng)
    return ops


# --- singular_points: affine grids of isolated singular points ------------

# grid side a -> number of models of that side in one pass.  The median
# command is an a = 5 grid, and the five a = 4 grids also run as processes.
# Sides 7 and 8 (0.6 s and 0.9 s a model) are left out so that a run fits
# enough rounds for a steady median of every command.
GRID_SIDES = {4: 5, 5: 5, 6: 3}


# Grid coordinates are drawn from a fixed pool with seeded signs, so that
# the coefficient sizes, and with them a grid's cost, vary little with the
# seed: drawing numerators 1..7 over 1..3 freely gave twice the spread.
ROOT_POOL = tuple(Fraction(n, d) for n, d in (
    (1, 1), (2, 1), (3, 1), (1, 2), (3, 2), (5, 2), (1, 3), (2, 3), (4, 3)))


def _distinct_roots(rng, count):
    picked = rng.sample(ROOT_POOL, count)
    return sorted(rng.choice((-1, 1)) * r for r in picked)


def _product(roots, var):
    factors = []
    for r in roots:
        lead = var if r.denominator == 1 else f"{r.denominator}*{var}"
        sign = "-" if r.numerator > 0 else "+"
        factors.append(f"({lead} {sign} {abs(r.numerator)})")
    return "*".join(factors)


def _singular_point_ops(workdir, rng):
    ops = []
    for a, copies in GRID_SIDES.items():
        for c in range(copies):
            xs, ys = _distinct_roots(rng, a), _distinct_roots(rng, a)
            f, g = _product(xs, "x"), _product(ys, "y")
            # rank < 2 where f(x)^2 = g(y)^2; rank 0 exactly on the grid
            # f = g = 0, where the germ is not weighted-homogeneous since f
            # and g have further roots
            path = _write(workdir, f"grid{a}_{c}.json", {
                "schema_version": 1, "variables": ["x", "y"],
                "matrix": [[f, g], [g, f]], "t": 2,
                "ambient": {"kind": "affine", "dim": 2},
                "singularities": []})
            grid = [f"({x}, {y})" for x in xs for y in ys]
            ops.append(Op(f"analyze grid{a}_{c}", ("analyze", path), 3,
                          {"classification.codimension": 1,
                           "classification.dimension": 1,
                           "classification.isolated_singularity": True,
                           "classification.singular_points": grid,
                           "classification.singular_points_exact": True,
                           "classification.local_supported": False,
                           "classification.notes#len": a * a},
                          proc=a == 4))
    return ops


def build(workload, seed, workdir):
    """Write the inputs of one workload and return the ops of one pass."""
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    if workload == "fixtures":
        return _fixture_ops(workdir)
    if workload == "rank_ideals":
        return _rank_ideal_ops(workdir, rng)
    if workload == "singular_points":
        return _singular_point_ops(workdir, rng)
    raise ValueError(f"unknown workload {workload!r}")
