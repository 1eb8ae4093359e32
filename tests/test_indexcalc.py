import json
from importlib.resources import files

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import fixture_path
from test_cli_golden import SEGRE_CONE_COLUMN_OP

from detsing import grobner
from detsing.cli import load_input

from detsing.detvar import (
    AFFINE,
    ESSENTIAL_SINGULAR,
    OUTSIDE,
    PROJECTIVE,
    SMOOTH_STRATUM,
    AmbientSpace,
    DeterminantalModel,
    ProjectivePoint,
    is_point_on_variety,
    minors_ideal,
)
from detsing.grobner import buchberger, normal_form
from detsing.indexcalc import (
    SOLVED,
    VERIFIED,
    VIOLATED,
    IdentityResult,
    LedgerError,
    SingularPointRecord,
    cstar_fixed_points,
    defect,
    global_identity,
    known_defect,
    phn_from_radial,
    phn_from_radial_nonsmoothable,
)
from detsing.polyalg import PolyMatrix, Polynomial, minors
from detsing.topo import MilnorData, chi_smoothing

P4 = ("x0", "x1", "x2", "x3", "x4")
VERTEX = "[0:0:0:0:1]"


def catalecticant_model():
    grid = [["x0", "x1", "x2"], ["x1", "x2", "x3"]]
    return DeterminantalModel(
        PolyMatrix.from_strings(grid, P4), 2, AmbientSpace(PROJECTIVE, 4)
    )


def cone_record(**overrides):
    fields = dict(point=VERTEX, n=2, p=3, t=2, d=2, smoothable=True, mu=1)
    fields.update(overrides)
    return SingularPointRecord(**fields)


def apex_record(chi=1, lower=1):
    return SingularPointRecord(
        point="[0:0:0:0:0:0:1]",
        n=2,
        p=3,
        t=2,
        d=4,
        smoothable=False,
        chi_smoothing=chi,
        chi_lower_stratum=lower,
    )


class TestRecordValidation:
    def test_valid_record(self):
        rec = cone_record()
        assert rec.resolved_chi_smoothing() == 2
        assert rec.mu_linked()

    def test_codimension_must_be_two(self):
        with pytest.raises(LedgerError):
            cone_record(n=3, p=3)

    def test_t_range(self):
        with pytest.raises(LedgerError):
            cone_record(t=5)

    def test_smoothable_flag_must_match_bound(self):
        with pytest.raises(LedgerError):
            cone_record(smoothable=False)
        with pytest.raises(LedgerError):
            cone_record(d=4, smoothable=True, mu=None)

    def test_negative_mu(self):
        with pytest.raises(LedgerError):
            cone_record(mu=-1)

    def test_chi_conflicting_with_mu(self):
        with pytest.raises(LedgerError):
            cone_record(chi_smoothing=5)

    def test_chi_consistent_with_mu(self):
        rec = cone_record(chi_smoothing=2)
        assert defect(rec) == 2

    def test_transposed_type_does_not_link_mu(self):
        # with p = 2 the slice guard 2p > d + 2 fails for d = 2
        rec = SingularPointRecord(
            point="q", n=3, p=2, t=2, d=2, smoothable=True, mu=1
        )
        assert not rec.mu_linked()
        assert rec.resolved_chi_smoothing() is None
        with pytest.raises(LedgerError):
            defect(rec)

    def test_explicit_chi_fills_the_gap(self):
        rec = SingularPointRecord(
            point="q", n=3, p=2, t=2, d=2, smoothable=True, chi_smoothing=2
        )
        assert defect(rec) == 2

    # n = t - 1 + rows and p = t - 1 + cols put a codimension-2 shape, rows
    # and cols 1 and 2, among the draws often enough; the example, a record
    # at d = 4 with 2p > d + 2 that `mu_linked` must keep from
    # chi_smoothing, is one the random draws rarely reach
    @settings(max_examples=500)
    @given(t=st.integers(0, 5), rows=st.integers(0, 3), cols=st.integers(0, 3),
           d=st.integers(-1, 6), smoothable=st.booleans(),
           mu=st.none() | st.integers(-2, 12),
           chi_smoothing=st.none() | st.integers(-12, 12),
           chi_lower_stratum=st.none() | st.integers(-3, 3))
    @example(t=4, rows=2, cols=1, d=4, smoothable=False, mu=1,
             chi_smoothing=None, chi_lower_stratum=1)
    def test_records_raise_only_ledger_errors(self, t, rows, cols, **fields):
        # the CLI reads a LedgerError as exit 3 and anything else as a
        # program fault, so no field values may raise another exception:
        # chi_smoothing's UnsupportedDimensionError stays out of reach
        try:
            rec = SingularPointRecord(point="q", n=t - 1 + rows,
                                      p=t - 1 + cols, t=t, **fields)
        except LedgerError:
            return
        value = known_defect(rec)
        rec.resolved_chi_smoothing()
        if value is None:
            with pytest.raises(LedgerError):
                defect(rec)
        else:
            assert defect(rec) == value


class TestDefect:
    @pytest.mark.parametrize("mu", range(0, 101, 7))
    def test_surface_defect(self, mu):
        assert defect(cone_record(mu=mu)) == 1 + mu

    @pytest.mark.parametrize("mu", range(0, 101, 7))
    def test_threefold_defect(self, mu):
        rec = SingularPointRecord(
            point="v", n=2, p=3, t=2, d=3, smoothable=True, mu=mu
        )
        assert defect(rec) == mu

    @pytest.mark.parametrize("chi", range(-3, 4))
    def test_nonsmoothable_defect(self, chi):
        assert defect(apex_record(chi=chi)) == chi + 2

    def test_nonsmoothable_needs_lower_stratum(self):
        rec = SingularPointRecord(
            point="v", n=2, p=3, t=2, d=4, smoothable=False, chi_smoothing=1
        )
        assert known_defect(rec) is None
        with pytest.raises(LedgerError):
            defect(rec)

    def test_unresolvable_without_data(self):
        rec = cone_record(mu=None)
        assert known_defect(rec) is None
        with pytest.raises(LedgerError):
            defect(rec)

    def test_known_defect_keeps_a_zero_defect(self):
        # a threefold with mu = 0 has the defect 0, a known value
        rec = SingularPointRecord(
            point="v", n=2, p=3, t=2, d=3, smoothable=True, mu=0
        )
        assert known_defect(rec) == 0


class TestRadialBridge:
    def test_surface_example(self):
        assert phn_from_radial(1, 2, 2) == 2

    def test_threefold_example(self):
        assert phn_from_radial(1, 3, 2) == 0

    @pytest.mark.parametrize("d", (2, 3))
    def test_chi_one_is_neutral(self, d):
        for radial in (-2, 0, 1, 5):
            assert phn_from_radial(radial, d, 1) == radial

    @pytest.mark.parametrize("d", (2, 3))
    @pytest.mark.parametrize("mu", range(21))
    def test_radial_one_reproduces_defect(self, d, mu):
        rec = SingularPointRecord(
            point="v", n=2, p=3, t=2, d=d, smoothable=True, mu=mu
        )
        chi = chi_smoothing(MilnorData(d=d, mu=mu))
        assert phn_from_radial(1, d, chi) == defect(rec)

    @pytest.mark.parametrize("chi", range(-2, 3))
    def test_nonsmoothable_bridge(self, chi):
        rec = apex_record(chi=chi)
        assert phn_from_radial_nonsmoothable(1, rec) == defect(rec)
        assert phn_from_radial_nonsmoothable(0, rec) == defect(rec) - 1

    def test_vanishing_lower_stratum_reduces_to_plain_bridge(self):
        rec = apex_record(chi=1, lower=0)
        assert phn_from_radial_nonsmoothable(2, rec) == phn_from_radial(2, 4, 1)

    def test_smoothable_record_rejected(self):
        with pytest.raises(LedgerError):
            phn_from_radial_nonsmoothable(1, cone_record())

    @pytest.mark.parametrize("args, name", [
        ((1, 2.0, 2), "d"),
        ((1, True, 2), "d"),
        ((1, "2", 2), "d"),
        ((0.5, 2, 2), "radial_index"),
        ((False, 2, 2), "radial_index"),
        ((1, 2, 2.0), "chi_smoothing_value"),
        ((1, 2, "2"), "chi_smoothing_value"),
    ])
    def test_non_integers_rejected(self, args, name):
        # a float, bool or str never enters the formula as an integer
        with pytest.raises(LedgerError,
                           match=f"^phn_from_radial: {name} must be an integer$"):
            phn_from_radial(*args)

    @pytest.mark.parametrize("radial", [1.5, True, "1"])
    def test_nonsmoothable_non_integer_rejected(self, radial):
        with pytest.raises(LedgerError, match="^phn_from_radial_nonsmoothable: "
                                              "radial_index must be an integer$"):
            phn_from_radial_nonsmoothable(radial, apex_record(chi=5))


CONE_SMOOTH = {"[1:0:0:0:0]": 1, "[0:0:0:1:0]": 1}


def cone_ledger(vertex_index=3, chi_x=3, smooth=CONE_SMOOTH, **record):
    """The twisted-cubic cone's ledger as global_identity's arguments: the
    vertex record, carrying its index, the torus-fixed smooth zeros and
    chi(X)."""
    return [cone_record(index=vertex_index, **record)], smooth, chi_x


class TestGlobalIdentity:
    def test_verified(self):
        got = global_identity(*cone_ledger())
        assert got == IdentityResult(VERIFIED, lhs=5, rhs=5)

    def test_violated(self):
        got = global_identity(*cone_ledger(chi_x=4))
        assert got == IdentityResult(VIOLATED, lhs=5, rhs=6)

    def test_solve_index(self):
        got = global_identity(*cone_ledger(vertex_index=None))
        assert got.status == SOLVED
        assert got.name == f"index@{VERTEX}"
        assert got.value == 3
        assert got.lhs == got.rhs == 5

    def test_solve_smooth_index(self):
        smooth = {"[1:0:0:0:0]": None, "[0:0:0:1:0]": 1}
        got = global_identity(*cone_ledger(smooth=smooth))
        assert got == IdentityResult(SOLVED, lhs=5, rhs=5,
                                     name="index@[1:0:0:0:0]", value=1)

    def test_solve_chi(self):
        got = global_identity(*cone_ledger(chi_x=None))
        assert (got.status, got.name, got.value) == (SOLVED, "chi_X", 3)

    def test_zero_defect_is_not_an_unknown(self):
        # mu = 0 at a threefold gives the defect 0, so chi_X is the one
        # unknown: 5 = chi_X + 0
        got = global_identity(*cone_ledger(chi_x=None, d=3, mu=0))
        assert (got.status, got.name, got.value) == (SOLVED, "chi_X", 5)

    def test_solve_mu(self):
        got = global_identity(*cone_ledger(mu=None))
        assert (got.status, got.name, got.value) == (SOLVED, f"mu@{VERTEX}", 1)

    def test_solved_mu_round_trip(self):
        # substitute the solved mu back and the ledger must verify
        solved = global_identity(*cone_ledger(mu=None))
        again = global_identity(*cone_ledger(mu=solved.value))
        assert again.status == VERIFIED

    def test_negative_solved_mu_rejected(self):
        with pytest.raises(LedgerError):
            global_identity(*cone_ledger(vertex_index=0, mu=None))

    def test_two_unknowns_rejected(self):
        with pytest.raises(LedgerError):
            global_identity(*cone_ledger(vertex_index=None, chi_x=None))

    def test_unknown_defect_must_be_mu_linked(self):
        rec = SingularPointRecord(
            point="q", n=3, p=2, t=2, d=2, smoothable=True, mu=1, index=1
        )
        with pytest.raises(LedgerError):
            global_identity([rec], {}, 0)

    def test_duplicate_entries_rejected(self):
        # a smooth zero at the record's own point
        with pytest.raises(LedgerError) as info:
            global_identity(*cone_ledger(smooth={VERTEX: 1}))
        assert str(info.value) == f"duplicate ledger point {VERTEX}"

    def test_mixed_matrix_types_rejected(self):
        recs = [
            SingularPointRecord(point="a", n=2, p=3, t=2, d=2, smoothable=True,
                                mu=0, index=1),
            SingularPointRecord(point="b", n=3, p=2, t=2, d=2, smoothable=True,
                                chi_smoothing=2, index=1),
        ]
        with pytest.raises(LedgerError):
            global_identity(recs, {}, 0)

    def test_duplicate_records_rejected(self):
        with pytest.raises(LedgerError, match="^duplicate singular point records$"):
            global_identity([cone_record(index=3), cone_record(index=3)],
                            CONE_SMOOTH, 3)

    def test_mixed_germ_dimensions_rejected(self):
        recs = [cone_record(point="a", d=2, mu=0, index=1),
                cone_record(point="b", d=3, mu=1, index=1)]
        with pytest.raises(LedgerError,
                           match="^records must share one germ dimension d$"):
            global_identity(recs, {}, 0)

    @pytest.mark.parametrize("index", [True, 1.0, 0.5])
    def test_smooth_index_is_an_integer(self, index):
        smooth = {"[1:0:0:0:0]": index, "[0:0:0:1:0]": 1}
        with pytest.raises(LedgerError) as info:
            global_identity(*cone_ledger(smooth=smooth))
        assert str(info.value) == "ledger: index@[1:0:0:0:0] must be an integer"

    def test_classical_smooth_ledger(self):
        got = global_identity([], {"[1:0]": 1, "[0:1]": 1}, 2)
        assert got.status == VERIFIED


class TestCStarForms:
    def test_repeated_weights_rejected(self):
        model = catalecticant_model()
        with pytest.raises(ValueError, match="pairwise distinct"):
            cstar_fixed_points(model, (0, 1, 1, 3, 4))

    def test_catalecticant_fixed_points(self):
        model = catalecticant_model()
        got = cstar_fixed_points(model, (0, 1, 2, 3, 4))
        labels = [(str(p), loc.kind) for p, loc in got]
        assert labels == [
            ("[1:0:0:0:0]", SMOOTH_STRATUM),
            ("[0:0:0:1:0]", SMOOTH_STRATUM),
            ("[0:0:0:0:1]", ESSENTIAL_SINGULAR),
        ]

    def test_conic_fixed_points(self):
        m = PolyMatrix.from_strings([["x0*x2 - x1^2"]], ("x0", "x1", "x2"))
        model = DeterminantalModel(m, 1, AmbientSpace(PROJECTIVE, 2))
        got = cstar_fixed_points(model, (0, 1, 2))
        labels = [(str(p), loc.kind) for p, loc in got]
        assert labels == [("[1:0:0]", SMOOTH_STRATUM), ("[0:0:1]", SMOOTH_STRATUM)]

    def test_non_invariant_action_rejected(self):
        m = PolyMatrix.from_strings([["x0*x2 - x1^2"]], ("x0", "x1", "x2"))
        model = DeterminantalModel(m, 1, AmbientSpace(PROJECTIVE, 2))
        with pytest.raises(ValueError):
            cstar_fixed_points(model, (0, 2, 1))

    def test_affine_rejected(self):
        m = PolyMatrix.from_strings([["x"]], ("x", "y"))
        model = DeterminantalModel(m, 1, AmbientSpace(AFFINE, 2))
        with pytest.raises(ValueError):
            cstar_fixed_points(model, (0, 1))

    def test_weight_count_mismatch(self):
        model = catalecticant_model()
        with pytest.raises(ValueError):
            cstar_fixed_points(model, (0, 1, 2))

    def test_non_integer_weights_rejected(self):
        # distinct, but truncating 4.5 to 4 would give an answer for
        # weights that were never asked for
        model = catalecticant_model()
        with pytest.raises(TypeError, match="integer weight"):
            cstar_fixed_points(model, (0, 1, 2, 3, 4.5))

    def test_non_integer_weights_rejected_when_every_minor_is_zero(self):
        # the 2-minor of [[x0, x0], [x1, x1]] is 0, and the weights are still
        # checked
        m = PolyMatrix.from_strings([["x0", "x0"], ["x1", "x1"]], ("x0", "x1"))
        model = DeterminantalModel(m, 2, AmbientSpace(PROJECTIVE, 1))
        assert not any(minors(m, 2))
        with pytest.raises(TypeError, match="integer weights required"):
            cstar_fixed_points(model, (0, 0.5))

    def test_split_minors_run_no_buchberger(self, tmp_path, monkeypatch):
        # the column-operated Segre cone has 2-minors that split into weight
        # components; the span test decides them without a Groebner basis
        path = tmp_path / "segre_cone_column_op.json"
        path.write_text(json.dumps(SEGRE_CONE_COLUMN_OP), encoding="utf-8")
        loaded = load_input(path)
        assert any(len(gen.weight_components(loaded.weights)) > 1
                   for gen in minors(loaded.model.matrix, loaded.model.t))
        runs = []
        run = grobner._buchberger

        def counted_run(*args):
            runs.append(args)
            return run(*args)

        monkeypatch.setattr(grobner, "_buchberger", counted_run)
        fixed = cstar_fixed_points(loaded.model, loaded.weights)
        assert len(fixed) == 7
        assert runs == []


def reduce_every_component(model, weights):
    """The torus check against the full rank basis, minor by minor: every
    weight component of every t-minor is reduced against the reduced basis
    of the t-minors, and the action is refused iff one is nonzero.  On
    success, the coordinate points on the variety with their locations."""
    basis = buchberger(minors_ideal(model, model.t))
    for gen in minors(model.matrix, model.t):
        for part in gen.weight_components(weights).values():
            if normal_form(part, basis):
                raise ValueError("the weight action does not preserve the variety")
    count = len(model.variables)
    points = (ProjectivePoint([int(i == j) for i in range(count)])
              for j in range(count))
    return [(pt, loc) for pt in points
            if (loc := is_point_on_variety(model, pt)).kind != OUTSIDE]


def torus_outcome(check, model, weights):
    """The located fixed points as (label, kind) pairs, or the refusal."""
    try:
        got = check(model, weights)
    except ValueError as e:
        return str(e)
    return [(str(pt), loc.kind) for pt, loc in got]


def linear(variables, coefficients):
    """The linear form sum c * x over a {variable: c} map."""
    return sum((Polynomial.variable(variables, v) * c
                for v, c in coefficients.items()), Polynomial(variables))


@st.composite
def column_operated(draw, additive):
    """(model, weights): a generic or Hankel matrix of variables, with a few
    row and column operations that leave its rank ideals unchanged and may
    split its minors into weight components.  With `additive`, the weight of entry
    (i, j) is a_i + b_j, so every minor of the unoperated matrix is
    weighted-homogeneous and the action preserves the variety; otherwise the
    weights of a generic matrix are not of that form, and it does not."""
    n, p = draw(st.integers(2, 3)), draw(st.integers(2, 3))
    hankel = additive and draw(st.booleans())
    count = n + p - 1 if hankel else n * p
    extra = draw(st.integers(0, 1))  # a coordinate outside the matrix
    variables = tuple(f"x{i}" for i in range(count + extra))
    if hankel:
        index = [[i + j for j in range(p)] for i in range(n)]
        step = draw(st.integers(1, 3))
        weights = [step * k for k in range(count)]
    else:
        index = [[i * p + j for j in range(p)] for i in range(n)]
        if additive:
            rows = draw(st.lists(st.integers(0, 9), min_size=n, max_size=n,
                                 unique=True))
            cols = draw(st.lists(st.integers(0, 5), min_size=p, max_size=p,
                                 unique=True))
            weights = [rows[i] + 10 * cols[j] for i in range(n) for j in range(p)]
        else:
            weights = draw(st.lists(st.integers(-9, 9), min_size=count,
                                    max_size=count, unique=True))
            assume(any(weights[i * p + j] + weights[k * p + l]
                       != weights[i * p + l] + weights[k * p + j]
                       for i in range(n) for k in range(n)
                       for j in range(p) for l in range(p)))
    weights += [max(weights) + 1] * extra
    grid = [[{variables[k]: 1} for k in row] for row in index]
    for _ in range(draw(st.integers(1, 3))):
        on_rows = draw(st.booleans())
        size = n if on_rows else p
        target = draw(st.integers(0, size - 1))
        source = draw(st.integers(0, size - 1).filter(lambda k: k != target))
        c = draw(st.sampled_from([-2, -1, 1, 2]))
        cells = ([(target, j, source, j) for j in range(p)] if on_rows
                 else [(i, target, i, source) for i in range(n)])
        for i, j, a, b in cells:
            for v, x in grid[a][b].items():
                grid[i][j][v] = grid[i][j].get(v, 0) + c * x
    matrix = PolyMatrix([[linear(variables, e) for e in row] for row in grid])
    t = draw(st.integers(2, min(n, p)))
    model = DeterminantalModel(matrix, t,
                               AmbientSpace(PROJECTIVE, len(variables) - 1))
    return model, tuple(weights)


@st.composite
def linear_t1_or_constant(draw):
    """(model, weights): t = 1 over random linear forms, whose 1-minors are
    the entries, or any t over a nonzero matrix of constants."""
    nvars = draw(st.integers(2, 4))
    variables = tuple(f"x{i}" for i in range(nvars))
    n, p = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    if draw(st.booleans()):
        cell = st.dictionaries(st.sampled_from(variables),
                               st.integers(-2, 2).filter(bool),
                               min_size=1, max_size=3)
        grid = [[linear(variables, draw(cell)) for _ in range(p)]
                for _ in range(n)]
        t = 1
    else:
        values = draw(st.lists(st.integers(-2, 2), min_size=n * p,
                               max_size=n * p).filter(any))
        grid = [[Polynomial.constant(variables, values[i * p + j])
                 for j in range(p)] for i in range(n)]
        t = draw(st.integers(1, min(n, p)))
    weights = draw(st.lists(st.integers(-9, 9), min_size=nvars,
                            max_size=nvars, unique=True))
    model = DeterminantalModel(PolyMatrix(grid), t,
                               AmbientSpace(PROJECTIVE, nvars - 1))
    return model, tuple(weights)


class TestCStarOracle:
    """`cstar_fixed_points` tests the span of the minors only when some minor
    splits, and decides exactly as reducing every component of every minor
    against the rank basis does."""

    @given(column_operated(additive=True))
    def test_split_minors_of_a_preserved_variety(self, case):
        model, weights = case
        want = torus_outcome(reduce_every_component, model, weights)
        assert isinstance(want, list)
        assert torus_outcome(cstar_fixed_points, model, weights) == want

    @given(column_operated(additive=False))
    def test_weights_that_do_not_preserve_the_variety(self, case):
        model, weights = case
        want = torus_outcome(reduce_every_component, model, weights)
        assert want == "the weight action does not preserve the variety"
        assert torus_outcome(cstar_fixed_points, model, weights) == want

    @given(linear_t1_or_constant())
    def test_t1_and_degree_zero_models(self, case):
        model, weights = case
        assert (torus_outcome(cstar_fixed_points, model, weights)
                == torus_outcome(reduce_every_component, model, weights))


def cstar_fixtures():
    """The bundled fixtures whose form is the cstar form, by file name."""
    return sorted(
        path.name for path in (files("detsing") / "fixtures").iterdir()
        if json.loads(path.read_text(encoding="utf-8")).get("form", {}).get("kind")
        == "cstar")


def hankel_model(k, cone):
    """The 2 x k Hankel matrix in x0..xk at t = 2: the rational normal curve
    of degree k, or with one more coordinate the cone over it."""
    count = k + 1 + cone
    variables = tuple(f"x{i}" for i in range(count))
    grid = [[f"x{r + c}" for c in range(k)] for r in range(2)]
    return DeterminantalModel(PolyMatrix.from_strings(grid, variables), 2,
                              AmbientSpace(PROJECTIVE, count - 1))


def generic_model(n, p):
    """The generic n x p matrix at t = 2: the Segre variety P^(n-1) x P^(p-1)."""
    variables = tuple(f"x{i}" for i in range(n * p))
    grid = [[f"x{r * p + c}" for c in range(p)] for r in range(n)]
    return DeterminantalModel(PolyMatrix.from_strings(grid, variables), 2,
                              AmbientSpace(PROJECTIVE, n * p - 1))


class TestFixedPointEuler:
    """chi(X) counted from the torus fixed points, independently of the
    identity: with pairwise distinct weights the torus fixes exactly the
    coordinate points, and every other orbit has Euler characteristic 0, so
    chi(X) is the number of coordinate points on X (Bialynicki-Birula 1973,
    Ann. of Math. 98), singular or not."""

    def test_the_fixtures_include_the_solved_and_the_wrong_chi(self):
        names = cstar_fixtures()
        assert {"twisted_cubic_euler.json", "twisted_cubic_wrong_chi.json"} <= set(names)

    @pytest.mark.parametrize("name", cstar_fixtures())
    def test_every_cstar_fixture(self, run_cli, name):
        loaded = load_input(fixture_path(name))
        fixed = len(cstar_fixed_points(loaded.model, loaded.weights))
        chi = loaded.chi_x
        if chi is None:
            # left out, chi(X) is the unknown that `euler` solves for
            code, out, _ = run_cli("euler", fixture_path(name), "--json")
            identity = json.loads(out)["identity"]
            assert (code, identity["status"], identity["name"]) == (0, SOLVED, "chi_X")
            chi = identity["value"]
        if name == "twisted_cubic_wrong_chi.json":
            # built to violate the identity: the twisted cubic cone has 3
            assert (fixed, chi) == (3, 4)
        else:
            assert fixed == chi

    @pytest.mark.parametrize("k", [2, 3, 5, 8])
    def test_hankel_curves_and_cones(self, k):
        # the curve's fixed points are [1:0:...:0] and [0:...:0:1]; the
        # cone adds its vertex
        for cone, chi in ((False, 2), (True, 3)):
            model = hankel_model(k, cone)
            weights = tuple(range(len(model.variables)))
            assert len(cstar_fixed_points(model, weights)) == chi

    @pytest.mark.parametrize("n, p", [(2, 2), (2, 3), (3, 3), (2, 4)])
    def test_generic_segre_varieties(self, n, p):
        # chi(P^(n-1) x P^(p-1)) = n * p, and every coordinate point has rank 1
        model = generic_model(n, p)
        weights = tuple(range(n * p))
        assert len(cstar_fixed_points(model, weights)) == n * p
