from fractions import Fraction

import pytest

from detsing.detvar import (
    AFFINE,
    ESSENTIAL_SINGULAR,
    OUTSIDE,
    PROJECTIVE,
    SMOOTH_STRATUM,
    AmbientSpace,
    DeterminantalModel,
    ProjectivePoint,
    _rational_roots,
    _solve_zero_dimensional,
    chart_ideal,
    chart_matrix,
    classify,
    is_point_on_variety,
    lower_locus_generators,
    minors_ideal,
)
from detsing.grobner import Ideal, buchberger, ideal_dimension, normal_form
from detsing.polyalg import PolyMatrix, Polynomial, minors, parse_polynomial

P4 = ("x0", "x1", "x2", "x3", "x4")


def catalecticant_model():
    grid = [["x0", "x1", "x2"], ["x1", "x2", "x3"]]
    return DeterminantalModel(
        PolyMatrix.from_strings(grid, P4), 2, AmbientSpace(PROJECTIVE, 4)
    )


def segre_cone_model():
    variables = tuple(f"x{i}" for i in range(7))
    grid = [["x0", "x1", "x2"], ["x3", "x4", "x5"]]
    return DeterminantalModel(
        PolyMatrix.from_strings(grid, variables), 2, AmbientSpace(PROJECTIVE, 6)
    )


class TestProjectivePoint:
    def test_gcd_normalization(self):
        assert ProjectivePoint((2, 4, 0)) == ProjectivePoint((1, 2, 0))

    def test_sign_normalization(self):
        p = ProjectivePoint((-1, 2))
        assert p.coords == (1, -2)
        assert str(p) == "[1:-2]"

    def test_parse_round_trip(self):
        p = ProjectivePoint.parse("[0:0:0:0:1]")
        assert p.coords == (0, 0, 0, 0, 1)
        assert ProjectivePoint.parse(str(p)) == p

    def test_chart_index(self):
        assert ProjectivePoint((0, 0, 3, 1)).chart_index() == 2

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            ProjectivePoint((0, 0, 0))

    def test_parse_errors(self):
        for bad in ("", "[1:2", "1:2", "[a:b]", "[]"):
            with pytest.raises(ValueError):
                ProjectivePoint.parse(bad)

    def test_fraction_coordinates_are_cleared(self):
        p = ProjectivePoint.from_fractions((Fraction(1, 2), Fraction(3, 2)))
        assert p.coords == (1, 3)


class TestModelValidation:
    def test_ambient_kind(self):
        with pytest.raises(ValueError):
            AmbientSpace("euclidean", 2)

    def test_ambient_dim(self):
        with pytest.raises(ValueError):
            AmbientSpace(AFFINE, 0)

    def test_t_range(self):
        m = PolyMatrix.from_strings([["x0", "x1", "x2"], ["x1", "x2", "x3"]], P4)
        for t in (0, 3):
            with pytest.raises(ValueError):
                DeterminantalModel(m, t, AmbientSpace(PROJECTIVE, 4))

    def test_variable_count(self):
        m = PolyMatrix.from_strings([["x0", "x1", "x2"], ["x1", "x2", "x3"]], P4)
        with pytest.raises(ValueError):
            DeterminantalModel(m, 2, AmbientSpace(PROJECTIVE, 3))

    def test_projective_requires_homogeneous_entries(self):
        m = PolyMatrix.from_strings([["x0 + 1", "x1"], ["x1", "x2"]], ("x0", "x1", "x2"))
        with pytest.raises(ValueError):
            DeterminantalModel(m, 2, AmbientSpace(PROJECTIVE, 2))

    def test_projective_requires_common_degree(self):
        m = PolyMatrix.from_strings([["x0^2", "x1"], ["x1", "x2"]], ("x0", "x1", "x2"))
        with pytest.raises(ValueError):
            DeterminantalModel(m, 2, AmbientSpace(PROJECTIVE, 2))

    def test_affine_entries_unconstrained(self):
        m = PolyMatrix.from_strings([["x0 + 1", "x1"], ["x1", "x2"]], ("x0", "x1", "x2"))
        model = DeterminantalModel(m, 2, AmbientSpace(AFFINE, 3))
        assert model.n == 2 and model.p == 2


class TestTypeNumerology:
    def test_expected_codimension(self):
        assert catalecticant_model().expected_codimension() == 2

    def test_smoothability_bound(self):
        assert catalecticant_model().smoothability_bound() == 6

    def test_smoothable_type_by_ambient_dimension(self):
        assert catalecticant_model().smoothable_type() is True
        assert segre_cone_model().smoothable_type() is False

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_bound_formula(self, n, p):
        variables = tuple(f"y{i}" for i in range(n * p))
        grid = [[variables[i * p + j] for j in range(p)] for i in range(n)]
        matrix = PolyMatrix.from_strings(grid, variables)
        for t in range(1, min(n, p) + 1):
            model = DeterminantalModel(matrix, t, AmbientSpace(AFFINE, n * p))
            assert model.expected_codimension() == (n - t + 1) * (p - t + 1)
            assert model.smoothability_bound() == (n - t + 2) * (p - t + 2)
            for r in range(1, 10):
                ambient = AmbientSpace(AFFINE, r)
                assert (r < model.smoothability_bound()) == (
                    ambient.dim < (n - t + 2) * (p - t + 2)
                )


class TestPointLocation:
    def test_rank_strata(self):
        model = catalecticant_model()
        vertex = is_point_on_variety(model, ProjectivePoint.parse("[0:0:0:0:1]"))
        assert (vertex.kind, vertex.rank) == (ESSENTIAL_SINGULAR, 0)
        smooth = is_point_on_variety(model, (1, 0, 0, 0, 0))
        assert (smooth.kind, smooth.rank) == (SMOOTH_STRATUM, 1)
        off = is_point_on_variety(model, (0, 1, 0, 0, 0))
        assert (off.kind, off.rank) == (OUTSIDE, 2)

    def test_any_representative(self):
        model = catalecticant_model()
        scaled = is_point_on_variety(model, (0, 0, 0, 0, 7))
        assert scaled.kind == ESSENTIAL_SINGULAR

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            is_point_on_variety(catalecticant_model(), (1, 0))

    def test_zero_projective_point(self):
        with pytest.raises(ValueError):
            is_point_on_variety(catalecticant_model(), (0, 0, 0, 0, 0))


class TestIdeals:
    def test_lower_rank_ideal_is_coordinate_ideal(self):
        basis = buchberger(minors_ideal(catalecticant_model(), 1))
        assert [str(g) for g in basis.polynomials] == ["x0", "x1", "x2", "x3"]

    def test_maximal_minor_count(self):
        gens = minors_ideal(catalecticant_model(), 2).generators
        assert len(gens) == 3

    def test_next_minor_lies_in_smaller_rank_ideal(self):
        # the 3x3 determinant of a generic matrix is in the ideal of 2-minors
        variables = tuple("abcdefghi")
        grid = [list("abc"), list("def"), list("ghi")]
        model = DeterminantalModel(
            PolyMatrix.from_strings(grid, variables), 2, AmbientSpace(AFFINE, 9)
        )
        basis = buchberger(minors_ideal(model, 2))
        from detsing.polyalg import determinant

        det = determinant(model.matrix)
        assert not normal_form(det, basis).terms

    @pytest.mark.parametrize("rows, cols", [(2, 3), (2, 4), (3, 3), (3, 4)])
    def test_lower_generators_span_the_t_minors_generic(self, rows, cols):
        variables = tuple(f"x{i}" for i in range(rows * cols))
        grid = [[variables[i * cols + j] for j in range(cols)]
                for i in range(rows)]
        self.check_lower_generators(PolyMatrix.from_strings(grid, variables))

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_lower_generators_span_the_t_minors_hankel(self, k):
        variables = tuple(f"x{i}" for i in range(k + 1))
        grid = [list(variables[:k]), list(variables[1:])]
        self.check_lower_generators(PolyMatrix.from_strings(grid, variables))

    @staticmethod
    def check_lower_generators(m):
        # Laplace expansion puts every t-minor in the (t - 1)-minors ideal
        v = m.variables
        for t in range(2, min(m.rows, m.cols) + 1):
            full = minors(m, t - 1) + minors(m, t)
            assert (buchberger(Ideal(v, lower_locus_generators(m, t)))
                    == buchberger(Ideal(v, full)))

    def test_lower_generators_for_t_one_are_the_unit_ideal(self):
        m = catalecticant_model().matrix
        assert lower_locus_generators(m, 1) == [Polynomial.constant(P4, 1)]


class TestRationalRoots:
    def test_splitting_polynomial(self):
        # 2*x^4 + x^3 - 3*x^2 = x^2 (x - 1) (2*x + 3)
        coeffs = [Fraction(c) for c in (0, 0, -3, 1, 2)]
        roots, complete = _rational_roots(coeffs)
        assert roots == [
            (Fraction(-3, 2), 1),
            (Fraction(0), 2),
            (Fraction(1), 1),
        ]
        assert complete

    def test_irreducible_quadratic(self):
        roots, complete = _rational_roots([Fraction(1), Fraction(0), Fraction(1)])
        assert roots == [] and not complete

    def test_mixed_factorization(self):
        # (x - 1)^2 (x^2 + 1)
        coeffs = [Fraction(c) for c in (1, -2, 2, -2, 1)]
        roots, complete = _rational_roots(coeffs)
        assert roots == [(Fraction(1), 2)] and not complete

    def test_constant(self):
        assert _rational_roots([Fraction(5)]) == ([], True)

    def test_denominators_cleared(self):
        coeffs = [Fraction(-1, 2), Fraction(0), Fraction(1, 2)]
        roots, complete = _rational_roots(coeffs)
        assert roots == [(Fraction(-1), 1), (Fraction(1), 1)] and complete


class TestZeroDimensionalSolver:
    def solve(self, texts, variables):
        gens = [parse_polynomial(t, variables) for t in texts]
        return _solve_zero_dimensional(gens, variables, 100000)

    def test_two_points(self):
        points, complete = self.solve(("x^2 - 1", "y - x"), ("x", "y"))
        assert sorted(points) == [(-1, -1), (1, 1)]
        assert complete

    def test_no_rational_points(self):
        points, complete = self.solve(("x^2 + 1", "y"), ("x", "y"))
        assert points == [] and not complete

    def test_inconsistent_system(self):
        points, complete = self.solve(("x", "x - 1"), ("x",))
        assert points == [] and complete

    def test_positive_dimensional(self):
        points, complete = self.solve(("x*y",), ("x", "y"))
        assert points == [] and not complete


SHIFT = Polynomial.shift


@pytest.fixture
def shift_calls(monkeypatch):
    """The polynomials passed to Polynomial.shift while the test runs."""
    calls = []

    def counting_shift(self, offsets):
        calls.append(self)
        return SHIFT(self, offsets)

    monkeypatch.setattr(Polynomial, "shift", counting_shift)
    return calls


class TestCharts:
    def test_vertex_chart_recovers_cone_matrix(self):
        model = catalecticant_model()
        m = chart_matrix(model, ProjectivePoint.parse("[0:0:0:0:1]"))
        assert m.variables == ("x0", "x1", "x2", "x3")
        expected = PolyMatrix.from_strings(
            [["x0", "x1", "x2"], ["x1", "x2", "x3"]], m.variables
        )
        assert m.entries == expected.entries

    def test_translated_projective_chart(self):
        grid = [["x0 - x4", "x1", "x2"], ["x1", "x2", "x3"]]
        model = DeterminantalModel(
            PolyMatrix.from_strings(grid, P4), 2, AmbientSpace(PROJECTIVE, 4)
        )
        m = chart_matrix(model, ProjectivePoint.parse("[1:0:0:0:1]"))
        assert m.variables == ("x1", "x2", "x3", "x4")
        assert str(m.entry(0, 0)) == "-x4"
        assert str(m.entry(1, 2)) == "x3"

    def test_affine_shift(self):
        m = PolyMatrix.from_strings([["x"]], ("x", "y"))
        model = DeterminantalModel(m, 1, AmbientSpace(AFFINE, 2))
        shifted = chart_matrix(model, (Fraction(3), Fraction(5)))
        assert str(shifted.entry(0, 0)) == "x + 3"

    def test_equal_entries_shift_once(self, shift_calls):
        variables = ("x", "y")
        f, g = "(x - 1)*(x + 2)", "(y - 3)*(y + 1)"
        matrix = PolyMatrix.from_strings([[f, g], [g, f]], variables)
        model = DeterminantalModel(matrix, 2, AmbientSpace(AFFINE, 2))
        for point in [(1, 3), (-2, -1), (Fraction(1, 2), 0)]:
            shift_calls.clear()
            charted = chart_matrix(model, point)
            assert len(shift_calls) == 2
            offsets = [Fraction(c) for c in point]
            assert charted.entries == tuple(
                tuple(SHIFT(e, offsets) for e in row) for row in matrix.entries)

    def test_projective_chart_rewrites_each_distinct_entry_once(self, shift_calls):
        model = catalecticant_model()
        point = ProjectivePoint.parse("[1:2:0:0:1]")
        charted = chart_matrix(model, point)
        assert len(shift_calls) == 4
        offsets = [Fraction(c) for c in point.coords[1:]]
        assert charted.entries == tuple(
            tuple(SHIFT(e.eliminate({0: 1}), offsets) for e in row)
            for row in model.matrix.entries)

    def test_chart_ideal_generators(self):
        model = catalecticant_model()
        chart = chart_ideal(model, ProjectivePoint.parse("[0:0:0:0:1]"))
        assert len(chart.generators) == 3
        assert ideal_dimension(buchberger(chart)) == 2


class TestClassification:
    def test_catalecticant(self):
        got = classify(catalecticant_model())
        assert not got.empty
        assert got.codimension == 2
        assert got.dimension == 2
        assert got.determinantal
        assert got.isolated_singularity
        assert got.smoothable
        assert got.singular_locus_dimension == 1
        assert [str(p) for p in got.singular_points] == ["[0:0:0:0:1]"]
        assert got.singular_points_exact
        assert got.local_supported
        assert got.notes == ()

    def test_translated_cone(self):
        grid = [["x0 - x4", "x1", "x2"], ["x1", "x2", "x3"]]
        model = DeterminantalModel(
            PolyMatrix.from_strings(grid, P4), 2, AmbientSpace(PROJECTIVE, 4)
        )
        got = classify(model)
        assert got.codimension == 2
        assert got.isolated_singularity
        assert [str(p) for p in got.singular_points] == ["[1:0:0:0:1]"]
        assert got.local_supported

    def test_segre_cone(self):
        got = classify(segre_cone_model())
        assert got.codimension == 2
        assert got.dimension == 4
        assert got.determinantal
        assert not got.smoothable
        assert got.isolated_singularity
        assert [str(p) for p in got.singular_points] == ["[0:0:0:0:0:0:1]"]

    def test_empty_variety(self):
        m = PolyMatrix.from_strings([["1", "0"], ["0", "1"]], ("x", "y"))
        model = DeterminantalModel(m, 1, AmbientSpace(AFFINE, 2))
        got = classify(model)
        assert got.empty
        assert got.codimension is None
        assert "empty" in got.notes[0]

    def test_smooth_conic(self):
        m = PolyMatrix.from_strings([["x0*x2 - x1^2"]], ("x0", "x1", "x2"))
        model = DeterminantalModel(m, 1, AmbientSpace(PROJECTIVE, 2))
        got = classify(model)
        assert got.codimension == 1
        assert got.dimension == 1
        assert got.determinantal
        assert got.singular_points == ()
        assert got.isolated_singularity

    def test_non_quasi_homogeneous_germ_flagged(self):
        grid = [["x0", "x1"], ["x1", "x0^2 + x1^3 - x1^2"]]
        m = PolyMatrix.from_strings(grid, ("x0", "x1"))
        model = DeterminantalModel(m, 2, AmbientSpace(AFFINE, 2))
        got = classify(model)
        assert not got.local_supported
        assert got.singular_points == ((Fraction(0), Fraction(0)),)
        assert any("weighted-homogeneous" in note for note in got.notes)

    def test_zero_matrix_rejected(self):
        m = PolyMatrix.from_strings([["0"]], ("x",))
        model = DeterminantalModel(m, 1, AmbientSpace(AFFINE, 1))
        with pytest.raises(ValueError):
            classify(model)
