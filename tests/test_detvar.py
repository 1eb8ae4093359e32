import json
import operator
from collections import Counter
from fractions import Fraction
from itertools import product
from math import gcd, isqrt
from random import Random

import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

from detsing import detvar, grobner, polyalg
from detsing.detvar import (
    AFFINE,
    ESSENTIAL_SINGULAR,
    MAX_ROOT_CANDIDATES,
    MAX_ROOT_COEFFICIENT,
    OUTSIDE,
    PROJECTIVE,
    SMOOTH_STRATUM,
    AmbientSpace,
    DeterminantalModel,
    ProjectivePoint,
    _divide_linear,
    _rational_roots,
    _solve_zero_dimensional,
    chart_ideal,
    chart_matrix,
    classify,
    is_point_on_variety,
    lower_locus_generators,
    parse_point,
    point_label,
)
from detsing.grobner import (Ideal, ResourceLimitExceeded, SPairBudgetExceeded,
                             buchberger, certified_dimension, ideal_dimension,
                             normal_form, quasi_homogeneous_weights)
from detsing.polyalg import (PolyMatrix, Polynomial, minors, parse_polynomial,
                             rank_at_point)

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
        p = ProjectivePoint((0, 0, 0, 0, 1))
        assert p.coords == (0, 0, 0, 0, 1)
        assert parse_point(str(p), catalecticant_model()) == p

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            ProjectivePoint((0, 0, 0))

    def test_parse_errors(self):
        for bad in ("", "[1:2", "1:2", "[a:b]", "[]"):
            with pytest.raises(ValueError):
                parse_point(bad, catalecticant_model())

    def test_parse_takes_ascii_digits_only(self):
        # the entries are read before their count is checked
        for bad in ("[1_0:0:2]", "[\u0661:0]", "[+1:0]", "[1 0:2]", "[1.0:2]"):
            with pytest.raises(ValueError, match="entries must be integers"):
                parse_point(bad, catalecticant_model())
        line = DeterminantalModel(PolyMatrix.from_strings([["x0", "x1"]], ("x0", "x1")),
                                  1, AmbientSpace(PROJECTIVE, 1))
        assert parse_point(" [ -2 : 04 ] ", line).coords == (1, -2)

    def test_fraction_coordinates_are_cleared(self):
        p = ProjectivePoint((Fraction(1, 2), Fraction(3, 2)))
        assert p.coords == (1, 3)
        assert ProjectivePoint((Fraction(-1, 2), 0, 2)).coords == (1, 0, -4)

    @pytest.mark.parametrize("make", [
        lambda: ProjectivePoint((1.5, 2)),
        lambda: ProjectivePoint((2.0, 1)),
        lambda: ProjectivePoint((0.5, 1)),
        lambda: ProjectivePoint((Fraction(1, 2), 1.0)),
    ], ids=["init", "init-integral-float", "init-half", "init-fraction-and-float"])
    def test_float_coordinates_are_rejected(self, make):
        with pytest.raises(TypeError):
            make()

    def test_integral_fraction_coordinates_are_accepted(self):
        assert ProjectivePoint((Fraction(4, 2), 2)).coords == (1, 1)
        assert str(ProjectivePoint((Fraction(1, 2), 1))) == "[1:2]"

    @given(st.lists(st.integers(-50, 50), min_size=1, max_size=5).filter(any),
           st.fractions().filter(bool))
    def test_rational_multiples_are_one_point(self, w, q):
        # every nonzero rational multiple of w is the point of w, stored as
        # coprime integers whose first nonzero entry is positive
        point = ProjectivePoint([q * x for x in w])
        assert point == ProjectivePoint(w)
        assert all(type(c) is int for c in point.coords)
        assert gcd(*point.coords) == 1
        assert next(c for c in point.coords if c) > 0


class TestParsePoint:
    """`parse_point` reads both point grammars into the model's point type."""

    def affine_model(self):
        matrix = PolyMatrix.from_strings([["x", "y"]], ("x", "y"))
        return DeterminantalModel(matrix, 1, AmbientSpace(AFFINE, 2))

    def test_projective(self):
        point = parse_point(" [0:0:0:0:-2] ", catalecticant_model())
        assert point == ProjectivePoint((0, 0, 0, 0, 1))
        assert point_label(point) == "[0:0:0:0:1]"

    def test_affine(self):
        point = parse_point("(-3/4, 0.25)", self.affine_model())
        assert point == (Fraction(-3, 4), Fraction(1, 4))
        assert point_label(point) == "(-3/4, 1/4)"

    @pytest.mark.parametrize("text, message", [
        ("[0:0:1]", "expected 5 coordinates"),
        ("(0, 0, 0, 0, 1)", "must look like"),
        ("[0:0:0:0:1.0]", "entries must be integers"),
        ("[0:0:0:0:0]", "needs a nonzero coordinate"),
    ])
    def test_projective_errors(self, text, message):
        with pytest.raises(ValueError, match=message):
            parse_point(text, catalecticant_model())

    @pytest.mark.parametrize("text, message", [
        ("(0)", "expected 2 coordinates"),
        ("[0:1]", "look like"),
        ("(1e3, 0)", "rational numbers"),
        ("(1/0, 0)", "rational numbers"),
        ("(" + "9" * 5000 + ", 0)", "rational numbers"),
    ])
    def test_affine_errors(self, text, message):
        with pytest.raises(ValueError, match=message):
            parse_point(text, self.affine_model())


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
        vertex = ProjectivePoint((0, 0, 0, 0, 1))
        assert is_point_on_variety(model, vertex) == ESSENTIAL_SINGULAR
        assert rank_at_point(model.matrix, vertex.coords) == 0
        smooth = (1, 0, 0, 0, 0)
        assert is_point_on_variety(model, smooth) == SMOOTH_STRATUM
        assert rank_at_point(model.matrix, smooth) == 1
        off = (0, 1, 0, 0, 0)
        assert is_point_on_variety(model, off) == OUTSIDE
        assert rank_at_point(model.matrix, off) == 2

    def test_any_representative(self):
        model = catalecticant_model()
        scaled = is_point_on_variety(model, (0, 0, 0, 0, 7))
        assert scaled == ESSENTIAL_SINGULAR

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            is_point_on_variety(catalecticant_model(), (1, 0))

    def test_zero_projective_point(self):
        with pytest.raises(ValueError):
            is_point_on_variety(catalecticant_model(), (0, 0, 0, 0, 0))

    @pytest.mark.parametrize("check", [is_point_on_variety, chart_matrix,
                                       chart_ideal],
                             ids=["is_point_on_variety", "chart_matrix",
                                  "chart_ideal"])
    def test_affine_model_refuses_a_projective_point(self, check):
        # ProjectivePoint((2, 4)) is stored as [1:2]; read as affine
        # coordinates it would name (1, 2), off the variety, where (2, 4) lies
        # on it
        matrix = PolyMatrix.from_strings([["x - 2", "y - 4"]], ("x", "y"))
        model = DeterminantalModel(matrix, 1, AmbientSpace(AFFINE, 2))
        assert is_point_on_variety(model, (2, 4)) == SMOOTH_STRATUM
        with pytest.raises(ValueError, match="not a ProjectivePoint"):
            check(model, ProjectivePoint((2, 4)))


class TestIdeals:
    def test_lower_rank_ideal_is_coordinate_ideal(self):
        model = catalecticant_model()
        basis = buchberger(Ideal(model.variables, minors(model.matrix, 1)))
        assert [str(g) for g in basis.polynomials] == ["x0", "x1", "x2", "x3"]

    def test_maximal_minor_count(self):
        model = catalecticant_model()
        gens = Ideal(model.variables, minors(model.matrix, 2)).generators
        assert len(gens) == 3

    def test_next_minor_lies_in_smaller_rank_ideal(self):
        # the 3x3 determinant of a generic matrix is in the ideal of 2-minors
        variables = tuple("abcdefghi")
        grid = [list("abc"), list("def"), list("ghi")]
        model = DeterminantalModel(
            PolyMatrix.from_strings(grid, variables), 2, AmbientSpace(AFFINE, 9)
        )
        basis = buchberger(Ideal(model.variables, minors(model.matrix, 2)))
        (det,) = minors(model.matrix, 3)
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

    def test_lower_generators_are_the_distinct_nonzero_minors(self):
        # the 1-minors of [[f, g], [g, f]] are [f, g, g, f], and a zero
        # entry is no generator
        f, g = "x^2 - 1", "y^3 - y"
        m = PolyMatrix.from_strings([[f, g], [g, f]], ("x", "y"))
        assert lower_locus_generators(m, 2) == [m.entries[0][0], m.entries[0][1]]
        m = PolyMatrix.from_strings([["x", "0", "x"], ["0", "y", "x"]], ("x", "y"))
        assert lower_locus_generators(m, 2) == [m.entries[0][0], m.entries[1][1]]
        # the 2-minors of [[x, x, y], [y, y, x]] are 0, x^2 - y^2, x^2 - y^2
        m = PolyMatrix.from_strings([["x", "x", "y"], ["y", "y", "x"]], ("x", "y"))
        assert lower_locus_generators(m, 3) == [minors(m, 2)[1]]

    def test_lower_generators_for_t_one_are_the_unit_ideal(self):
        m = catalecticant_model().matrix
        assert lower_locus_generators(m, 1) == [Polynomial.constant(P4, 1)]


class TestRationalRoots:
    def test_splitting_polynomial(self):
        # 2*x^4 + x^3 - 3*x^2 = x^2 (x - 1) (2*x + 3): the double root 0
        # is listed once
        coeffs = [Fraction(c) for c in (0, 0, -3, 1, 2)]
        roots, complete = _rational_roots(coeffs)
        assert roots == [Fraction(-3, 2), Fraction(0), Fraction(1)]
        assert complete

    def test_irreducible_quadratic(self):
        roots, complete = _rational_roots([Fraction(1), Fraction(0), Fraction(1)])
        assert roots == [] and not complete

    def test_mixed_factorization(self):
        # (x - 1)^2 (x^2 + 1)
        coeffs = [Fraction(c) for c in (1, -2, 2, -2, 1)]
        roots, complete = _rational_roots(coeffs)
        assert roots == [Fraction(1)] and not complete

    def test_constant(self):
        assert _rational_roots([Fraction(5)]) == ([], True)

    def test_denominators_cleared(self):
        coeffs = [Fraction(-1, 2), Fraction(0), Fraction(1, 2)]
        roots, complete = _rational_roots(coeffs)
        assert roots == [Fraction(-1), Fraction(1)] and complete

    @given(st.dictionaries(
               st.builds(Fraction, st.integers(min_value=-12, max_value=12),
                         st.integers(min_value=1, max_value=6)),
               st.integers(min_value=1, max_value=3), max_size=4),
           st.integers(min_value=-5, max_value=5).filter(bool),
           st.booleans())
    def test_roots_of_a_product_of_linear_factors(self, mults, scale, quadratic):
        # scale * prod (x - r)^m, times the irreducible x^2 + 2 if `quadratic`
        coeffs = [Fraction(scale)]
        factors = [[-r, 1] for r, m in mults.items() for _ in range(m)]
        if quadratic:
            factors.append([2, 0, 1])
        for factor in factors:
            product = [Fraction(0)] * (len(coeffs) + len(factor) - 1)
            for i, a in enumerate(coeffs):
                for j, b in enumerate(factor):
                    product[i + j] += a * b
            coeffs = product
        roots, complete = _rational_roots(coeffs)
        assert roots == sorted(mults)
        assert complete == (not quadratic)

    def test_linear_factor_needs_no_search(self):
        # 2^8 3^5 5^3 7^2 11 13 has 2592 divisors and 17 19 23 29 31 37 has 64:
        # far more candidates than the limit, but a linear root is read off
        a, b = 17 * 19 * 23 * 29 * 31 * 37, 2**8 * 3**5 * 5**3 * 7**2 * 11 * 13
        assert _rational_roots([-b, a]) == ([Fraction(b, a)], True)
        assert _rational_roots([0, -b, a]) == ([Fraction(0), Fraction(b, a)], True)

    def test_quadratic_factor_needs_no_search(self):
        # (33263*x - 907200) (1763*x - 1062347): 6720 divisors of the constant
        # term by 32 of the leading coefficient, and both roots come after
        # more candidates than the limit
        roots, complete = _rational_roots(
            _product([-907200, 29 * 31 * 37], [-1062347, 41 * 43]))
        assert roots == [Fraction(907200, 33263),
                         Fraction(1062347, 1763)] and complete
        # a double root is listed once
        assert _rational_roots(_product([-3, 2], [-3, 2])) == ([Fraction(3, 2)], True)
        a, b = 17 * 19 * 23 * 29 * 31 * 37, 2**8 * 3**5 * 5**3 * 7**2 * 11 * 13
        assert _rational_roots([-b, 0, a]) == ([], False)

    def test_linear_and_quadratic_factors_past_the_coefficient_bound(self):
        # end coefficients past MAX_ROOT_COEFFICIENT need no search when at
        # most a quadratic is left
        big = 10000000000037
        assert big > MAX_ROOT_COEFFICIENT
        assert _rational_roots([-3, big]) == ([Fraction(3, big)], True)
        # (p*y - 1) (q*y - 1)
        p, q = 1000003, 1000033
        assert p * q > MAX_ROOT_COEFFICIENT
        assert _rational_roots([1, -(p + q), p * q]) == (
            [Fraction(1, q), Fraction(1, p)], True)

    def test_huge_end_coefficients_of_a_linear_or_quadratic(self):
        # trial division of a 42-digit end coefficient would take about
        # 10^20 steps: the roots are read off without it
        big = 10**41 + 7
        assert _rational_roots([-3, big]) == ([Fraction(3, big)], True)
        assert _rational_roots([0, 0, -3, big]) == (
            [Fraction(0), Fraction(3, big)], True)
        # (big*y - 1) (y - 2)
        assert _rational_roots([2, -(2 * big + 1), big]) == (
            [Fraction(1, big), Fraction(2)], True)
        assert _rational_roots([big, 0, 1]) == ([], False)

    @pytest.mark.parametrize("coeffs", [
        [-3, 10000000000037], [0, -5, 7], [1, -2003, 2002], [0, 0, 0, 6],
        [0, 0, 0, -3, 10000000000037],
    ], ids=["linear", "zero_then_linear", "quadratic", "zeros_then_constant",
            "zeros_then_linear"])
    def test_no_divisors_at_degree_two_or_less(self, coeffs, monkeypatch):
        def no_divisors(n):
            raise AssertionError(f"_divisors({n}) called")

        monkeypatch.setattr(detvar, "_divisors", no_divisors)
        _rational_roots(coeffs)

    def test_coefficient_bound_stops_the_search(self):
        # a cubic needs the candidate search, whose divisors the bound guards
        with pytest.raises(ResourceLimitExceeded,
                           match=f"rational-root search .* {MAX_ROOT_COEFFICIENT} "):
            _rational_roots([-3, 0, 0, 10000000000037])
        # zero roots are divided out before the bound is checked
        assert _rational_roots([0, 0, -3, 10000000000037]) == (
            [Fraction(0), Fraction(3, 10000000000037)], True)

    def test_candidates_shrink_with_the_quotient(self):
        # (b*x - 1) (x^3 - 2*a): the root 1/b comes early, and the cubic
        # quotient has 256 candidates where the original has 368640
        a, b = 17 * 19 * 23 * 29 * 31 * 37, 2**8 * 3**5 * 5**3 * 7**2 * 11 * 13
        roots, complete = _rational_roots(_product([-1, b], [-2 * a, 0, 0, 1]))
        assert roots == [Fraction(1, b)] and not complete

    def test_divisors_are_found_once(self, monkeypatch):
        # (x - 1) (x + 1) (2x - 1) (x^3 - p), p = 99999999977 prime: the
        # quotients' end coefficients divide the original ones, so their
        # divisors are filtered, not found again
        calls = []

        def counting_divisors(n):
            calls.append(n)
            return divisors(n)

        divisors = detvar._divisors
        monkeypatch.setattr(detvar, "_divisors", counting_divisors)
        coeffs = _product(_product([-1, 1], [1, 1]),
                          _product([-1, 2], [-99999999977, 0, 0, 1]))
        roots, complete = _rational_roots(coeffs)
        assert roots == [Fraction(-1), Fraction(1, 2), Fraction(1)] and not complete
        assert len(calls) == 2

    @pytest.mark.parametrize("n", [
        *Random(0).sample(range(1, MAX_ROOT_COEFFICIENT + 1), 8),
        999999999989, 999999999959, 1000000000039,
        999983 ** 2, 1000003 ** 2, 997 ** 4,
        999983 * 999979, 1000003 * 999961, 1000033 * 1000037,
        1, 2, 2 ** 39, 2 ** 40,
        2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23 * 29 * 31 * 37,
    ])
    def test_divisors_match_trial_division(self, n):
        # seeded values up to the bound, primes near it, prime squares,
        # products of two primes near 10^6, 1 and powers of 2
        assert detvar._divisors(n) == trial_divisors(n)
        assert detvar._divisors(-n) == trial_divisors(n)

    def test_roots_one_and_minus_one_pass_the_zero_divisor_test(self):
        # the roots 1 (q - p = 0) and -1 (q + p = 0), three and two times:
        # each is divided out as often as it divides, and x^2 + 2 is left
        coeffs = _product(_product(_product([-1, 1], [-1, 1]), _product([-1, 1], [1, 1])),
                          _product(_product([1, 1], [-2, 1]), [2, 0, 1]))
        assert _rational_roots(coeffs) == ([Fraction(-1), Fraction(1), Fraction(2)], False)

    @given(st.lists(st.integers(min_value=-6, max_value=6), min_size=1, max_size=4)
           .filter(lambda c: c[0] and c[-1]),
           st.builds(Fraction, st.integers(min_value=-6, max_value=6).filter(bool),
                     st.integers(min_value=1, max_value=4)),
           st.booleans())
    def test_division_alone_decides_a_root(self, cofactor, root, planted):
        # no test of p against the constant term comes first: a step of the
        # synthetic division or its constant check refuses every p/q that is
        # no root, whether or not p divides the constant term
        p, q = root.numerator, root.denominator
        coeffs = [int(c) for c in _product(cofactor, [-p, q])] if planted else cofactor
        quo = _divide_linear(coeffs, p, q)
        if sum(c * root ** i for i, c in enumerate(coeffs)):
            assert quo is None
        else:
            assert _product(quo, [-p, q]) == coeffs

    def test_candidate_limit(self):
        a, b = 17 * 19 * 23 * 29 * 31 * 37, 2**8 * 3**5 * 5**3 * 7**2 * 11 * 13
        with pytest.raises(ResourceLimitExceeded,
                           match=f"rational-root search .* {MAX_ROOT_CANDIDATES}"):
            _rational_roots([-b, 0, 0, a])


def trial_divisors(n):
    """The positive divisors of n != 0, by trial division up to its root."""
    n = abs(n)
    out = set()
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            out.add(d)
            out.add(n // d)
    return sorted(out)


def _product(f, g):
    """Dense ascending coefficients of f * g, as Fractions."""
    out = [Fraction(0)] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] += x * y
    return out


small_fractions = st.builds(Fraction, st.integers(min_value=-4, max_value=4),
                            st.integers(min_value=1, max_value=3))

# ints and Fractions, some of them integral; the loader makes only ints
coefficients = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.builds(Fraction, st.integers(min_value=-3, max_value=3),
              st.integers(min_value=1, max_value=4)))


def polynomials(variables, degree, homogeneous=False):
    """Polynomials of total degree <= degree (== degree if homogeneous)."""
    def exponents(n, total):
        if n == 1:
            return [(total,)]
        return [(e,) + rest for e in range(total + 1)
                for rest in exponents(n - 1, total - e)]

    totals = [degree] if homogeneous else range(degree + 1)
    monomials = [m for k in totals for m in exponents(len(variables), k)]
    return st.dictionaries(st.sampled_from(monomials), coefficients,
                           max_size=4).map(lambda t: Polynomial(variables, t))


@st.composite
def grid_systems(draw):
    """Coupled systems: F_i + sum over j < i of c * x_i * F_j.

    Mostly F_i is a univariate product in x_i of distinct rational linear
    factors, times the irreducible x_i^2 + 2 now and then.  Past the first
    variable, F_i may instead be x_i - c * x_{i-1}^2, which ties x_i to the
    variable before it, so the basis does not split and the solver
    substitutes each root of the eliminant.  A generator may carry a
    fractional scale.  The rational points are the grid of the roots, with
    each tied coordinate read off the one before it.
    """
    variables = ("x", "y", "z")[:draw(st.integers(min_value=1, max_value=3))]
    xs = [Polynomial.variable(variables, v) for v in variables]
    factors, points, split = [], [()], True
    for i, x in enumerate(xs):
        if i and draw(st.booleans()):
            c = draw(st.sampled_from([1, -2, Fraction(1, 2)]))
            factors.append(x - c * xs[i - 1] * xs[i - 1])
            points = [pt + (c * pt[-1] ** 2,) for pt in points]
            continue
        f = Polynomial.constant(variables, 1)
        roots = draw(st.lists(small_fractions, min_size=1, max_size=3,
                              unique=True))
        for r in roots:
            f = f * (x * r.denominator - r.numerator)
        if draw(st.booleans()):
            f = f * (x * x + 2)
            split = False
        factors.append(f)
        points = [pt + (r,) for pt in points for r in roots]
    gens = []
    for i, (x, f) in enumerate(zip(xs, factors)):
        for h in factors[:i]:
            f = f + draw(st.integers(min_value=-2, max_value=2)) * x * h
        gens.append(f * draw(st.sampled_from([1, -2, Fraction(1, 2)])))
    return gens, variables, sorted(points), split


@pytest.fixture
def solver_work(monkeypatch):
    """Calls of `_solve_zero_dimensional` and the roots it substitutes.

    A substitution is an `eliminate` call that sets a variable its
    polynomial holds; one that sets only absent variables projects.
    """
    work = Counter()
    solve, eliminate = detvar._solve_zero_dimensional, Polynomial.eliminate

    def counted_solve(*args):
        work["calls"] += 1
        return solve(*args)

    def counting_eliminate(self, assignments):
        if any(m[i] for m in self.terms for i in assignments):
            work["substitutions"] += 1
        return eliminate(self, assignments)

    monkeypatch.setattr(detvar, "_solve_zero_dimensional", counted_solve)
    monkeypatch.setattr(Polynomial, "eliminate", counting_eliminate)
    return work


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

    @pytest.mark.parametrize("texts,expected", [
        (("x^2 - 1", "y - x"), ([(-1, -1), (1, 1)], True)),
        (("x", "x - 1"), ([], True)),
        (("x^2 + 1", "y"), ([], False)),
        (("x*y",), ([], False)),
        (("y - x^2", "x*(x - 1)*(x - 2)"), ([(0, 0), (1, 1), (2, 4)], True)),
    ], ids=["points", "unit", "irrational", "curve", "substituted"])
    def test_eliminants_have_degree_one_or_more(self, texts, expected, monkeypatch):
        # `_rational_roots` has no case of its own for a constant: a unit
        # or positive-dimensional basis is answered before any eliminant
        def checked(coeffs):
            assert len(coeffs) >= 2 and coeffs[-1], coeffs
            return roots(coeffs)

        roots = detvar._rational_roots
        monkeypatch.setattr(detvar, "_rational_roots", checked)
        assert self.solve(texts, ("x", "y")) == expected

    def test_drawn_systems_reach_the_substitution_branch(self, solver_work):
        # the strategy draws systems that the product route solves and
        # systems whose roots the solver substitutes; the first drawn example
        # of each will do, unshrunk
        def solved_by(route):
            def check(system):
                gens, variables, grid, split = system
                solver_work.clear()
                got = _solve_zero_dimensional(gens, variables, 10_000)
                substituted = solver_work["substitutions"] > 0
                return got == (grid, split) and substituted == route
            return check

        for route in (True, False):
            find(grid_systems(), solved_by(route),
                 settings=settings(phases=[Phase.generate]))

    @given(grid_systems())
    def test_matches_substitution_by_eliminate(self, system):
        # the points are the grid of the roots, and complete exactly when
        # every F_i splits
        gens, variables, grid, split = system
        got = _solve_zero_dimensional(gens, variables, 10_000)
        assert got == (grid, split)

    @pytest.mark.parametrize("counts", [(1, 1, 1), (3, 2, 1), (2, 4, 5)])
    def test_split_grid_is_solved_once_per_variable(self, solver_work, counts):
        # the basis [h(z), g(y), f(x)] splits at every level: each call reads
        # one eliminant, projects the rest of the basis and solves it once,
        # so one call per variable and one with none, whatever the roots
        variables = ("x", "y", "z")
        roots = [range(1, k + 1) for k in counts]
        texts = ["*".join(f"({v} - {r})" for r in rs)
                 for v, rs in zip(variables, roots)]
        gens = [parse_polynomial(t, variables) for t in texts]
        points, complete = detvar._solve_zero_dimensional(gens, variables, 10_000)
        assert points == sorted(product(*roots)) and complete
        assert solver_work == Counter({"calls": 4})

    def test_unsplit_basis_substitutes_each_root(self, solver_work):
        # the basis of [y - x^2, x (x - 1) (x - 2)] keeps x*y + 2*x - 3*y
        # next to the eliminant y (y - 1) (y - 4), so each root is
        # substituted into y - x^2, and each system in x, [x^2 - r,
        # x (x - 1) (x - 2)], is solved on its own
        variables = ("x", "y")
        gens = [parse_polynomial(t, variables)
                for t in ("y - x^2", "x*(x - 1)*(x - 2)")]
        points, complete = detvar._solve_zero_dimensional(gens, variables, 10_000)
        assert points == [(0, 0), (1, 1), (2, 4)] and complete
        assert solver_work == Counter({"calls": 7, "substitutions": 3})

    @given(grid_systems(), st.data())
    def test_repeated_and_shuffled_generators(self, system, data):
        # the basis depends on the ideal only, so neither repeats nor the
        # generator order change the points or the completeness flag
        gens, variables, grid, split = system
        repeats = data.draw(st.lists(st.sampled_from(gens), max_size=4))
        shuffled = data.draw(st.permutations(gens + repeats))
        got = _solve_zero_dimensional(shuffled, variables, 10_000)
        assert got == (grid, split)

    @given(grid_systems())
    def test_a_given_basis_serves_the_top_level_system(self, system):
        # lower_stratum_points passes the basis it has already built, and
        # the solver then builds one basis fewer
        gens, variables, grid, split = system
        basis = buchberger(Ideal(variables, gens))
        built = []

        def counted_buchberger(ideal, **named):
            built.append(ideal)
            return buchberger(ideal, **named)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(detvar, "buchberger", counted_buchberger)
            fresh = _solve_zero_dimensional(gens, variables, 10_000)
            fresh_count = len(built)
            got = _solve_zero_dimensional(gens, variables, 10_000, basis)
        assert got == fresh
        assert got == (grid, split)
        assert len(built) - fresh_count == fresh_count - 1


@st.composite
def homogeneous_systems(draw):
    """Generators of a projective zero set in 3 or 4 variables.

    Each is a product of one or two linear forms with small coefficients,
    so the cells often meet rational points; a zero form gives a zero
    generator, and some generators repeat, in any order.
    """
    count = draw(st.integers(min_value=3, max_value=4))
    variables = tuple(f"x{i}" for i in range(count))
    xs = [Polynomial.variable(variables, v) for v in variables]

    def linear():
        coeffs = draw(st.lists(st.integers(min_value=-2, max_value=2),
                               min_size=count, max_size=count))
        return sum((c * x for c, x in zip(coeffs, xs)),
                   Polynomial(variables))

    gens = []
    for _ in range(draw(st.integers(min_value=1, max_value=count))):
        f = linear()
        if draw(st.booleans()):
            f = f * linear()
        gens.append(f)
    repeats = draw(st.lists(st.sampled_from(gens), max_size=2))
    return draw(st.permutations(gens + repeats)), variables


def cell_by_cell_points(gens, variables, spair_budget):
    # the reference search: cell i substitutes x_0..x_{i-1} = 0 and x_i = 1
    # into every generator, repeats and zeros included
    pts, complete = [], True
    for i in range(len(variables)):
        assignments = {j: 0 for j in range(i)}
        assignments[i] = 1
        sub = [g.eliminate(assignments) for g in gens]
        sols, comp = _solve_zero_dimensional(sub, variables[i + 1:],
                                             spair_budget)
        complete = complete and comp
        pts.extend(ProjectivePoint((0,) * i + (1,) + s) for s in sols)
    return sorted(pts, key=lambda p: p.coords), complete


class TestProjectiveCells:
    @given(homogeneous_systems())
    def test_matches_substituting_every_cell_anew(self, system):
        # the same points and flag, or the same tripped budget, from the
        # same Buchberger inputs in the same order
        gens, variables = system
        outcomes = []
        for search in (detvar._projective_points, cell_by_cell_points):
            built = []

            def counted_buchberger(ideal, **named):
                built.append(ideal.generators)
                return buchberger(ideal, **named)

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(detvar, "buchberger", counted_buchberger)
                try:
                    got = search(gens, variables, 12)
                except SPairBudgetExceeded:
                    got = SPairBudgetExceeded
            outcomes.append((got, built))
        assert outcomes[0] == outcomes[1]


def restrict_both_ways_points(gens, variables, spair_budget):
    # the reference search: every cell restricts every generator to both
    # x_i = 1 and x_i = 0 by `eliminate`, and solves every cell, empty or not
    pts, complete = [], True
    for i in range(len(variables)):
        sols, comp = _solve_zero_dimensional(
            [g.eliminate({0: 1}) for g in gens], variables[i + 1:],
            spair_budget)
        complete = complete and comp
        pts.extend(ProjectivePoint((0,) * i + (1,) + s) for s in sols)
        gens = dict.fromkeys(h for g in gens if (h := g.eliminate({0: 0})))
    return sorted(pts, key=lambda p: p.coords), complete


def cell_search_outcome(search, gens, variables, spair_budget):
    """((points, complete) or the tripped budget, Buchberger inputs)."""
    built = []

    def counted_buchberger(ideal, **named):
        built.append(ideal.generators)
        return buchberger(ideal, **named)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(detvar, "buchberger", counted_buchberger)
        try:
            got = search(gens, variables, spair_budget)
        except SPairBudgetExceeded:
            got = SPairBudgetExceeded
    return got, built


def linear_forms(draw, variables, count):
    """`count` dense integer linear forms, none zero."""
    xs = [Polynomial.variable(variables, v) for v in variables]
    coefficients = st.lists(st.integers(min_value=-3, max_value=3),
                            min_size=len(xs), max_size=len(xs)).filter(any)
    return [sum((c * x for c, x in zip(draw(coefficients), xs)),
                Polynomial(variables)) for _ in range(count)]


@st.composite
def coordinate_systems(draw):
    """Coordinates x_j with repeats, in any order, as a Hankel 2 x k cone's
    1-minors list them; fewer than n - 1 distinct ones leave a locus that
    is not finite."""
    n = draw(st.integers(min_value=2, max_value=6))
    variables = tuple(f"x{i}" for i in range(n))
    picks = draw(st.lists(st.integers(min_value=0, max_value=n - 1),
                          min_size=1, max_size=2 * n))
    return [Polynomial.variable(variables, variables[j]) for j in picks], variables


@st.composite
def dense_linear_systems(draw):
    """2-4 dense integer linear forms in 3-5 variables, as the lower ideals
    of the random-coordinate rank models."""
    n = draw(st.integers(min_value=3, max_value=5))
    variables = tuple(f"x{i}" for i in range(n))
    return linear_forms(draw, variables, draw(st.integers(min_value=2,
                                                          max_value=4))), variables


P2_GRID = [["x0*x2^2", "x1*x2^2"], ["x1*x2^2", "x0^2*x2 + x1^3 - x1^2*x2"]]


@st.composite
def p2_lower_systems(draw):
    """The lower generators of the P^2 model P2_GRID at t = 2, in any
    coordinate order and generator order, with repeats."""
    variables = tuple(draw(st.permutations(("x0", "x1", "x2"))))
    gens = lower_locus_generators(PolyMatrix.from_strings(P2_GRID, variables), 2)
    repeats = draw(st.lists(st.sampled_from(gens), max_size=2))
    return draw(st.permutations(gens + repeats)), variables


@st.composite
def positive_dimensional_systems(draw):
    """At most n - 2 forms in n variables, products of one or two linear
    forms: the projective locus has dimension at least 1."""
    n = draw(st.integers(min_value=3, max_value=5))
    variables = tuple(f"x{i}" for i in range(n))
    gens = []
    for f in linear_forms(draw, variables, draw(st.integers(min_value=1,
                                                            max_value=n - 2))):
        if draw(st.booleans()):
            f = f * linear_forms(draw, variables, 1)[0]
        gens.append(f)
    return gens, variables


class TestEmptyCells:
    """The cell search that stops an empty cell at its first unit gives the
    points, in order, the flag, the Buchberger inputs and the budget trips
    of the search that restricts every generator both ways."""

    def check(self, gens, variables):
        for budget in (12, detvar.DEFAULT_SPAIR_BUDGET):
            outcomes = [cell_search_outcome(search, gens, variables, budget)
                        for search in (detvar._projective_points,
                                       restrict_both_ways_points)]
            assert outcomes[0] == outcomes[1]
        return outcomes[0][0]

    @given(coordinate_systems())
    def test_coordinates_with_repeats(self, system):
        gens, variables = system
        points, complete = self.check(gens, variables)
        distinct = {g.leading_monomial() for g in gens}
        if len(distinct) >= len(variables) - 1:
            # the only point has its one free coordinate, or none, set to 1
            free = len(variables) - len(distinct)
            assert complete and len(points) == free
        else:
            assert not complete

    @given(dense_linear_systems())
    def test_dense_linear_forms(self, system):
        self.check(*system)

    @given(p2_lower_systems())
    def test_p2_model_lower_generators(self, system):
        points, complete = self.check(*system)
        assert complete and len(points) == 2

    @given(positive_dimensional_systems())
    def test_locus_that_is_not_finite(self, system):
        points, complete = self.check(*system)
        assert not complete


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
        m = chart_matrix(model, ProjectivePoint((0, 0, 0, 0, 1)))
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
        m = chart_matrix(model, ProjectivePoint((1, 0, 0, 0, 1)))
        assert m.variables == ("x1", "x2", "x3", "x4")
        assert str(m.entries[0][0]) == "-x4"
        assert str(m.entries[1][2]) == "x3"

    def test_affine_shift(self):
        m = PolyMatrix.from_strings([["x"]], ("x", "y"))
        model = DeterminantalModel(m, 1, AmbientSpace(AFFINE, 2))
        shifted = chart_matrix(model, (Fraction(3), Fraction(5)))
        assert str(shifted.entries[0][0]) == "x + 3"

    @pytest.mark.parametrize("chart", [chart_ideal, chart_matrix])
    @pytest.mark.parametrize("kind,point", [
        (PROJECTIVE, (0, 0, 0, 1)), (PROJECTIVE, (0, 0, 0, 0, 0, 1)),
        (PROJECTIVE, ProjectivePoint((0, 0, 0, 1))),
        (PROJECTIVE, ProjectivePoint((0, 0, 0, 0, 0, 1))),
        (AFFINE, (0, 0, 0, 0)), (AFFINE, (0, 0, 0, 0, 0, 0)),
    ], ids=["projective-short", "projective-long", "projective-point-short",
            "projective-point-long", "affine-short", "affine-long"])
    def test_point_length_must_match_the_variables(self, chart, kind, point):
        # five variables: P^4, or A^5 with the same matrix
        model = catalecticant_model()
        if kind == AFFINE:
            model = DeterminantalModel(model.matrix, 2, AmbientSpace(AFFINE, 5))
        with pytest.raises(ValueError) as info:
            chart(model, point)
        assert str(info.value) == "expected 5 coordinates"

    @pytest.mark.parametrize("coords", [(1, 2, 4, 8, 5), (0, 0, 0, 2, 3)])
    def test_point_check_is_shared_and_takes_any_representative(self, coords):
        # is_point_on_variety, chart_matrix and chart_ideal read a point
        # through one check: a ProjectivePoint, its integer coordinates, a
        # negative rational multiple and the point built from that multiple
        # locate and chart the same point
        model = catalecticant_model()
        scaled = tuple(Fraction(-2, 3) * c for c in coords)
        representatives = [ProjectivePoint(coords), coords, scaled,
                           ProjectivePoint(scaled)]
        located = {is_point_on_variety(model, pt) for pt in representatives}
        assert located == {SMOOTH_STRATUM}
        assert rank_at_point(model.matrix, coords) == 1
        assert len({chart_matrix(model, pt).entries for pt in representatives}) == 1
        assert len({chart_ideal(model, pt).generators for pt in representatives}) == 1
        # a point of the wrong length is reported as such even when every
        # coordinate is zero; a zero point of the right length is no point
        for point, message in [
                ((0, 0, 0), "expected 5 coordinates"),
                ((0, 0, 0, 0, 0), "projective point needs a nonzero coordinate")]:
            for check in (is_point_on_variety, chart_matrix, chart_ideal):
                with pytest.raises(ValueError) as info:
                    check(model, point)
                assert str(info.value) == message

    @pytest.mark.parametrize("kind, text", [(PROJECTIVE, "[0:0:1]"),
                                            (AFFINE, "(0, 0, 1)")])
    def test_wrong_length_point_has_one_message(self, kind, text):
        # parse_point reads the text and then checks the point as the other
        # three do: five variables, a point of three coordinates
        model = catalecticant_model()
        if kind == AFFINE:
            model = DeterminantalModel(model.matrix, 2, AmbientSpace(AFFINE, 5))
        messages = []
        for check in (lambda: parse_point(text, model),
                      lambda: is_point_on_variety(model, (0, 0, 1)),
                      lambda: chart_matrix(model, (0, 0, 1)),
                      lambda: chart_ideal(model, (0, 0, 1))):
            with pytest.raises(ValueError) as info:
                check()
            messages.append(str(info.value))
        assert messages == ["expected 5 coordinates"] * 4

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
        point = ProjectivePoint((1, 2, 0, 0, 1))
        charted = chart_matrix(model, point)
        assert len(shift_calls) == 4
        offsets = [Fraction(c) for c in point.coords[1:]]
        assert charted.entries == tuple(
            tuple(SHIFT(e.eliminate({0: 1}), offsets) for e in row)
            for row in model.matrix.entries)

    def test_chart_ideal_generators(self):
        model = catalecticant_model()
        chart = chart_ideal(model, ProjectivePoint((0, 0, 0, 0, 1)))
        assert len(chart.generators) == 3
        assert ideal_dimension(buchberger(chart)) == 2


@st.composite
def charted_models(draw):
    """A 2x2 or 2x3 model with t = 2 and a point to chart it at.

    Affine models over (x, y) take rational points, projective ones over
    (x0, x1, x2) integer points.  Half of the time the entries are moved so
    that the matrix has rank one at the point, so that the chart minors lose
    their constant terms by cancellation.
    """
    shape = (2, draw(st.integers(min_value=2, max_value=3)))
    projective = draw(st.booleans())
    if projective:
        variables = ("x0", "x1", "x2")
        degree = draw(st.integers(min_value=1, max_value=2))
        entry = polynomials(variables, degree, homogeneous=True)
        point = draw(st.lists(st.integers(min_value=-3, max_value=3),
                              min_size=3, max_size=3).filter(any))
        point = ProjectivePoint(point)
        at = point.coords
        i = next(i for i, c in enumerate(at) if c)
        # x_i^degree is 1 in the chart
        unit = Polynomial.variable(variables, variables[i]) ** degree
        unit_value = at[i] ** degree
    else:
        variables = ("x", "y")
        entry = polynomials(variables, 3)
        point = at = tuple(draw(st.lists(small_fractions, min_size=2,
                                         max_size=2)))
        unit, unit_value = Polynomial.constant(variables, 1), 1
    grid = [[draw(entry) for _ in range(shape[1])] for _ in range(shape[0])]
    if draw(st.booleans()):
        nonzero = st.integers(min_value=-3, max_value=3).filter(bool)
        u = [draw(nonzero) for _ in range(shape[0])]
        v = [draw(nonzero) for _ in range(shape[1])]
        values = [[e.evaluate(at) for e in row] for row in grid]
        grid = [[unit_value * e + (u[r] * v[c] - values[r][c]) * unit
                 for c, e in enumerate(row)] for r, row in enumerate(grid)]
    ambient = AmbientSpace(PROJECTIVE if projective else AFFINE, 2)
    return DeterminantalModel(PolyMatrix(grid), 2, ambient), point


@st.composite
def chart_sequences(draw):
    """A 2x2 or 2x3 model with t = 1 or 2, and 2 to 5 points to chart it at.

    Affine models over (x, y) take rational points whose coordinates come
    from two small pools, so that points share offsets in one variable with
    unlike denominators in the other; projective ones over (x0, x1, x2) take
    integer points.  Some entries are rational multiples of others, whose
    integer forms are the same multiples of one another.
    """
    shape = (2, draw(st.integers(min_value=2, max_value=3)))
    if draw(st.booleans()):
        variables = ("x0", "x1", "x2")
        degree = draw(st.integers(min_value=1, max_value=2))
        entry = polynomials(variables, degree, homogeneous=True)
        point = st.lists(st.integers(min_value=-3, max_value=3), min_size=3,
                         max_size=3).filter(any).map(ProjectivePoint)
        ambient = AmbientSpace(PROJECTIVE, 2)
    else:
        variables = ("x", "y")
        entry = polynomials(variables, 3)
        xs, ys = (draw(st.lists(small_fractions, min_size=1, max_size=3))
                  for _ in variables)
        point = st.tuples(st.sampled_from(xs), st.sampled_from(ys))
        ambient = AmbientSpace(AFFINE, 2)
    base = [draw(entry) for _ in range(2)]
    scale = st.sampled_from([2, -1, Fraction(1, 2), Fraction(-2, 3)])
    cell = st.one_of(entry, st.builds(operator.mul, st.sampled_from(base), scale))
    grid = [[draw(cell) for _ in range(shape[1])] for _ in range(shape[0])]
    t = draw(st.integers(min_value=1, max_value=2))
    points = draw(st.lists(point, min_size=2, max_size=5))
    return DeterminantalModel(PolyMatrix(grid), t, ambient), points


class TestIntegerCharts:
    @given(charted_models())
    def test_integer_minors_keep_the_chart_supports(self, case):
        model, point = case
        chart = chart_ideal(model, point)
        centred = chart_matrix(model, point)
        exact_minors = [g for g in minors(centred, model.t) if g]
        assert chart.variables == centred.variables
        for g in chart.generators:
            assert all(type(c) is int for c in g.terms.values())
        assert ([set(g.terms) for g in chart.generators]
                == [set(g.terms) for g in exact_minors])
        if exact_minors:
            assert (quasi_homogeneous_weights(chart.generators)
                    == quasi_homogeneous_weights(exact_minors))

    def test_classify_hands_the_weight_gate_integers(self, monkeypatch):
        # [[f(x), g(y)], [g(y), f(x)]] with singular points at fractions
        f, g = "(2*x - 1)*(x + 3)*(3*x - 2)", "(2*y + 3)*(y - 2)"
        matrix = PolyMatrix.from_strings([[f, g], [g, f]], ("x", "y"))
        model = DeterminantalModel(matrix, 2, AmbientSpace(AFFINE, 2))
        seen = []

        def recording_weights(polys):
            seen.extend(type(c) for p in polys for c in p.terms.values())
            return quasi_homogeneous_weights(polys)

        monkeypatch.setattr(detvar, "quasi_homogeneous_weights", recording_weights)
        got = classify(model)
        assert len(got.singular_points) == 6
        assert any(x.denominator > 1 for pt in got.singular_points for x in pt)
        assert seen and set(seen) == {int}

    def test_entries_that_are_multiples_share_the_chart_constant(self):
        # at (2/3, 1/3) the chart constant is 2 * 3, and x/2 and x chart to
        # X + 2 and 2*X + 4, one half of the other as in the model; the point
        # lies on the variety, so the minor x^2/2 - 2*y^2 loses its constant
        # term only if every entry is charted with the same constant
        variables = ("x", "y")
        x, y = (Polynomial.variable(variables, v) for v in variables)
        matrix = PolyMatrix([[x * Fraction(1, 2), y], [2 * y, x]])
        model = DeterminantalModel(matrix, 2, AmbientSpace(AFFINE, 2))
        point = (Fraction(2, 3), Fraction(1, 3))
        chart = chart_ideal(model, point)
        exact_minors = [g for g in minors(chart_matrix(model, point), 2) if g]
        assert ([set(g.terms) for g in chart.generators]
                == [set(g.terms) for g in exact_minors]
                == [{(2, 0), (1, 0), (0, 2), (0, 1)}])

    @given(chart_sequences())
    def test_shared_memos_match_fresh_charts(self, case):
        # one memo for all the points, as `classify` builds it; an entry
        # form memoized at one point must be the one that a fresh chart with
        # the same constant forms at the next
        model, points = case
        memo = detvar._chart_memo(model, points)
        for point in points:
            chart = chart_ideal(model, point, memo)
            for g in chart.generators:
                assert all(type(c) is int for c in g.terms.values())
            fresh = chart_ideal(model, point, (memo[0], {}, {}, {}))
            assert chart.generators == fresh.generators
            exact_minors = [g for g in minors(chart_matrix(model, point), model.t)
                            if g]
            assert ([set(g.terms) for g in chart.generators]
                    == [set(g.terms) for g in exact_minors])


@st.composite
def grid_models(draw):
    """[[f(x), g(y)], [g(y), f(x)]] with t = 2, and its grid of points.

    f and g are products of (q*v - p)^k over one to three distinct roots
    p/q, integers or fractions, with k = 1 or 2.  The charts at a double root
    and at a root where a shifted entry loses a coefficient (the middle of
    -1, 0, 1) take supports of their own, and a single simple root in both
    variables gives a weighted-homogeneous chart.
    """
    variables = ("x", "y")
    entries, roots = [], []
    for name in variables:
        v = Polynomial.variable(variables, name)
        rs = draw(st.lists(st.one_of(st.integers(min_value=-3, max_value=3),
                                     small_fractions),
                           min_size=1, max_size=3, unique_by=Fraction))
        entry = Polynomial.constant(variables, 1)
        for r in rs:
            r = Fraction(r)
            k = draw(st.integers(min_value=1, max_value=2))
            entry = entry * (v * r.denominator - r.numerator) ** k
        entries.append(entry)
        roots.append(rs)
    f, g = entries
    model = DeterminantalModel(PolyMatrix([[f, g], [g, f]]), 2,
                               AmbientSpace(AFFINE, 2))
    return model, tuple(sorted(product(*roots)))


def ungated_local_notes(model, points):
    """(local_supported, notes) of `classify`'s point loop, done plainly.

    Every point gets its own chart, with fresh memos, and its own run of the
    weight gate.
    """
    supported, notes = True, []
    for pt in points:
        chart = chart_ideal(model, pt)
        if chart.generators and quasi_homogeneous_weights(chart.generators) is None:
            supported = False
            notes.append(f"chart ideal at {point_label(pt)} is not "
                         "weighted-homogeneous; symbolic local computations "
                         "are unsupported")
    return supported, tuple(notes)


class TestClassifyWork:
    """One classify call solves each distinct subproblem once."""

    @pytest.fixture
    def counts(self, monkeypatch):
        seen = Counter()
        buchberger, roots = detvar.buchberger, detvar._rational_roots
        weights, eliminant = detvar.quasi_homogeneous_weights, detvar.eliminant
        certified_dimension = detvar.certified_dimension

        def counted_buchberger(ideal, **named):
            seen["grevlex"] += 1
            return buchberger(ideal, **named)

        def counted_certified_dimension(ideal, floor, **named):
            dimension, basis = certified_dimension(ideal, floor, **named)
            seen["certified" if basis is None else "grevlex"] += 1
            return dimension, basis

        def counted_eliminant(gb):
            seen["eliminant"] += 1
            return eliminant(gb)

        def counted_roots(coeffs):
            seen["rational_roots"] += 1
            return roots(coeffs)

        def counted_weights(polys):
            seen["weights"] += 1
            return weights(polys)

        monkeypatch.setattr(detvar, "buchberger", counted_buchberger)
        monkeypatch.setattr(detvar, "certified_dimension",
                            counted_certified_dimension)
        monkeypatch.setattr(detvar, "eliminant", counted_eliminant)
        monkeypatch.setattr(detvar, "_rational_roots", counted_roots)
        monkeypatch.setattr(detvar, "quasi_homogeneous_weights", counted_weights)
        return seen

    @staticmethod
    def grid_model():
        f, g = "(x - 1)*(x - 2)*(x + 3)", "(y - 2)*(y + 1)*(y + 4)"
        matrix = PolyMatrix.from_strings([[f, g], [g, f]], ("x", "y"))
        return DeterminantalModel(matrix, 2, AmbientSpace(AFFINE, 2))

    @pytest.fixture
    def chart_products(self, monkeypatch):
        """The term-map products formed inside `chart_ideal` calls."""
        formed, inside = [], []
        product, chart = polyalg._product, detvar.chart_ideal

        def counting_product(a, b):
            if inside:
                formed.append((a, b))
            return product(a, b)

        def counted_chart(*args):
            inside.append(True)
            try:
                return chart(*args)
            finally:
                inside.pop()

        monkeypatch.setattr(polyalg, "_product", counting_product)
        monkeypatch.setattr(detvar, "chart_ideal", counted_chart)
        return formed

    def test_integer_grid(self, counts, shift_calls, chart_products):
        # the rank ideal (f^2 - g^2) is principal, so its floor certifies it
        # with no basis.  The distinct 1-minors are [f, g], whose basis gives
        # the eliminant g and splits, so the projected [f], whose basis is
        # the rest of that basis and whose eliminant is f, is solved once
        # for all the roots of g.  Each of
        # the 9 points shares the shift of f with its column and that of g
        # with its row, and so the product f'*f' with its column and g'*g'
        # with its row; the weight gate sees two supports, as g shifted to
        # y = -1, the middle of its roots, is the odd y^3 - 9*y
        got = classify(self.grid_model())
        assert got.singular_points == tuple(sorted(product((-3, 1, 2), (-4, -1, 2))))
        assert not got.local_supported
        assert counts == Counter({"certified": 1, "grevlex": 1, "eliminant": 2,
                                  "rational_roots": 2, "weights": 2})
        assert len(shift_calls) == 6
        assert len(chart_products) == 6

    def test_grid_solves_its_points_as_a_product(self, solver_work):
        # the lower basis [g, f] splits: the roots of the eliminant g meet
        # the roots of f, which is solved once in x, and the third call has
        # no variables left; no root is substituted
        classify(self.grid_model())
        assert solver_work == Counter({"calls": 3})

    def test_grid_builds_one_basis_and_takes_no_krylov_step(self, run_cli,
                                                            tmp_path):
        # analyze of a 4 x 4 grid: the rank ideal is principal and
        # certifies, the lower basis of [f, g] is the one Buchberger run,
        # and both eliminants are basis elements, read off with no packing
        f = "(x - 1)*(x + 2)*(2*x - 3)*(x + 4)"
        g = "(y + 1)*(y - 3)*(3*y + 2)*(y - 5)"
        path = tmp_path / "grid4.json"
        path.write_text(json.dumps({
            "schema_version": 1, "variables": ["x", "y"],
            "matrix": [[f, g], [g, f]], "t": 2,
            "ambient": {"kind": "affine", "dim": 2}, "singularities": []}))
        runs, packings = [], []
        run, packing = grobner._buchberger, grobner._Packing

        def counted_run(*args):
            runs.append(args[0])
            return run(*args)

        def counted_packing(*args):
            packings.append(args)
            return packing(*args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(grobner, "_buchberger", counted_run)
            patch.setattr(grobner, "_Packing", counted_packing)
            patch.setattr(grobner, "_minimal_polynomial", None)
            code, out, err = run_cli("analyze", path, "--json")
        assert code == 3 and err == ""
        assert len(json.loads(out)["classification"]["singular_points"]) == 16
        assert [len(ideal.generators) for ideal in runs] == [2]
        assert len(packings) == 1

    def test_rational_grid(self, shift_calls, chart_products):
        # the roots of f and of g have unlike denominators, but each entry
        # is charted at the offset of its own variable alone, so the 9
        # points again share 3 shifts of f and 3 of g, and their squares
        f, g = "(x + 3)*(2*x - 1)*(3*x - 2)", "(2*y + 3)*(3*y - 1)*(y - 2)"
        matrix = PolyMatrix.from_strings([[f, g], [g, f]], ("x", "y"))
        model = DeterminantalModel(matrix, 2, AmbientSpace(AFFINE, 2))
        got = classify(model)
        xs = (-3, Fraction(1, 2), Fraction(2, 3))
        ys = (Fraction(-3, 2), Fraction(1, 3), 2)
        assert got.singular_points == tuple(sorted(product(xs, ys)))
        assert len(shift_calls) == 6
        assert len(chart_products) == 6
        assert ((got.local_supported, got.notes)
                == ungated_local_notes(model, got.singular_points))

    @pytest.fixture
    def chart_eliminations(self, monkeypatch):
        """The polynomials passed to Polynomial.eliminate inside `chart_ideal`."""
        formed, inside = [], []
        eliminate, chart = Polynomial.eliminate, detvar.chart_ideal

        def counting_eliminate(self, assignments):
            if inside:
                formed.append(self)
            return eliminate(self, assignments)

        def counted_chart(*args):
            inside.append(True)
            try:
                return chart(*args)
            finally:
                inside.pop()

        monkeypatch.setattr(Polynomial, "eliminate", counting_eliminate)
        monkeypatch.setattr(detvar, "chart_ideal", counted_chart)
        return formed

    def test_projective_points_in_two_charts(self, chart_eliminations):
        # every entry vanishes only where x2 = 0 and x0*x1*(x0 - x1) = 0:
        # [1:0:0] and [1:1:0] in the chart x0 = 1, [0:1:0] in x1 = 1; each
        # of the 4 distinct entries is dehomogenized once per chart, not
        # once per point
        grid = [["x0*x1*(x0 - x1)", "x2*x0^2"], ["x2*x1^2", "x2^3"]]
        matrix = PolyMatrix.from_strings(grid, ("x0", "x1", "x2"))
        model = DeterminantalModel(matrix, 2, AmbientSpace(PROJECTIVE, 2))
        got = classify(model)
        assert [str(p) for p in got.singular_points] == ["[0:1:0]", "[1:0:0]",
                                                        "[1:1:0]"]
        assert len({next(i for i, c in enumerate(p.coords) if c)
                    for p in got.singular_points}) == 2
        assert len(chart_eliminations) == 4 * 2
        assert set(chart_eliminations) == {e for row in matrix.entries for e in row}
        assert ((got.local_supported, got.notes)
                == ungated_local_notes(model, got.singular_points))

    def test_one_homogeneous_chart_minor_runs_the_simplex(self):
        # at the vertex [0:0:1] the chart minor -x0^2*x1 + x0*x1^2 is
        # homogeneous and the other two are not, so the gate runs the
        # simplex, which finds no weights for the three together
        grid = [["x0*x2", "x1*x2", "x0^2"], ["x1*x2", "x0*x2 + x1^2", "x1^2"]]
        matrix = PolyMatrix.from_strings(grid, ("x0", "x1", "x2"))
        model = DeterminantalModel(matrix, 2, AmbientSpace(PROJECTIVE, 2))
        got = classify(model)
        assert [str(p) for p in got.singular_points] == ["[0:0:1]"]
        assert got.local_supported is False
        assert ((got.local_supported, got.notes)
                == ungated_local_notes(model, got.singular_points))

    @given(grid_models())
    def test_matches_fresh_charts_and_a_gate_at_every_point(self, case):
        model, grid = case
        got = classify(model)
        assert got.singular_points == grid
        assert got.singular_points_exact
        assert (got.local_supported, got.notes) == ungated_local_notes(model, grid)

    def test_shifts_are_not_kept_past_the_call(self, shift_calls):
        model = self.grid_model()
        classify(model)
        shift_calls.clear()
        chart_ideal(model, (1, 2))
        assert len(shift_calls) == 2


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


@st.composite
def projective_models(draw):
    """Projective models in 3 to 6 variables: 2 x 2 to 3 x 3 matrices of
    linear or quadratic forms, each with at most three terms, at any t."""
    nvars = draw(st.integers(min_value=3, max_value=6))
    variables = tuple(f"x{i}" for i in range(nvars))
    degree = draw(st.sampled_from([1, 2]))
    monomials = [m for m in product(range(degree + 1), repeat=nvars)
                 if sum(m) == degree]
    n, p = draw(st.integers(2, 3)), draw(st.integers(2, 3))
    entries = st.dictionaries(st.sampled_from(monomials),
                              st.integers(-2, 2).filter(bool), max_size=3)
    grid = [[Polynomial(variables, draw(entries)) for _ in range(p)]
            for _ in range(n)]
    if not any(e for row in grid for e in row):
        grid[0][0] = Polynomial(variables, {monomials[0]: 1})
    t = draw(st.integers(min_value=1, max_value=min(n, p)))
    return DeterminantalModel(PolyMatrix(grid), t,
                              AmbientSpace(PROJECTIVE, nvars - 1))


@st.composite
def linear_models(draw):
    """Projective models of linear forms in 2 to 6 variables: 2 x 2 to 3 x 3
    matrices whose entries are 0, a signed variable, a repeat of an earlier
    entry or a dense form, then one column operation (which keeps every
    minors ideal), at t >= 2, where the floors apply."""
    nvars = draw(st.integers(min_value=2, max_value=6))
    variables = tuple(f"x{i}" for i in range(nvars))
    units = [tuple(int(i == j) for j in range(nvars)) for i in range(nvars)]
    n, p = draw(st.integers(2, 3)), draw(st.integers(2, 3))
    cells = []
    for _ in range(n * p):
        kind = draw(st.sampled_from(["zero", "variable", "repeat", "form"]))
        if kind == "repeat" and cells:
            cells.append(cells[draw(st.integers(0, len(cells) - 1))])
        elif kind == "variable":
            cells.append(Polynomial(variables, {
                draw(st.sampled_from(units)): draw(st.sampled_from([-1, 1]))}))
        elif kind == "form":
            coeffs = draw(st.lists(st.integers(-2, 2), min_size=nvars,
                                   max_size=nvars))
            cells.append(Polynomial(variables, {
                m: c for m, c in zip(units, coeffs) if c}))
        else:
            cells.append(Polynomial(variables, {}))
    grid = [cells[i * p:(i + 1) * p] for i in range(n)]
    i, j = draw(st.permutations(range(p)))[:2]
    c = draw(st.sampled_from([-2, -1, 1, 2]))
    for row in grid:
        row[i] = row[i] + row[j] * Polynomial.constant(variables, c)
    if not any(e for row in grid for e in row):
        grid[0][0] = Polynomial(variables, {units[0]: 1})
    t = draw(st.integers(min_value=2, max_value=min(n, p)))
    return DeterminantalModel(PolyMatrix(grid), t,
                              AmbientSpace(PROJECTIVE, nvars - 1))


@st.composite
def affine_models(draw):
    """Affine models in 2 or 3 variables that the floors cover.

    Either every entry lacks a constant term, so every minor vanishes at the
    origin, or the matrix is square at full t, so the rank ideal has the
    one generator det, and then the entries may have constant terms.
    """
    nvars = draw(st.integers(min_value=2, max_value=3))
    variables = ("x", "y", "z")[:nvars]
    principal = draw(st.booleans())
    n = draw(st.integers(min_value=1, max_value=2))
    p = n if principal else draw(st.integers(min_value=max(n, 2), max_value=3))
    monomials = [m for m in product(range(3), repeat=nvars)
                 if (0 if principal else 1) <= sum(m) <= 2]
    entries = st.dictionaries(st.sampled_from(monomials),
                              st.integers(min_value=-2, max_value=2).filter(bool),
                              max_size=3).map(lambda t: Polynomial(variables, t))
    grid = [[draw(entries) for _ in range(p)] for _ in range(n)]
    if not any(e for row in grid for e in row):
        grid[0][0] = Polynomial.variable(variables, variables[0])
    t = n if principal else draw(st.integers(min_value=1, max_value=n))
    return DeterminantalModel(PolyMatrix(grid), t, AmbientSpace(AFFINE, nvars))


class TestStratumKinds:
    """`is_point_on_variety` answers with one stratum kind, read off the
    rank at the point against t."""

    @settings(max_examples=100)
    @given(st.one_of(projective_models(), affine_models()), st.data())
    def test_kind_agrees_with_the_rank(self, model, data):
        projective = model.ambient.kind == PROJECTIVE
        # mostly zeros, so that every stratum is met, the lower one too
        values = st.sampled_from([0, 0, 0, 0, 1, -1, Fraction(1, 2),
                                  Fraction(-2, 3)])
        coords = data.draw(st.lists(values, min_size=len(model.variables),
                                    max_size=len(model.variables))
                           .filter(lambda c: any(c) or not projective))
        kind = is_point_on_variety(model, coords)
        rank = rank_at_point(model.matrix, coords)
        assert [kind == c for c in (OUTSIDE, SMOOTH_STRATUM,
                                    ESSENTIAL_SINGULAR)].count(True) == 1
        assert kind == (OUTSIDE if rank >= model.t else
                        SMOOTH_STRATUM if rank == model.t - 1 else
                        ESSENTIAL_SINGULAR)
        if projective:
            assert is_point_on_variety(model, ProjectivePoint(coords)) == kind


class TestCertifiedDimension:
    """The dimension floor only stops Buchberger early: every
    classification is the one that full bases give."""

    FIELDS = ("empty", "codimension", "dimension", "determinantal",
              "isolated_singularity", "smoothable", "singular_points",
              "singular_points_exact", "singular_locus_dimension",
              "local_supported", "notes")

    @staticmethod
    def outcome(model):
        # the classification's fields, or the error
        try:
            info = classify(model)
        except ResourceLimitExceeded as e:
            return str(e)
        return tuple(getattr(info, f) for f in TestCertifiedDimension.FIELDS)

    @staticmethod
    def floored_ideals(model):
        # (ideal, Eagon-Northcott codimension) of the rank and lower ideals
        yield (Ideal(model.variables, minors(model.matrix, model.t)),
               model.expected_codimension())
        yield (Ideal(model.variables, lower_locus_generators(model.matrix, model.t)),
               model.smoothability_bound())

    @settings(max_examples=40)
    @given(projective_models())
    def test_matches_full_bases(self, model):
        for ideal, codimension in self.floored_ideals(model):
            floor = detvar._dimension_floor(model, codimension, ideal.generators)
            if floor is not None:
                full = buchberger(ideal)
                dimension, basis = certified_dimension(ideal, floor)
                assert dimension == ideal_dimension(full)
                assert basis is None or basis == full
        fields = self.outcome(model)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(detvar, "_dimension_floor", lambda *_: None)
            plain = self.outcome(model)
        assert fields == plain

    @settings(max_examples=80)
    @given(linear_models())
    def test_krull_floor_is_a_floor(self, model):
        # the floor, from the generators as classify passes them (the rank
        # ones with repeats), never exceeds the full basis's dimension, and
        # classify reads the dimensions of the full bases
        lower_gens = lower_locus_generators(model.matrix, model.t)
        rank = Ideal(model.variables, minors(model.matrix, model.t))
        full = []
        for ideal, codimension, generators in (
                (rank, model.expected_codimension(), rank.generators),
                (Ideal(model.variables, lower_gens), model.smoothability_bound(),
                 lower_gens)):
            full.append(ideal_dimension(buchberger(ideal)))
            floor = detvar._dimension_floor(model, codimension, generators)
            assert floor is None or floor <= full[-1]
        info = classify(model)
        if full[0] <= 0:
            assert info.empty
        else:
            assert (info.dimension + 1, info.singular_locus_dimension) == tuple(full)

    @settings(max_examples=60)
    @given(affine_models())
    def test_affine_floor_is_a_floor(self, model):
        # an affine floor never exceeds the full basis's dimension, the
        # dimension it certifies is that one, and classify reads the
        # dimensions of the full bases
        for ideal, codimension in self.floored_ideals(model):
            floor = detvar._dimension_floor(model, codimension, ideal.generators)
            if floor is not None:
                full = ideal_dimension(buchberger(ideal))
                assert floor <= full
                assert certified_dimension(ideal, floor)[0] == full
        fields = self.outcome(model)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(detvar, "_dimension_floor", lambda *_: None)
            plain = self.outcome(model)
        assert fields == plain

    @pytest.mark.parametrize("grid, variables, t, floors", [
        # entries without a constant term: Eagon-Northcott and Krull
        ([["x", "y", "z"], ["y", "z", "w"]], ("x", "y", "z", "w"), 2, [2, 0]),
        # the principal rank ideal of the determinant, whose entries have
        # constant terms, so the two distinct 1-minors get no floor
        ([["x + 1", "y"], ["y", "x + 1"]], ("x", "y"), 2, [1, None]),
        # a constant entry alone: the unit ideal, and at t = 1 the unit
        # lower ideal
        ([["2", "0"]], ("x", "y"), 1, [None, None]),
    ], ids=["origin", "principal", "unit"])
    def test_affine_floors(self, grid, variables, t, floors):
        model = self.model(grid, variables, t, AFFINE)
        assert [detvar._dimension_floor(model, codimension, ideal.generators)
                for ideal, codimension in self.floored_ideals(model)] == floors

    def test_t1_rank_ideal_gets_its_floor(self, runs):
        # at t = 1 the rank ideal of linear entries gets the floor
        # 3 - min(4, 3) = 0, while the lower ideal is the unit ideal
        model = self.model([["x0", "x1"], ["x2", "x0"]], ("x0", "x1", "x2"), 1,
                           PROJECTIVE)
        floors = [detvar._dimension_floor(model, codimension, ideal.generators)
                  for ideal, codimension in self.floored_ideals(model)]
        assert floors == [0, None]
        info = classify(model)
        assert info.empty
        assert runs == [(0, None)]

    def test_t1_verify_builds_fewer_full_bases(self, run_cli, tmp_path):
        # the rank ideal of [[x0, x1 + x0]] certifies its floor 1 after one
        # pair, and the cstar check tests the split minor x1 + x0 by a span
        # test, so only the unit lower basis runs to completion
        path = tmp_path / "t1.json"
        path.write_text(json.dumps({
            "schema_version": 1, "variables": ["x0", "x1", "x2"],
            "matrix": [["x0", "x1 + x0"]], "t": 1,
            "ambient": {"kind": "projective", "dim": 2}, "weights": [0, 1, 2],
            "singularities": [], "form": {"kind": "cstar"},
            "known": {"chi_X": 1}}))
        completed = []
        run = grobner._buchberger

        def counted_run(*args):
            basis = run(*args)
            completed.append(basis is not None)
            return basis

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(grobner, "_buchberger", counted_run)
            code, out, err = run_cli("verify", path)
        assert code == 0 and err == ""
        assert "status: verified" in out
        assert completed == [False, True]

    @pytest.mark.parametrize("k", [3, 6, 20])
    def test_krull_floor_of_a_hankel_cone(self, k):
        # the 2 x k Hankel cone in P^(k+1): Eagon-Northcott gives the rank
        # ideal its floor 3, and the k + 1 distinct 1-minors give the lower
        # ideal the floor 1, where Eagon-Northcott's 2k would be negative
        variables = tuple(f"x{i}" for i in range(k + 2))
        model = self.model([variables[:k], variables[1:k + 1]], variables, 2,
                           PROJECTIVE)
        floors = [detvar._dimension_floor(model, codimension, ideal.generators)
                  for ideal, codimension in self.floored_ideals(model)]
        assert floors == [3, 1]

    @staticmethod
    def model(grid, variables, t, kind):
        dim = len(variables) - (1 if kind == PROJECTIVE else 0)
        return DeterminantalModel(PolyMatrix.from_strings(grid, variables), t,
                                  AmbientSpace(kind, dim))

    @pytest.fixture
    def runs(self, monkeypatch):
        """(floor, basis or None) of each certified_dimension call."""
        seen = []

        def recorded(ideal, floor, **named):
            dimension, basis = certified_dimension(ideal, floor, **named)
            seen.append((floor, basis))
            return dimension, basis

        monkeypatch.setattr(detvar, "certified_dimension", recorded)
        return seen

    @pytest.mark.parametrize("grid, variables, t, kind", [
        # two constant entries make a 2-minor with a constant term, and the
        # 2-minors and the 1-minors are more than one
        ([["x + 1", "y", "z"], ["y", "w + 1", "x"]], ("x", "y", "z", "w"), 2,
         AFFINE),
        # the rank ideal's floor 2 - min(3, 3) is negative, and the lower
        # ideal of t = 1 is the unit ideal
        ([["x0", "x1", "x0 + x1"]], ("x0", "x1"), 1, PROJECTIVE),
        ([["1", "2"], ["3", "4"]], ("x0", "x1"), 2, PROJECTIVE),
        ([["1", "2"], ["2", "4"]], ("x0", "x1"), 2, PROJECTIVE),
    ], ids=["affine", "t1", "degree0_empty", "degree0_everywhere"])
    def test_no_floor(self, runs, grid, variables, t, kind):
        model = self.model(grid, variables, t, kind)
        for ideal, codimension in self.floored_ideals(model):
            assert detvar._dimension_floor(model, codimension,
                                           ideal.generators) is None
        classify(model)
        # the rank ideal first, then the lower one unless the variety is empty
        assert [floor for floor, _ in runs] == [None] * len(runs)
        assert runs[0][1] == buchberger(
            Ideal(model.variables, minors(model.matrix, model.t)))

    def test_non_determinantal_runs_to_completion(self, runs):
        # the 2-minors are 0, x0^2 and x0*x1: codimension 1, below the
        # expected 2, so the rank ideal's floor 1 is never reached
        model = self.model([["x0", "x1", "0"], ["0", "0", "x0"]],
                           ("x0", "x1", "x2"), 2, PROJECTIVE)
        info = classify(model)
        assert (info.codimension, info.determinantal) == (1, False)
        # the lower ideal's Eagon-Northcott floor 3 - 6 is negative, but its
        # two distinct 1-minors x0 and x1 give the Krull floor 3 - 2 = 1,
        # which their leading monomials meet
        assert runs == [
            (1, buchberger(Ideal(model.variables, minors(model.matrix, 2)))),
            (1, None)]
