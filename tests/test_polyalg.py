from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from detsing.polyalg import (
    MAX_NESTING,
    ParseError,
    PolyMatrix,
    Polynomial,
    determinant,
    minors,
    parse_polynomial,
    rank_at_point,
)

XYZ = ("x", "y", "z")
P4 = ("x0", "x1", "x2", "x3", "x4")


def poly(text, variables=XYZ):
    return parse_polynomial(text, variables)


def is_zero(f):
    return not f.terms


small_fractions = st.builds(
    Fraction,
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=1, max_value=5),
)

small_integers = st.integers(min_value=-9, max_value=9).map(Fraction)

exponents = st.tuples(*[st.integers(min_value=0, max_value=2)] * 3)


@st.composite
def polynomials(draw, coefficients=small_fractions):
    terms = draw(st.dictionaries(exponents, coefficients, max_size=5))
    result = Polynomial.zero(XYZ)
    for expo, coeff in terms.items():
        mono = Polynomial.constant(XYZ, coeff)
        for index, power in enumerate(expo):
            mono = mono * Polynomial.variable(XYZ, XYZ[index]) ** power
        result = result + mono
    return result


def substitution_shift(f, offsets):
    """f(x0 + a0, ...) by expanding the products of (x_i + a_i)^e_i."""
    moved = [Polynomial.variable(f.variables, v) + a
             for v, a in zip(f.variables, offsets)]
    total = Polynomial.zero(f.variables)
    for exps, c in f.terms.items():
        part = Polynomial.constant(f.variables, c)
        for g, e in zip(moved, exps):
            part = part * g ** e
        total = total + part
    return total


class TestParsing:
    def test_conic_generator(self):
        f = poly("x0*x2 - x1^2", P4)
        assert f.coefficient((1, 0, 1, 0, 0)) == 1
        assert f.coefficient((0, 2, 0, 0, 0)) == -1
        assert f.total_degree() == 2

    def test_zero_literal(self):
        assert is_zero(poly("0"))

    def test_binomial_square_cancels(self):
        f = poly("(x + y)^2 - x^2 - 2*x*y - y^2")
        assert is_zero(f)

    def test_unary_minus_and_constants(self):
        f = poly("-3*x + 1")
        assert f.coefficient((1, 0, 0)) == -3
        assert f.coefficient((0, 0, 0)) == 1

    def test_nested_parentheses(self):
        f = poly("((x - y))*((x + y))")
        assert f == poly("x^2 - y^2")

    def test_unknown_variable_reports_position(self):
        with pytest.raises(ParseError) as info:
            poly("x*w")
        assert "position 2" in str(info.value)
        assert info.value.position == 2

    def test_missing_operand(self):
        with pytest.raises(ParseError):
            poly("x + ")

    def test_juxtaposition_rejected(self):
        with pytest.raises(ParseError):
            poly("2x")

    def test_fractional_exponent_rejected(self):
        with pytest.raises(ParseError):
            poly("x^(1/2)")

    def test_deep_nesting_rejected(self):
        text = "(" * 3000 + "x" + ")" * 3000
        with pytest.raises(ParseError) as info:
            parse_polynomial(text, ("x",))
        assert info.value.position == MAX_NESTING
        assert "nest" in str(info.value)

    @pytest.mark.parametrize("depth", [50, MAX_NESTING])
    def test_nesting_within_limit_parses(self, depth):
        text = "(" * depth + "x" + ")" * depth
        assert parse_polynomial(text, ("x",)) == Polynomial.variable(("x",), "x")

    def test_empty_input_rejected(self):
        with pytest.raises(ParseError):
            poly("   ")

    @given(polynomials(coefficients=small_integers))
    def test_str_round_trip(self, f):
        # integer coefficients only: the grammar has no fraction literal
        assert parse_polynomial(str(f), XYZ) == f


class TestArithmetic:
    @given(polynomials(), polynomials(), polynomials())
    def test_distributive(self, f, g, h):
        assert (f + g) * h == f * h + g * h

    @given(polynomials(), polynomials())
    def test_commutative_product(self, f, g):
        assert f * g == g * f

    @given(polynomials())
    def test_additive_inverse(self, f):
        assert is_zero(f - f)

    @given(polynomials(), polynomials())
    def test_degree_of_product(self, f, g):
        if is_zero(f) or is_zero(g):
            assert is_zero(f * g)
        else:
            assert (f * g).total_degree() == f.total_degree() + g.total_degree()

    def test_scalar_operations(self):
        f = poly("x + 2*y")
        assert 3 * f == poly("3*x + 6*y")
        half = f * Fraction(1, 2)
        assert half.coefficient((1, 0, 0)) == Fraction(1, 2)
        assert half.coefficient((0, 1, 0)) == 1

    def test_power(self):
        assert poly("x + 1") ** 3 == poly("x^3 + 3*x^2 + 3*x + 1")
        assert poly("x") ** 0 == poly("1")


class TestEvaluation:
    def test_conic_at_points(self):
        f = parse_polynomial("x0*x2 - x1^2", P4)
        assert f.evaluate((1, 0, 0, 0, 0)) == 0
        assert f.evaluate((0, 1, 0, 0, 0)) == -1
        assert f.evaluate((0, 0, 0, 0, 0)) == 0

    @given(polynomials(), polynomials(), st.tuples(*[small_fractions] * 3))
    def test_evaluation_is_a_homomorphism(self, f, g, point):
        assert (f * g).evaluate(point) == f.evaluate(point) * g.evaluate(point)
        assert (f + g).evaluate(point) == f.evaluate(point) + g.evaluate(point)

    def test_wrong_arity(self):
        with pytest.raises(ValueError):
            poly("x").evaluate((1, 2))


class TestCalculusAndStructure:
    def test_homogeneity(self):
        assert parse_polynomial("x0*x2 - x1^2", P4).homogeneous_degree() == 2
        assert poly("x^2 + y").homogeneous_degree() is None

    def test_weighted_homogeneity(self):
        f = poly("x^2 + y^3")
        assert f.is_weighted_homogeneous((3, 2, 1))
        assert not f.is_weighted_homogeneous((1, 1, 1))

    def test_eliminate_substitutes_and_drops(self):
        f = parse_polynomial("x0*x2 - x1^2", P4)
        g = f.eliminate({0: Fraction(1)})
        assert g.variables == ("x1", "x2", "x3", "x4")
        assert g == parse_polynomial("x2 - x1^2", g.variables)

    def test_shift(self):
        f = poly("x^2")
        g = f.shift((Fraction(1), Fraction(0), Fraction(0)))
        assert g == poly("x^2 + 2*x + 1")

    def test_shift_drops_cancelled_terms(self):
        # (x + 1)^2 - 2*(x + 1) = x^2 - 1: the x terms cancel
        g = poly("x^2 - 2*x").shift((Fraction(1), Fraction(0), Fraction(0)))
        assert g == poly("x^2 - 1")
        assert all(g.terms.values())

    @given(polynomials(), st.tuples(*[small_fractions] * 3),
           st.tuples(*[small_fractions] * 3))
    def test_shift_matches_substitution(self, f, offsets, point):
        g = f.shift(offsets)
        assert g == substitution_shift(f, offsets)
        assert all(g.terms.values())
        moved = [p + a for p, a in zip(point, offsets)]
        assert g.evaluate(point) == f.evaluate(moved)
        assert g.shift([-a for a in offsets]) == f

    def test_string_form_is_sorted_by_order(self):
        f = poly("1 + x^2 + y")
        assert str(f) == "x^2 + y + 1"
        assert str(poly("-x + 1")) == "-x + 1"


TWISTED = [["x0", "x1", "x2"], ["x1", "x2", "x3"]]


def leibniz_det(grid):
    """Determinant as the signed sum over permutations (Leibniz formula)."""
    n = len(grid)
    variables = grid[0][0].variables
    total = Polynomial.zero(variables)
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i, j in combinations(range(n), 2))
        term = Polynomial.constant(variables, (-1) ** inversions)
        for i, j in enumerate(perm):
            term = term * grid[i][j]
        total = total + term
    return total


SQUARE_SHAPES = [(n, n) for n in range(1, 5)]
RECTANGULAR_SHAPES = [(n, p) for n in range(1, 5) for p in range(1, 5)
                      if n != p and n * p <= 12]


@st.composite
def matrices(draw, shapes):
    rows, cols = draw(st.sampled_from(shapes))
    return PolyMatrix([[draw(polynomials()) for _ in range(cols)]
                       for _ in range(rows)])


class TestMatrices:
    def test_minors_of_catalecticant(self):
        m = PolyMatrix.from_strings(TWISTED, P4)
        got = minors(m, 2)
        expected = [
            parse_polynomial(s, P4)
            for s in ("x0*x2 - x1^2", "x0*x3 - x1*x2", "x1*x3 - x2^2")
        ]
        assert got == expected

    def test_minors_size_one_are_entries(self):
        m = PolyMatrix.from_strings(TWISTED, P4)
        assert minors(m, 1) == [m.entry(i, j) for i in range(2) for j in range(3)]

    def test_minor_size_out_of_range(self):
        m = PolyMatrix.from_strings(TWISTED, P4)
        with pytest.raises(ValueError):
            minors(m, 0)
        with pytest.raises(ValueError):
            minors(m, 3)

    def test_determinant_of_constant_matrix(self):
        m = PolyMatrix.from_strings([["1", "2"], ["3", "4"]], ("x",))
        assert determinant(m) == Polynomial.constant(("x",), Fraction(-2))

    def test_determinant_vandermonde(self):
        m = PolyMatrix.from_strings(
            [["1", "1", "1"], ["x", "y", "z"], ["x^2", "y^2", "z^2"]], XYZ
        )
        expected = poly("(y - x)*(z - x)*(z - y)")
        assert determinant(m) == expected

    @given(
        st.lists(
            st.lists(polynomials(), min_size=3, max_size=3), min_size=3, max_size=3
        )
    )
    def test_determinant_alternates_on_swap(self, rows):
        m = PolyMatrix(rows)
        swapped = PolyMatrix([rows[1], rows[0], rows[2]])
        assert determinant(m) == -determinant(swapped)

    @given(matrices(SQUARE_SHAPES))
    def test_determinant_matches_leibniz(self, m):
        assert determinant(m) == leibniz_det(m.entries)

    @given(matrices(SQUARE_SHAPES + RECTANGULAR_SHAPES))
    def test_minors_match_leibniz_in_lex_order(self, m):
        for size in range(1, min(m.rows, m.cols) + 1):
            expected = [
                leibniz_det([[m.entries[i][j] for j in cols] for i in rows])
                for rows in combinations(range(m.rows), size)
                for cols in combinations(range(m.cols), size)
            ]
            assert minors(m, size) == expected

    def test_rank_at_points(self):
        m = PolyMatrix.from_strings(TWISTED, P4)
        assert rank_at_point(m, (0, 0, 0, 0, 1)) == 0
        assert rank_at_point(m, (1, 0, 0, 0, 0)) == 1
        assert rank_at_point(m, (0, 1, 0, 0, 0)) == 2

    def test_nonrectangular_rejected(self):
        with pytest.raises(ValueError):
            PolyMatrix.from_strings([["x", "y"], ["z"]], XYZ)
