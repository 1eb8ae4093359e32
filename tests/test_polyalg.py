from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from detsing._linalg import div, exact
from detsing.grobner import Ideal, SPairBudgetExceeded, buchberger
from detsing.polyalg import (
    MAX_NESTING,
    ParseError,
    PolyMatrix,
    Polynomial,
    _det_cofactor,
    _product,
    _tokenize,
    is_variable_name,
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

small_integers = st.integers(min_value=-9, max_value=9)

# plain ints as well as Fractions, so both coefficient types are exercised
small_rationals = st.one_of(small_integers, small_fractions)

# products of halves are quarters, and sums of quarters are often integers
halves_and_integers = st.one_of(
    small_integers, st.builds(Fraction, st.integers(min_value=-9, max_value=9),
                              st.just(2)))

exponents = st.tuples(*[st.integers(min_value=0, max_value=2)] * 3)


@st.composite
def polynomials(draw, coefficients=small_fractions):
    terms = draw(st.dictionaries(exponents, coefficients, max_size=5))
    result = Polynomial(XYZ)
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
    total = Polynomial(f.variables)
    for exps, c in f.terms.items():
        part = Polynomial.constant(f.variables, c)
        for g, e in zip(moved, exps):
            part = part * g ** e
        total = total + part
    return total


class TestParsing:
    def test_conic_generator(self):
        f = poly("x0*x2 - x1^2", P4)
        assert f.terms[(1, 0, 1, 0, 0)] == 1
        assert f.terms[(0, 2, 0, 0, 0)] == -1
        assert f.total_degree() == 2

    def test_zero_literal(self):
        assert is_zero(poly("0"))

    def test_binomial_square_cancels(self):
        f = poly("(x + y)^2 - x^2 - 2*x*y - y^2")
        assert is_zero(f)

    def test_unary_minus_and_constants(self):
        f = poly("-3*x + 1")
        assert f.terms[(1, 0, 0)] == -3
        assert f.terms[(0, 0, 0)] == 1

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

    @pytest.mark.parametrize("text,position", [
        ("x0^²", 3),
        ("①", 0),
        ("١*x0", 0),
        ("1 + x0^1²", 8),
    ], ids=["superscript-exponent", "circled-digit", "arabic-indic-digit",
            "superscript-after-ascii"])
    def test_only_ascii_digits_are_numbers(self, text, position):
        # str.isdigit() accepts these, and int() either rejects them or reads
        # the Arabic-Indic one as 1
        with pytest.raises(ParseError) as info:
            parse_polynomial(text, ("x0",))
        assert info.value.position == position
        assert "unexpected character" in str(info.value)

    def test_literal_past_the_int_digit_limit(self):
        text = "x0 + " + "9" * 5000
        with pytest.raises(ParseError) as info:
            parse_polynomial(text, ("x0",))
        assert info.value.position == 5
        assert "5000 digits" in str(info.value)

    def test_empty_input_rejected(self):
        with pytest.raises(ParseError):
            poly("   ")

    @pytest.mark.parametrize("text,name", [
        ("x", True), ("_a1", True), ("x0_y", True), ("é", True),
        ("", False), (" x", False), ("x ", False), ("x y", False),
        ("2x", False), ("x+y", False), ("x$", False), ("1" * 5000, False),
    ])
    def test_a_variable_name_is_one_name_token(self, text, name):
        # "x$" and the 5000-digit literal raise ParseError in the tokenizer,
        # which reads as no name
        assert is_variable_name(text) is name

    @given(polynomials(coefficients=small_integers))
    def test_str_round_trip(self, f):
        # integer coefficients only: the grammar has no fraction literal
        assert parse_polynomial(str(f), XYZ) == f


class ArithmeticParser:
    """The recursive-descent parser as it was before it built term maps: each
    base is a Polynomial, and sums, products and powers are Polynomial
    arithmetic.  An oracle for `parse_polynomial`."""

    def __init__(self, text, variables):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.variables = tuple(variables)
        self.index = {v: i for i, v in enumerate(self.variables)}
        self.depth = 0

    def parse(self):
        result = self.expression()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected token {val!r}", pos)
        return result

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def expression(self):
        negate = False
        if self.peek()[:2] == ("op", "-"):
            self.advance()
            negate = True
        result = self.term()
        if negate:
            result = -result
        while True:
            kind, val, _pos = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                t = self.term()
                result = result + t if val == "+" else result - t
            else:
                return result

    def term(self):
        result = self.factor()
        while self.peek()[:2] == ("op", "*"):
            self.advance()
            result = result * self.factor()
        return result

    def factor(self):
        base = self.base()
        if self.peek()[:2] == ("op", "^"):
            self.advance()
            kind, val, pos = self.advance()
            if kind != "int":
                raise ParseError("exponent must be a non-negative integer literal", pos)
            return base ** val
        return base

    def base(self):
        kind, val, pos = self.advance()
        if kind == "int":
            return Polynomial.constant(self.variables, val)
        if kind == "name":
            if val not in self.index:
                raise ParseError(f"unknown variable {val!r}", pos)
            return Polynomial.variable(self.variables, val)
        if (kind, val) == ("op", "("):
            if self.depth == MAX_NESTING:
                raise ParseError(
                    f"parentheses nest deeper than {MAX_NESTING} levels", pos)
            self.depth += 1
            inner = self.expression()
            self.depth -= 1
            k2, v2, p2 = self.advance()
            if (k2, v2) != ("op", ")"):
                raise ParseError("expected ')'", p2)
            return inner
        what = "end of input" if kind == "end" else repr(val)
        raise ParseError(f"expected a number, variable, or '(', found {what}", pos)


def parse_outcome(parse, text, variables):
    """The parsed polynomial, or ("error", message, position)."""
    try:
        return parse(text, variables)
    except ParseError as e:
        return "error", str(e), e.position


# well-formed shapes and their near misses: a unary minus inside a sum or
# after an operator, powers of powers, empty parentheses, unknown names
expression_texts = st.recursive(
    st.one_of(st.integers(min_value=0, max_value=12).map(str),
              st.sampled_from(["x", "y", "z", "w", "x_1"])),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(["+", "-", "*", " + ", " - "]),
                  inner).map("".join),
        inner.map(lambda e: f"({e})"),
        inner.map(lambda e: f"-{e}"),
        st.tuples(inner, st.integers(min_value=0, max_value=3)).map(
            lambda pair: f"{pair[0]}^{pair[1]}")),
    max_leaves=6)

# token soup: mostly errors, at every kind of position
token_texts = st.lists(st.sampled_from(
    ["x", "y", "2", "10", "+", "-", "*", "^", "(", ")", " ", "(x", "w", "3x",
     "$"]),
    max_size=12).map("".join)


class TestParserOracle:
    @given(st.one_of(expression_texts, token_texts))
    def test_term_maps_match_polynomial_arithmetic(self, text):
        got = parse_outcome(parse_polynomial, text, XYZ)
        want = parse_outcome(lambda t, v: ArithmeticParser(t, v).parse(), text, XYZ)
        if isinstance(want, tuple):
            assert got == want
        else:
            assert isinstance(got, Polynomial) and got.variables == XYZ
            assert got.terms == want.terms
            assert_ints(got.terms.values())

    def test_a_repeated_name_reads_as_its_first_position(self):
        variables = ("x", "y", "x")
        got = parse_polynomial("x*y + x^2", variables)
        assert got.terms == {(1, 1, 0): 1, (2, 0, 0): 1}
        assert got.terms == ArithmeticParser("x*y + x^2", variables).parse().terms


def naive_product(a, b):
    """Term map of a product, every pair of terms on its own."""
    res = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(i + j for i, j in zip(ma, mb))
            res[m] = res.get(m, 0) + ca * cb
    return {m: c for m, c in res.items() if c}


class TestProductKernel:
    @given(polynomials(small_rationals), polynomials(small_rationals))
    def test_general_product_matches_every_pair(self, f, g):
        assert _product(f.terms, g.terms) == naive_product(f.terms, g.terms)

    @given(polynomials(st.one_of(small_integers, small_fractions,
                                 halves_and_integers)))
    def test_square_matches_the_general_product(self, f):
        # the same map twice takes the square path; an equal copy does not
        square = _product(f.terms, f.terms)
        assert square == _product(f.terms, dict(f.terms))
        assert square == naive_product(f.terms, f.terms)
        assert all(square.values())
        for h in (f * f, f ** 2, f ** 3):
            assert_normalized(h.terms.values())
        assert (f * f).terms == square and f ** 3 == f * f * f

    def test_square_of_halves_stores_ints(self):
        # (x/2 + 2)^2 = x^2/4 + 2x + 4: the doubled cross term is integral
        f = Polynomial(("x",), {(1,): Fraction(1, 2), (0,): 2})
        square = f * f
        assert square.terms == {(2,): Fraction(1, 4), (1,): 2, (0,): 4}
        assert_normalized(square.terms.values())
        assert type(square.terms[(1,)]) is int


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
        assert half.terms[(1, 0, 0)] == Fraction(1, 2)
        assert half.terms[(0, 1, 0)] == 1

    def test_power(self):
        assert poly("x + 1") ** 3 == poly("x^3 + 3*x^2 + 3*x + 1")
        assert poly("x") ** 0 == poly("1")

    @pytest.mark.parametrize("k", [-1, 2.0, True])
    def test_power_exponent_must_be_a_non_negative_integer(self, k):
        # a bool is an int to isinstance, so True would pass as 1
        with pytest.raises(ValueError, match="non-negative integer"):
            poly("x + 1") ** k


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
        assert list(f.weight_components((3, 2, 1))) == [6]
        assert list(f.weight_components((1, 1, 1))) == [2, 3]

    def test_bool_exponent_is_rejected(self):
        # a bool is an int to isinstance and to int(), which read True as 1
        with pytest.raises(TypeError, match="integer exponents"):
            Polynomial(("x",), {(True,): 1})

    @pytest.mark.parametrize("index", [True, 0.5])
    def test_eliminate_rejects_an_index_that_is_not_an_int(self, index):
        # int() would read True as x1 and 0.5 as x0
        with pytest.raises(TypeError, match="integer variable indices"):
            poly("x*y + y").eliminate({index: 2})

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

    @given(polynomials(small_rationals),
           st.tuples(*[small_fractions] * 3).filter(
               lambda offsets: sum(map(bool, offsets)) >= 2),
           st.tuples(*[small_fractions] * 3))
    def test_shift_matches_substitution(self, f, offsets, point):
        # two or three moved variables, each shifted in turn
        g = f.shift(offsets)
        assert g == substitution_shift(f, offsets)
        assert all(g.terms.values())
        assert all(type(c) is int for c in g.terms.values() if c == int(c))
        moved = [p + a for p, a in zip(point, offsets)]
        assert g.evaluate(point) == f.evaluate(moved)
        assert g.shift([-a for a in offsets]) == f

    def test_string_form_is_sorted_by_order(self):
        f = poly("1 + x^2 + y")
        assert str(f) == "x^2 + y + 1"
        assert str(poly("-x + 1")) == "-x + 1"


class TestRejectedOperands:
    def test_constructor_checks_names_and_exponents(self):
        with pytest.raises(ValueError, match="duplicate variable names"):
            Polynomial(("x", "y", "x"))
        with pytest.raises(ValueError, match="exponent vector length"):
            Polynomial(XYZ, {(1, 0): 1})
        with pytest.raises(ValueError, match="negative exponent"):
            Polynomial(XYZ, {(1, -1, 0): 1})

    def test_unknown_variable_name(self):
        with pytest.raises(ValueError, match="unknown variable 'w'"):
            Polynomial.variable(XYZ, "w")

    def test_operands_over_different_variable_lists(self):
        f, g = poly("x"), poly("x", ("x", "y"))
        with pytest.raises(ValueError, match="different variable lists"):
            f + g
        with pytest.raises(ValueError, match="different variable lists"):
            f * g

    def test_reflected_and_foreign_operands(self):
        f = poly("x + 1")
        assert 3 - f == poly("-x + 2")
        with pytest.raises(TypeError):
            f - "x"
        with pytest.raises(TypeError):
            "x" - f
        assert f != 3

    def test_zero_polynomial_has_no_leading_monomial(self):
        with pytest.raises(ValueError, match="no leading monomial"):
            poly("0").leading_monomial()

    @pytest.mark.parametrize("index", [3, -1])
    def test_eliminate_index_out_of_range(self, index):
        with pytest.raises(IndexError, match="out of range"):
            poly("x*y").eliminate({index: 2})

    def test_one_offset_and_one_weight_per_variable(self):
        with pytest.raises(ValueError, match="one offset per variable"):
            poly("x").shift((1, 2))
        with pytest.raises(ValueError, match="one weight per variable"):
            poly("x").weight_components((1, 2))

    def test_repr_shows_the_string_form(self):
        assert repr(poly("x^2 - 1")) == "Polynomial('x^2 - 1')"


TWISTED = [["x0", "x1", "x2"], ["x1", "x2", "x3"]]


def leibniz_det(grid):
    """Determinant as the signed sum over permutations (Leibniz formula)."""
    n = len(grid)
    variables = grid[0][0].variables
    total = Polynomial(variables)
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
        assert minors(m, 1) == [m.entries[i][j] for i in range(2) for j in range(3)]

    @pytest.mark.parametrize("size", [0, -1, 1.0, True])
    def test_minor_size_must_be_a_positive_integer(self, size):
        # a bool is an int to isinstance, so True would pass as 1
        m = PolyMatrix.from_strings(TWISTED, P4)
        with pytest.raises(ValueError, match="positive integer"):
            minors(m, size)

    def test_minor_size_out_of_range(self):
        m = PolyMatrix.from_strings(TWISTED, P4)
        with pytest.raises(ValueError):
            minors(m, 0)
        with pytest.raises(ValueError):
            minors(m, 3)

    # the determinant of a square matrix is its one maximal minor
    def test_determinant_of_constant_matrix(self):
        m = PolyMatrix.from_strings([["1", "2"], ["3", "4"]], ("x",))
        assert minors(m, 2) == [Polynomial.constant(("x",), Fraction(-2))]

    def test_determinant_vandermonde(self):
        m = PolyMatrix.from_strings(
            [["1", "1", "1"], ["x", "y", "z"], ["x^2", "y^2", "z^2"]], XYZ
        )
        expected = poly("(y - x)*(z - x)*(z - y)")
        assert minors(m, 3) == [expected]

    @given(
        st.lists(
            st.lists(polynomials(), min_size=3, max_size=3), min_size=3, max_size=3
        )
    )
    def test_determinant_alternates_on_swap(self, rows):
        m = PolyMatrix(rows)
        swapped = PolyMatrix([rows[1], rows[0], rows[2]])
        assert minors(m, 3) == [-d for d in minors(swapped, 3)]

    @given(matrices(SQUARE_SHAPES))
    def test_determinant_matches_leibniz(self, m):
        assert minors(m, m.rows) == [leibniz_det(m.entries)]

    @given(matrices(SQUARE_SHAPES + RECTANGULAR_SHAPES))
    def test_minors_match_leibniz_in_lex_order(self, m):
        for size in range(1, min(m.rows, m.cols) + 1):
            expected = [
                leibniz_det([[m.entries[i][j] for j in cols] for i in rows])
                for rows in combinations(range(m.rows), size)
                for cols in combinations(range(m.cols), size)
            ]
            assert minors(m, size) == expected

    @given(matrices(SQUARE_SHAPES + RECTANGULAR_SHAPES), st.data())
    def test_minors_sharing_products_across_matrices(self, m, data):
        # the second matrix reuses entries of the first, so the shared
        # products both hit and miss
        rows, cols = data.draw(st.sampled_from(SQUARE_SHAPES + RECTANGULAR_SHAPES))
        pool = st.one_of(st.sampled_from([e for row in m.entries for e in row]),
                         polynomials())
        n = PolyMatrix([[data.draw(pool) for _ in range(cols)]
                        for _ in range(rows)])
        products = {}
        for a in (m, n):
            for size in range(1, min(a.rows, a.cols) + 1):
                expected = [
                    leibniz_det([[a.entries[i][j] for j in cs] for i in rs])
                    for rs in combinations(range(a.rows), size)
                    for cs in combinations(range(a.cols), size)
                ]
                assert minors(a, size, products) == minors(a, size) == expected

    @given(st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.lists(st.lists(polynomials(halves_and_integers),
                                    min_size=n, max_size=n),
                           min_size=n, max_size=n)))
    def test_one_dict_cofactor_matches_leibniz(self, grid):
        # half-integer coefficients make Fraction products, whose sums are
        # often integers: those coefficients come out of minors as ints
        det = _det_cofactor(grid, {})
        assert det == leibniz_det(grid).terms
        m, shared = PolyMatrix(grid), {}
        for size in range(1, len(grid) + 1):
            got = minors(m, size, shared)
            assert got == minors(m, size)
            for g in got:
                assert all(type(c) is int for c in g.terms.values() if c == int(c))
        # the one maximal minor is the cofactor term map, made exact
        assert [g.terms for g in got] == [det]

    @given(matrices(SQUARE_SHAPES))
    def test_maximal_minor_of_a_square_matrix_skips_the_sub_grids(self, m):
        # the one minor is the cofactor sum over the entries themselves; it
        # and the products it memoizes are those of the sub-grid the general
        # path builds
        products, general = {}, {}
        grid = [[m.entries[i][j] for j in range(m.cols)] for i in range(m.rows)]
        assert ([g.terms for g in minors(m, m.rows, products)]
                == [_det_cofactor(grid, general)])
        assert products == general

    def test_fraction_products_that_sum_to_an_integer(self):
        # ((x + 1)^2 - (x - 1)^2) / 4 = x
        half = Fraction(1, 2)
        plus, minus = poly("x + 1") * half, poly("x - 1") * half
        (det,) = minors(PolyMatrix([[plus, minus], [minus, plus]]), 2)
        assert det == poly("x")
        assert type(det.terms[(1, 0, 0)]) is int

    def test_rank_at_points(self):
        m = PolyMatrix.from_strings(TWISTED, P4)
        assert rank_at_point(m, (0, 0, 0, 0, 1)) == 0
        assert rank_at_point(m, (1, 0, 0, 0, 0)) == 1
        assert rank_at_point(m, (0, 1, 0, 0, 0)) == 2

    def test_nonrectangular_rejected(self):
        with pytest.raises(ValueError):
            PolyMatrix.from_strings([["x", "y"], ["z"]], XYZ)

    @pytest.mark.parametrize("entries, message", [
        ([], "non-empty"),
        ([[]], "non-empty"),
        ([[1]], "must be polynomials"),
        ([[poly("x"), 1]], "share one variable list"),
        ([[poly("x")], [poly("x", ("x", "y"))]], "share one variable list"),
    ])
    def test_entries_rejected(self, entries, message):
        with pytest.raises(ValueError, match=message):
            PolyMatrix(entries)

    def test_equality_and_repr(self):
        m = PolyMatrix.from_strings(TWISTED, P4)
        assert m == PolyMatrix.from_strings(TWISTED, P4)
        assert m != PolyMatrix.from_strings(TWISTED[::-1], P4)
        assert m != m.entries
        assert repr(m) == "PolyMatrix(2x3 over ('x0', 'x1', 'x2', 'x3', 'x4'))"


def assert_exact(values):
    # the arithmetic is exact: an int or a Fraction, never a float
    for v in values:
        assert type(v) in (int, Fraction), repr(v)


def assert_ints(values):
    for v in values:
        assert type(v) is int, repr(v)


def assert_normalized(values):
    # an integral coefficient is stored as an int, never as Fraction(n, 1)
    for v in values:
        assert type(v) is int or (type(v) is Fraction and v.denominator != 1), repr(v)


class TestExactCoefficients:
    @given(polynomials(small_rationals), polynomials(small_rationals),
           st.tuples(*[small_rationals] * 3), st.integers(min_value=0, max_value=3))
    def test_operations_keep_exact_coefficients(self, f, g, point, k):
        results = [f + g, f - g, -f, f * g, f * point[0], point[1] * g, f ** k,
                   f.shift(point), f.eliminate({0: point[0], 2: point[2]})]
        results += minors(PolyMatrix([[f, g], [g, f + 1]]), 1)
        results += minors(PolyMatrix([[f, g], [g, f + 1]]), 2)
        for h in results:
            assert_exact(h.terms.values())
            assert_normalized(h.terms.values())
        values = [f.evaluate(point),
                  *(v for row in PolyMatrix([[f, g]]).evaluate(point) for v in row)]
        assert_exact(values)
        assert_normalized(values)

    @given(polynomials(small_integers), polynomials(small_integers),
           st.tuples(*[small_integers] * 3), st.integers(min_value=0, max_value=3))
    def test_integer_inputs_stay_int(self, f, g, point, k):
        # ints in, ints out: no operation without a division makes a Fraction
        results = [f + g, f - g, f * g, f * point[0], f ** k, f.shift(point),
                   f.eliminate({1: point[1]})]
        results += minors(PolyMatrix([[f, g], [g, f + 1]]), 2)
        for h in results:
            assert_ints(h.terms.values())
        assert_ints([f.evaluate(point)])

    @given(st.lists(polynomials(small_rationals), min_size=1, max_size=3))
    def test_basis_coefficients_are_exact(self, gens):
        try:
            basis = buchberger(Ideal(XYZ, gens), spair_budget=60)
        except SPairBudgetExceeded:
            return
        for p in basis.polynomials:
            assert_exact(p.terms.values())
            assert_normalized(p.terms.values())
            assert p.terms[p.leading_monomial()] == 1

    @given(polynomials(small_rationals), small_rationals,
           st.tuples(*[small_rationals] * 3))
    def test_scaling_and_elimination_store_integral_values_as_int(self, f, c, point):
        results = [f * c, c * f, f.eliminate({0: point[0]}),
                   f.eliminate({0: point[0], 2: point[2]})]
        for h in results:
            assert_normalized(h.terms.values())

    def test_integral_fraction_products_become_ints(self):
        half = Polynomial(("x",), {(1,): Fraction(1, 2)})
        assert type((half * 2).terms[(1,)]) is int
        assert type((2 * half).terms[(1,)]) is int
        xy = Polynomial(("x", "y"), {(1, 1): Fraction(1, 2)})
        assert type(xy.eliminate({1: 2}).terms[(1,)]) is int
        # two halves that add up to an integer in one monomial
        two = Polynomial(("x", "y"), {(1, 1): Fraction(1, 2), (1, 0): Fraction(3, 2)})
        assert two.eliminate({1: 1}).terms == {(1,): 2}
        assert type(two.eliminate({1: 1}).terms[(1,)]) is int

    def test_integral_fraction_sums_products_and_shifts_become_ints(self):
        half = Polynomial(("x",), {(1,): Fraction(1, 2)})
        two = Polynomial(("x",), {(0,): 2})
        assert type((half + half).terms[(1,)]) is int
        assert type((half * two).terms[(1,)]) is int
        # 3/2 (x + 1)^2 = 3/2 x^2 + 3 x + 3/2
        shifted = Polynomial(("x",), {(2,): Fraction(3, 2)}).shift((1,))
        assert shifted.terms == {(2,): Fraction(3, 2), (1,): 3, (0,): Fraction(3, 2)}
        assert type(shifted.terms[(1,)]) is int
        # a Fraction offset alone: (x + 1/2)^2 = x^2 + x + 1/4
        x2 = Polynomial(("x",), {(2,): 1}).shift((Fraction(1, 2),))
        assert type(x2.terms[(1,)]) is int

    @given(small_rationals)
    def test_exact_normalizes_integral_fractions(self, x):
        y = exact(x)
        assert y == x
        assert type(y) is (int if Fraction(x).denominator == 1 else Fraction)

    @given(small_rationals, small_rationals.filter(bool))
    def test_div_is_the_exact_quotient(self, a, b):
        q = div(a, b)
        assert q == Fraction(a) / Fraction(b)
        assert type(q) is (int if q.denominator == 1 else Fraction)

    @pytest.mark.parametrize("make", [
        lambda: exact(0.5),
        lambda: div(1, 0.5),
        lambda: Polynomial(("x",), {(1,): 0.1}),
        lambda: Polynomial.constant(("x",), 2.0),
        lambda: poly("x") * 0.5,
        lambda: poly("x") + 0.5,
        lambda: poly("x").evaluate((0.5, 0, 0)),
        # a float is refused before the coordinates are counted
        lambda: poly("x").evaluate((0.5,)),
        lambda: poly("x").shift((0.5, 0, 0)),
        lambda: poly("x").eliminate({0: 0.5}),
        # int() would read the exponent 1.5 as 1 and the weight 0.7 as 0
        lambda: Polynomial(("x",), {(1.5,): 1}),
        lambda: poly("x^2 + y^3").weight_components((0.7, 1, 1)),
        # a matrix leaves the point to its entries
        lambda: PolyMatrix([[poly("1"), poly("x")]]).evaluate((0, 0.5, 0)),
        lambda: rank_at_point(PolyMatrix([[poly("y")], [poly("z")]]), (1, 2, 0.5)),
    ], ids=["exact", "div", "init", "constant", "scale", "add", "evaluate",
            "evaluate_short", "shift", "eliminate", "exponent", "weight",
            "matrix_evaluate", "rank_at_point"])
    def test_floats_are_rejected(self, make):
        with pytest.raises(TypeError):
            make()

    @pytest.mark.parametrize("evaluate", [
        lambda m, point: m.entries[0][0].evaluate(point),
        PolyMatrix.evaluate, rank_at_point,
    ], ids=["evaluate", "matrix_evaluate", "rank_at_point"])
    def test_short_points_are_counted_by_the_entries(self, evaluate):
        # a matrix leaves the count to its entries, whose message it passes on
        m = PolyMatrix([[poly("x"), poly("1")]])
        with pytest.raises(ValueError, match=r"^point has 2 coordinates, expected 3$"):
            evaluate(m, (1, 2))
