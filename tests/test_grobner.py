import itertools
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from detsing import grobner
from detsing.grobner import (
    GREVLEX,
    LEX,
    Ideal,
    MonomialOrder,
    SPairBudgetExceeded,
    buchberger,
    ideal_dimension,
    is_groebner_basis,
    is_reduced,
    leading_term,
    normal_form,
    quasi_homogeneous_weights,
    quotient_dimension,
    s_polynomial,
)
from detsing._linalg import nonnegative_kernel_vector, rational_rank, row_basis
from detsing.polyalg import (
    Polynomial,
    _mono_divides,
    _mono_mul,
    _mono_sub,
    parse_polynomial,
)

P4 = ("x0", "x1", "x2", "x3")
XY = ("x", "y")
XYZ = ("x", "y", "z")


def polys(texts, variables):
    return [parse_polynomial(t, variables) for t in texts]


def ideal(texts, variables):
    return Ideal(variables, polys(texts, variables))


CATALECTICANT_MINORS = ("x0*x2 - x1^2", "x0*x3 - x1*x2", "x1*x3 - x2^2")
# grevlex leading terms are x1^2, x1*x2, x2^2, so the monic forms flip sign
CATALECTICANT_BASIS = ("x1^2 - x0*x2", "x1*x2 - x0*x3", "x2^2 - x1*x3")


def brute_force_quotient_dimension(basis_polys, variables):
    """Independent staircase count via the rank of a truncated relation matrix.

    For a graded order every element of the ideal of degree <= D is a
    combination of monomial multiples m*g with deg(m*g) <= D, so the quotient
    dimension equals #monomials(<= D) minus the rank of those products,
    provided D bounds the degree of every standard monomial.  Pure powers of
    each variable appear among the leading terms in the zero-dimensional case,
    which gives such a bound.
    """
    n = len(variables)
    bounds = []
    for index in range(n):
        best = None
        for g in basis_polys:
            lm = g.leading_monomial()
            if all(lm[j] == 0 for j in range(n) if j != index):
                if best is None or lm[index] < best:
                    best = lm[index]
        if best is None:
            return None
        bounds.append(best)
    cap = sum(b - 1 for b in bounds)
    box = [e for e in itertools.product(*[range(cap + 1)] * n) if sum(e) <= cap]
    box.sort()
    column = {expo: i for i, expo in enumerate(box)}
    rows = []
    for g in basis_polys:
        gdeg = g.total_degree()
        for mult in box:
            if sum(mult) + gdeg > cap:
                continue
            row = [Fraction(0)] * len(box)
            for expo, coeff in g.terms.items():
                shifted = tuple(a + b for a, b in zip(expo, mult))
                row[column[shifted]] = coeff
            rows.append(row)
    return len(box) - _rank(rows)


def _rank(rows):
    # local elimination so the oracle shares no code with the library
    rows = [list(r) for r in rows]
    rank = 0
    col = 0
    width = len(rows[0]) if rows else 0
    while rank < len(rows) and col < width:
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                factor = rows[i][col] / lead
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
        col += 1
    return rank


class TestBuchberger:
    def test_variables_basis(self):
        basis = buchberger(ideal(("x", "y"), XY))
        assert [str(g) for g in basis.polynomials] == ["x", "y"]

    def test_redundant_generator_collapses(self):
        basis = buchberger(ideal(("x^2 - 1", "x - 1"), ("x",)))
        assert [str(g) for g in basis.polynomials] == ["x - 1"]

    def test_catalecticant_minors(self):
        basis = buchberger(ideal(CATALECTICANT_MINORS, P4))
        assert list(basis.polynomials) == polys(CATALECTICANT_BASIS, P4)
        assert is_groebner_basis(basis)
        assert is_reduced(basis)

    def test_unit_ideal(self):
        basis = buchberger(ideal(("x + 1", "x"), ("x",)))
        assert [str(g) for g in basis.polynomials] == ["1"]

    def test_zero_ideal(self):
        basis = buchberger(Ideal(XY, []))
        assert not basis.polynomials
        assert is_groebner_basis(basis)

    def test_budget_exhaustion(self):
        with pytest.raises(SPairBudgetExceeded):
            buchberger(ideal(CATALECTICANT_MINORS, P4), spair_budget=1)

    def test_lex_elimination_shape(self):
        # lex basis of a zero-dimensional ideal carries a univariate eliminant
        basis = buchberger(ideal(("x^2 + y^2 - 1", "x - y"), XY), order=LEX)
        tail = [g for g in basis.polynomials if g.leading_monomial(key=LEX.key)[0] == 0]
        assert len(tail) == 1
        eliminant = tail[0]
        assert eliminant.leading_monomial(key=LEX.key) == (0, 2)
        assert eliminant.coefficient((0, 0)) == Fraction(-1, 2)

    @given(
        st.lists(
            st.dictionaries(
                st.tuples(*[st.integers(min_value=0, max_value=2)] * 2),
                st.integers(min_value=-4, max_value=4).filter(bool).map(Fraction),
                max_size=3,
            ),
            min_size=1,
            max_size=3,
        )
    )
    def test_buchberger_output_is_reduced_groebner(self, raw):
        gens = []
        for term_dict in raw:
            g = Polynomial.zero(XY)
            for (a, b), coeff in term_dict.items():
                x = Polynomial.variable(XY, "x")
                y = Polynomial.variable(XY, "y")
                g = g + Polynomial.constant(XY, coeff) * x**a * y**b
            if g.terms:
                gens.append(g)
        basis = buchberger(Ideal(XY, gens))
        assert is_groebner_basis(basis)
        assert is_reduced(basis)
        for g in gens:
            assert not normal_form(g, basis).terms


# Reference engine for TestBuchbergerOracle: pending pairs in a set re-ranked
# with min on every step, division that recomputes every order key, and
# autoreduction repeated until nothing changes.  `buchberger` must form the
# same S-polynomials in the same order and return the same basis.

def _scan_reduce(f, info, order):
    """Division with the key recomputed for every term at every step."""
    key = order.key
    work = dict(f.terms)
    remainder = {}
    while work:
        lm = max(work, key=key)
        lc = work[lm]
        for glm, glc, g in info:
            if _mono_divides(glm, lm):
                qm = _mono_sub(lm, glm)
                qc = lc / glc
                for m, c in g.terms.items():
                    mm = _mono_mul(qm, m)
                    s = work.get(mm, 0) - qc * c
                    if s:
                        work[mm] = s
                    else:
                        work.pop(mm, None)
                break
        else:
            remainder[lm] = lc
            del work[lm]
    return Polynomial._raw(f.variables, remainder)


def _scan_info(polys, order):
    return [leading_term(p, order) + (p,) for p in polys]


def _scan_monic(f, order):
    return f * (1 / leading_term(f, order)[1])


def _scan_autoreduce(polys, order):
    """Minimal filter, then tail reduction repeated until nothing changes."""
    key = order.key
    polys = sorted(polys, key=lambda p: key(p.leading_monomial(key)))
    minimal = []
    for p in polys:
        lm = p.leading_monomial(key)
        if not any(_mono_divides(q.leading_monomial(key), lm) for q in minimal):
            minimal.append(p)
    changed = True
    while changed:
        changed = False
        for i, p in enumerate(minimal):
            rest = minimal[:i] + minimal[i + 1:]
            r = _scan_monic(_scan_reduce(p, _scan_info(rest, order), order), order)
            if r != p:
                minimal[i] = r
                changed = True
    return sorted(minimal, key=lambda p: key(p.leading_monomial(key)), reverse=True)


def scan_buchberger(ideal, order, spair_budget):
    """Reference Buchberger: re-ranks every pending pair on every step.

    Returns the reduced basis and the number of pairs taken up, or raises
    SPairBudgetExceeded once more than `spair_budget` pairs have been taken.
    """
    key = order.key
    basis = [_scan_monic(g, order) for g in ideal.generators]
    info = _scan_info(basis, order)
    lms = [t[0] for t in info]

    def pair_rank(ij):
        i, j = ij
        return (sum(max(a, b) for a, b in zip(lms[i], lms[j])), i, j)

    pairs = {(i, j) for j in range(len(basis)) for i in range(j)}
    processed = 0
    while pairs:
        pick = min(pairs, key=pair_rank)
        pairs.remove(pick)
        processed += 1
        if processed > spair_budget:
            raise SPairBudgetExceeded(f"S-pair budget of {spair_budget} exceeded")
        i, j = pick
        if all(min(a, b) == 0 for a, b in zip(lms[i], lms[j])):
            continue
        r = _scan_reduce(grobner.s_polynomial(basis[i], basis[j], order), info, order)
        if r:
            r = _scan_monic(r, order)
            basis.append(r)
            lm = r.leading_monomial(key)
            info.append((lm, r.terms[lm], r))
            lms.append(lm)
            new = len(basis) - 1
            pairs.update((k, new) for k in range(new))
    return tuple(_scan_autoreduce(basis, order)), processed


@st.composite
def ordered_ideals(draw):
    nvars = draw(st.integers(min_value=2, max_value=4))
    variables = tuple(f"x{i}" for i in range(nvars))
    exponents = st.tuples(*[st.integers(min_value=0, max_value=2)] * nvars)
    coefficients = st.integers(min_value=-3, max_value=3).filter(bool)
    terms = st.dictionaries(exponents, coefficients, min_size=1, max_size=3)
    gens = [Polynomial(variables, draw(terms))
            for _ in range(draw(st.integers(min_value=2, max_value=4)))]
    kind = draw(st.sampled_from(("grevlex", "lex")))
    return Ideal(variables, gens), MonomialOrder(kind)


# reference runs that take more pairs than this are compared at the cap
ORACLE_PAIR_CAP = 400


def recording_s_pairs(run, *args):
    """Result of run(*args) and the (f, g) of every S-polynomial it formed."""
    calls = []

    def recording(f, g, order=GREVLEX):
        calls.append((f, g))
        return s_polynomial(f, g, order)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(grobner, "s_polynomial", recording)
        return run(*args), calls


class TestBuchbergerOracle:
    @given(ordered_ideals(), st.integers(min_value=0, max_value=40))
    def test_matches_the_rescanning_reference(self, case, budget):
        ideal_, order = case
        try:
            (expected, pairs), expected_calls = recording_s_pairs(
                scan_buchberger, ideal_, order, ORACLE_PAIR_CAP)
        except SPairBudgetExceeded:
            with pytest.raises(SPairBudgetExceeded):
                buchberger(ideal_, order, ORACLE_PAIR_CAP)
            return
        basis, calls = recording_s_pairs(buchberger, ideal_, order, pairs)
        assert basis.polynomials == expected
        assert calls == expected_calls
        if pairs:
            with pytest.raises(SPairBudgetExceeded):
                buchberger(ideal_, order, pairs - 1)
        if budget < pairs:
            with pytest.raises(SPairBudgetExceeded):
                scan_buchberger(ideal_, order, budget)
            with pytest.raises(SPairBudgetExceeded):
                buchberger(ideal_, order, budget)
        else:
            assert buchberger(ideal_, order, budget).polynomials == expected
            assert scan_buchberger(ideal_, order, budget) == (expected, pairs)


class TestNormalForm:
    def test_generators_reduce_to_zero(self):
        basis = buchberger(ideal(CATALECTICANT_MINORS, P4))
        for text in CATALECTICANT_MINORS:
            assert not normal_form(parse_polynomial(text, P4), basis).terms

    def test_pinned_reduction(self):
        basis = buchberger(ideal(CATALECTICANT_MINORS, P4))
        f = parse_polynomial("x1^3", P4)
        assert normal_form(f, basis) == parse_polynomial("x0^2*x3", P4)

    def test_standard_monomial_is_fixed(self):
        basis = buchberger(ideal(CATALECTICANT_MINORS, P4))
        f = parse_polynomial("x0^2*x3", P4)
        assert normal_form(f, basis) == f

    def test_constant_against_proper_ideal(self):
        basis = buchberger(ideal(("x", "y"), XY))
        one = parse_polynomial("1", XY)
        assert normal_form(one, basis) == one

    def test_idempotent(self):
        basis = buchberger(ideal(CATALECTICANT_MINORS, P4))
        f = parse_polynomial("x1^3 + x0*x3^2 - 7*x2", P4)
        once = normal_form(f, basis)
        assert normal_form(once, basis) == once

    def test_membership_of_products(self):
        basis = buchberger(ideal(CATALECTICANT_MINORS, P4))
        gen = parse_polynomial(CATALECTICANT_MINORS[1], P4)
        cofactor = parse_polynomial("x0*x3 - 5*x1 + 2", P4)
        assert not normal_form(cofactor * gen, basis).terms


def basis_of(texts, variables, order=GREVLEX):
    return buchberger(ideal(texts, variables), order)


class TestDimension:
    def test_catalecticant_dimension(self):
        assert ideal_dimension(basis_of(CATALECTICANT_MINORS, P4)) == 2

    def test_order_independence(self):
        assert ideal_dimension(basis_of(CATALECTICANT_MINORS, P4, LEX)) == 2

    def test_point_ideal(self):
        assert ideal_dimension(basis_of(("x0", "x1", "x2", "x3"), P4)) == 0

    def test_zero_ideal(self):
        assert ideal_dimension(buchberger(Ideal(XYZ, []))) == 3

    def test_unit_ideal(self):
        assert ideal_dimension(basis_of(("x", "1 - x"), XY)) == -1

    def test_hypersurface(self):
        assert ideal_dimension(basis_of(("x*y - 1",), XY)) == 1


QUOTIENT_TABLE = [
    (("x", "y"), XY, 1),
    (("x^2", "y^3"), XY, 6),
    (("x^2", "x*y", "y^2"), XY, 3),
    (("x + y", "y^2"), XY, 2),
    (("x^2 - y", "y^2"), XY, 4),
    (("x^2", "y^2", "z^2"), XYZ, 8),
    (("x^2", "y^2", "z^3"), XYZ, 12),
    (("x^2 + y", "y^3 - z", "z^2"), XYZ, 12),
]


class TestQuotientDimension:
    @pytest.mark.parametrize("texts,variables,expected", QUOTIENT_TABLE)
    def test_pinned_values(self, texts, variables, expected):
        assert quotient_dimension(basis_of(texts, variables)) == expected

    @pytest.mark.parametrize("texts,variables,expected", QUOTIENT_TABLE)
    def test_against_relation_matrix_oracle(self, texts, variables, expected):
        gb = basis_of(texts, variables)
        assert is_groebner_basis(gb)
        oracle = brute_force_quotient_dimension(gb.polynomials, variables)
        assert oracle == expected
        assert quotient_dimension(gb) == oracle

    def test_positive_dimension_reports_infinite(self):
        assert quotient_dimension(basis_of(("x",), XY)) is None

    def test_unit_ideal_quotient(self):
        assert quotient_dimension(basis_of(("1",), XY)) == 0


class TestOrders:
    def test_grevlex_vs_lex_leading_monomial(self):
        f = parse_polynomial("x^2 + y*z", XYZ)
        assert f.leading_monomial(key=GREVLEX.key) == (2, 0, 0)
        g = parse_polynomial("x*z^2 + y^3", XYZ)
        # grevlex prefers the monomial with fewer trailing exponents
        assert g.leading_monomial(key=GREVLEX.key) == (0, 3, 0)
        assert g.leading_monomial(key=LEX.key) == (1, 0, 2)

    def test_invalid_kind(self):
        with pytest.raises(ValueError):
            MonomialOrder("degrevlex")


def exponent_differences(polys):
    """Each polynomial's exponents minus those of its lex-least monomial."""
    rows = []
    for p in polys:
        ms = sorted(p.terms)
        rows.extend([Fraction(a - b) for a, b in zip(m, ms[0])] for m in ms[1:])
    return rows


@st.composite
def weight_systems(draw):
    nvars = draw(st.integers(min_value=2, max_value=4))
    variables = tuple(f"x{i}" for i in range(nvars))
    exponents = st.tuples(*[st.integers(min_value=0, max_value=3)] * nvars)
    terms = st.dictionaries(exponents, st.integers(min_value=1, max_value=3),
                            min_size=1, max_size=4)
    return [Polynomial(variables, draw(terms))
            for _ in range(draw(st.integers(min_value=1, max_value=3)))]


class TestWeights:
    def test_plane_cusp_weights(self):
        w = quasi_homogeneous_weights(polys(("x^2 + y^3",), XY))
        assert w == (3, 2)

    def test_single_monomials_never_constrain(self):
        gens = polys(("x^2 + y^3", "x*y"), XY)
        assert quasi_homogeneous_weights(gens) == (3, 2)

    def test_conflicting_constraints(self):
        gens = polys(("x^2 + y^3", "x^2 + y^2"), XY)
        assert quasi_homogeneous_weights(gens) is None

    def test_homogeneous_input(self):
        gens = polys(CATALECTICANT_MINORS, P4)
        w = quasi_homogeneous_weights(gens)
        assert w is not None
        for g in gens:
            assert g.is_weighted_homogeneous(w)

    def test_non_quasi_homogeneous(self):
        gens = polys(("x^2 + x^3 + y^7",), XY)
        assert quasi_homogeneous_weights(gens) is None

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            quasi_homogeneous_weights([])

    @given(weight_systems())
    def test_row_basis_keeps_the_feasibility_answer(self, gens):
        # the row basis has the same kernel as the full difference rows, so
        # weights exist exactly when they exist for the unreduced system;
        # with a kernel of dimension two or more the vertex may differ
        rows = exponent_differences(gens)
        w = quasi_homogeneous_weights(gens)
        full = nonnegative_kernel_vector(rows, len(gens[0].variables))
        assert (w is None) == (full is None)
        if w is not None:
            assert min(w) >= 0 and any(w)
            for g in gens:
                assert g.is_weighted_homogeneous(w)
        basis = row_basis(rows)
        assert rational_rank(rows + basis) == len(basis) == rational_rank(rows)
        assert len(basis) == _rank(rows) == _rank(rows + basis)
