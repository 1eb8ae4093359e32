import contextlib
import inspect
import itertools
import math
import operator
import random
import sys
from fractions import Fraction
from importlib.resources import files

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import fixture_path
from detsing import grobner
from detsing.cli import load_input
from detsing.detvar import (chart_ideal, lower_locus_generators,
                            lower_stratum_points, minors_ideal)
from detsing.grobner import (
    GroebnerBasis,
    Ideal,
    SPairBudgetExceeded,
    buchberger,
    eliminant,
    ideal_dimension,
    normal_form,
    quasi_homogeneous_weights,
    quotient_dimension,
    s_polynomial,
)
from detsing._linalg import nonnegative_kernel_vector, row_basis
from detsing.polyalg import (Polynomial, PolyMatrix, _grevlex_key, minors,
                             parse_polynomial, rank_at_point)

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


def is_groebner_basis(gb):
    """Buchberger's criterion: every S-polynomial reduces to zero."""
    polys = gb.polynomials
    return not any(normal_form(s_polynomial(f, g), gb)
                   for f, g in itertools.combinations(polys, 2))


def is_reduced(gb):
    """Monic, and no leading monomial divides any monomial of another element."""
    lms = gb.leading_monomials()
    for i, p in enumerate(gb.polynomials):
        if p.terms[lms[i]] != 1:
            return False
        for j, lm in enumerate(lms):
            if i == j:
                continue
            if any(all(map(operator.le, lm, m)) for m in p.terms):
                return False
    return True


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
                factor = Fraction(rows[i][col]) / lead
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
            g = Polynomial(XY)
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
# with min on every step, the chain criterion checked against the pairs
# already removed from that set, division on exponent tuples that recomputes
# every order key, and autoreduction repeated until nothing changes.
# `buchberger` must form the same S-polynomials in the same order and return
# the same basis.  Under `lex_key` the reference builds the lex basis whose
# univariate element TestEliminant compares with `eliminant`.

def lex_key(exps):
    """Lex sort key: larger key means larger monomial."""
    return exps


def _mono_divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _mono_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _scan_reduce(f, info, key):
    """Division with the key recomputed for every term at every step."""
    work = dict(f.terms)
    remainder = {}
    while work:
        lm = max(work, key=key)
        lc = work[lm]
        for glm, glc, g in info:
            if _mono_divides(glm, lm):
                qm = _mono_sub(lm, glm)
                qc = Fraction(lc) / glc
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


def _scan_lm(f, key):
    return max(f.terms, key=key)


def _scan_lead(f, key):
    lm = _scan_lm(f, key)
    return lm, f.terms[lm]


def _scan_info(polys, key):
    return [_scan_lead(p, key) + (p,) for p in polys]


def _scan_monic(f, key):
    return f * (Fraction(1) / _scan_lead(f, key)[1])


def _scan_s_polynomial(f, g, key):
    """(l / lm_f) * f / lc_f - (l / lm_g) * g / lc_g, by Polynomial arithmetic."""
    (fm, fc), (gm, gc) = _scan_lead(f, key), _scan_lead(g, key)
    l = tuple(map(max, fm, gm))
    return (Polynomial(f.variables, {_mono_sub(l, fm): Fraction(1) / fc}) * f
            - Polynomial(g.variables, {_mono_sub(l, gm): Fraction(1) / gc}) * g)


def _scan_autoreduce(polys, key):
    """Minimal filter, then tail reduction repeated until nothing changes."""
    polys = sorted(polys, key=lambda p: key(_scan_lm(p, key)))
    minimal = []
    for p in polys:
        lm = _scan_lm(p, key)
        if not any(_mono_divides(_scan_lm(q, key), lm) for q in minimal):
            minimal.append(p)
    changed = True
    while changed:
        changed = False
        for i, p in enumerate(minimal):
            rest = minimal[:i] + minimal[i + 1:]
            r = _scan_monic(_scan_reduce(p, _scan_info(rest, key), key), key)
            if r != p:
                minimal[i] = r
                changed = True
    return sorted(minimal, key=lambda p: key(_scan_lm(p, key)), reverse=True)


def scan_buchberger(ideal, spair_budget, key=_grevlex_key):
    """Reference Buchberger: re-ranks every pending pair on every step.

    Returns the reduced basis under `key` and the number of pairs taken up,
    or raises SPairBudgetExceeded once more than `spair_budget` pairs have
    been taken.
    """
    basis = [_scan_monic(g, key) for g in ideal.generators]
    info = _scan_info(basis, key)
    lms = [t[0] for t in info]

    def pair_rank(ij):
        i, j = ij
        return (sum(max(a, b) for a, b in zip(lms[i], lms[j])), i, j)

    def taken(i, k):
        return frozenset((i, k)) in removed

    pairs = {(i, j) for j in range(len(basis)) for i in range(j)}
    removed = set()
    processed = 0
    while pairs:
        pick = min(pairs, key=pair_rank)
        pairs.remove(pick)
        removed.add(frozenset(pick))
        processed += 1
        if processed > spair_budget:
            raise SPairBudgetExceeded(f"S-pair budget of {spair_budget} exceeded")
        i, j = pick
        if all(min(a, b) == 0 for a, b in zip(lms[i], lms[j])):
            continue
        # chain criterion: a third leading monomial divides the lcm and both
        # of its pairs with i and j are already out of the pending set
        lcm_ij = tuple(max(a, b) for a, b in zip(lms[i], lms[j]))
        if any(_mono_divides(lms[k], lcm_ij) and taken(i, k) and taken(j, k)
               for k in range(len(basis)) if k not in pick):
            continue
        r = _scan_reduce(_scan_s_polynomial(basis[i], basis[j], key), info, key)
        if r:
            r = _scan_monic(r, key)
            basis.append(r)
            lm = _scan_lm(r, key)
            info.append((lm, r.terms[lm], r))
            lms.append(lm)
            new = len(basis) - 1
            pairs.update((k, new) for k in range(new))
    return tuple(_scan_autoreduce(basis, key)), processed


@st.composite
def small_ideals(draw):
    nvars = draw(st.integers(min_value=2, max_value=4))
    variables = tuple(f"x{i}" for i in range(nvars))
    exponents = st.tuples(*[st.integers(min_value=0, max_value=2)] * nvars)
    coefficients = st.integers(min_value=-3, max_value=3).filter(bool)
    terms = st.dictionaries(exponents, coefficients, min_size=1, max_size=3)
    gens = [Polynomial(variables, draw(terms))
            for _ in range(draw(st.integers(min_value=2, max_value=4)))]
    return Ideal(variables, gens)


# reference runs that take more pairs than this are compared at the cap
ORACLE_PAIR_CAP = 400


def recording_s_pairs(run, *args):
    """Result of run(*args) and the term maps of the (f, g) of every
    S-polynomial it formed.

    Buchberger forms them with the packed kernel `_s_pair`, whose monic
    elements are decoded with the packing built last; the reference forms
    them with `_scan_s_polynomial`.
    """
    calls, packings = [], []

    def packing(nvars, width):
        packings.append(Packing(nvars, width))
        return packings[-1]

    def kernel(f, g, lcm):
        pk = packings[-1]
        calls.append(tuple({pk.monomial(m): c for m, c in [(key, 1), *tail]}
                           for _, key, tail in (f, g)))
        return s_pair(f, g, lcm)

    def scan(f, g, key):
        calls.append((f.terms, g.terms))
        return scan_s_polynomial(f, g, key)

    Packing, s_pair, scan_s_polynomial = (grobner._Packing, grobner._s_pair,
                                          _scan_s_polynomial)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(grobner, "_Packing", packing)
        patch.setattr(grobner, "_s_pair", kernel)
        patch.setattr(sys.modules[__name__], "_scan_s_polynomial", scan)
        return run(*args), calls


@contextlib.contextmanager
def recording_widths():
    """The field widths of the packings built inside the block, in order."""
    widths = []

    def recording(nvars, width):
        widths.append(width)
        return packing(nvars, width)

    packing = grobner._Packing
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(grobner, "_Packing", recording)
        yield widths


@contextlib.contextmanager
def checking_packed_degrees():
    """The `limit` of each `_Packing.pack` call inside the block, in order.

    `pack` does not check its terms: a monomial of degree `limit` or more
    would spill into the next field unnoticed.  Here such a call fails at
    once.
    """
    limits = []

    def checked(self, terms):
        top = max(map(sum, terms), default=0)
        assert top < self.limit, f"degree {top} packed under the limit {self.limit}"
        limits.append(self.limit)
        return pack(self, terms)

    pack = grobner._Packing.pack
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(grobner._Packing, "pack", checked)
        yield limits


# the first fields hold twice the largest generator degree, 3, under a
# limit of 8; a pair of this basis reaches degree 8, so Buchberger widens
# them and repacks its seven elements under a limit of 32
WIDENING = ("x^3 + y*z^2", "x*y^2 + x*z^2", "y^3 - z^3")


def rational_polynomials(variables):
    """Nonzero polynomials with exponents up to 2 and coefficients +-1 or +-3
    over 1 or 2."""
    exponents = st.tuples(*[st.integers(min_value=0, max_value=2)] * len(variables))
    coefficients = st.builds(Fraction, st.sampled_from((-3, -1, 1, 3)),
                             st.sampled_from((1, 2)))
    return st.dictionaries(exponents, coefficients, min_size=1, max_size=4).map(
        lambda terms: Polynomial(variables, terms))


class TestSPolynomial:
    def test_integral_coefficients_are_ints(self):
        # the halves of x*y^2*z cancel to 1, which stays an int
        f = Polynomial(XYZ, {(1, 2, 1): Fraction(3, 2), (0, 2, 1): Fraction(1, 2),
                             (0, 0, 2): -3})
        g = Polynomial(XYZ, {(2, 0, 1): Fraction(3, 2), (1, 1, 1): 3, (1, 0, 1): -1})
        s = s_polynomial(f, g)
        assert s == parse_polynomial("x*y^2*z - 2*x*y^3*z - 2*x*z^2", XYZ)
        assert type(s.terms[(1, 2, 1)]) is int

    @given(rational_polynomials(XYZ), rational_polynomials(XYZ))
    def test_matches_polynomial_arithmetic(self, f, g):
        s = s_polynomial(f, g)
        assert s == _scan_s_polynomial(f, g, _grevlex_key)
        assert all(type(c) is int or c.denominator != 1 for c in s.terms.values())


class TestBuchbergerOracle:
    @given(small_ideals(), st.integers(min_value=0, max_value=40))
    def test_matches_the_rescanning_reference(self, ideal_, budget):
        try:
            (expected, pairs), expected_calls = recording_s_pairs(
                scan_buchberger, ideal_, ORACLE_PAIR_CAP)
        except SPairBudgetExceeded:
            with pytest.raises(SPairBudgetExceeded):
                buchberger(ideal_, spair_budget=ORACLE_PAIR_CAP)
            return
        basis, calls = recording_s_pairs(
            lambda: buchberger(ideal_, spair_budget=pairs))
        assert basis.polynomials == expected
        assert calls == expected_calls
        if pairs:
            with pytest.raises(SPairBudgetExceeded):
                buchberger(ideal_, spair_budget=pairs - 1)
        if budget < pairs:
            with pytest.raises(SPairBudgetExceeded):
                scan_buchberger(ideal_, budget)
            with pytest.raises(SPairBudgetExceeded):
                buchberger(ideal_, spair_budget=budget)
        else:
            assert buchberger(ideal_, spair_budget=budget).polynomials == expected
            assert scan_buchberger(ideal_, budget) == (expected, pairs)


def generic_minors(n, p, t):
    """Ideal of the t x t minors of the generic n x p matrix."""
    variables = tuple(f"x{i}" for i in range(n * p))
    matrix = PolyMatrix([[Polynomial.variable(variables, variables[i * p + j])
                          for j in range(p)] for i in range(n)])
    return Ideal(variables, minors(matrix, t))


class TestBuchbergerWork:
    # S-polynomials formed by grevlex buchberger; with the coprime skip alone
    # they number 83, 56, 17 and 5
    @pytest.mark.parametrize("n,p,t,formed", [
        (4, 4, 3, 32), (3, 4, 2, 52), (3, 3, 2, 16), (3, 4, 3, 3)])
    def test_s_polynomials_formed_on_generic_minors(self, n, p, t, formed):
        ideal_ = generic_minors(n, p, t)
        basis, calls = recording_s_pairs(buchberger, ideal_)
        assert len(calls) == formed
        (expected, _), expected_calls = recording_s_pairs(
            scan_buchberger, ideal_, ORACLE_PAIR_CAP)
        assert basis.polynomials == expected
        assert calls == expected_calls

    # the first fields hold twice the largest generator degree; these bases
    # need more, so the call widens them in place and goes on with its pairs.
    # The second case keeps the first one's supports, with coefficients drawn
    # by random.Random(1) from +-1 and +-3 over 1 or 2, and its basis holds
    # Fractions
    @pytest.mark.parametrize("gens", [
        polys(WIDENING, XYZ),
        [Polynomial(XYZ, {(3, 0, 0): 3, (0, 1, 2): 3}),
         Polynomial(XYZ, {(1, 2, 0): Fraction(-1, 2), (1, 0, 2): 3}),
         Polynomial(XYZ, {(0, 3, 0): 1, (0, 0, 3): Fraction(-1, 2)})],
    ], ids=["grevlex-s-polynomial", "fractions"])
    def test_field_overflow_widens_in_place(self, gens):
        ideal_ = Ideal(XYZ, gens)
        popped = []

        def counted_heappop(heap):
            popped.append(heap[0])
            return pop(heap)

        pop = grobner.heappop
        with recording_widths() as widths, pytest.MonkeyPatch.context() as patch:
            patch.setattr(grobner, "heappop", counted_heappop)
            basis, calls = recording_s_pairs(buchberger, ideal_)
        assert len(widths) >= 2
        assert widths == sorted(widths) and len(set(widths)) == len(widths)
        (expected, pairs), expected_calls = recording_s_pairs(
            scan_buchberger, ideal_, ORACLE_PAIR_CAP)
        assert basis.polynomials == expected
        # each S-polynomial is formed once, and each pair taken once, so the
        # budget counts the 21 pairs of the one call (a restart took 37)
        assert calls == expected_calls
        assert len(popped) == len(set(popped)) == pairs == 21
        assert buchberger(ideal_, spair_budget=21).polynomials == expected
        with pytest.raises(SPairBudgetExceeded):
            buchberger(ideal_, spair_budget=20)

    def test_integral_coefficients_are_ints(self):
        # halves that cancel to integers; the basis must hold those as ints
        half = Fraction(1, 2)
        gens = [Polynomial(XY, {(2, 1): 3 * half, (1, 2): -half, (1, 0): -1}),
                Polynomial(XY, {(1, 2): -3 * half, (1, 0): 3 * half})]
        basis = buchberger(Ideal(XY, gens))
        assert [str(p) for p in basis.polynomials] == ["x*y^2 - x", "x^2 - x*y"]
        for p in basis.polynomials:
            assert all(type(c) is int for c in p.terms.values()), p.terms

    @given(small_ideals())
    def test_no_integral_fractions_in_bases_or_remainders(self, ideal_):
        halved = Ideal(ideal_.variables, [g * Fraction(1, 2) for g in ideal_.generators])
        try:
            basis = buchberger(halved, spair_budget=60)
        except SPairBudgetExceeded:
            return
        ones = [1] * len(ideal_.variables)
        rems = [normal_form(g.shift(ones), basis) for g in halved.generators]
        for p in (*basis.polynomials, *rems):
            for c in p.terms.values():
                assert type(c) is int or c.denominator != 1, p.terms


class TestCertifiedDimension:
    """Buchberger stops once the partial leading monomials meet the floor."""

    def test_generic_minors_certify_before_any_pair(self):
        # the 2-minors of a generic 3 x 3 matrix: codimension 4 in 9
        # variables, and their own leading monomials show dimension 5
        ideal_ = generic_minors(3, 3, 2)
        with pytest.raises(SPairBudgetExceeded):
            buchberger(ideal_, spair_budget=35)
        assert grobner.certified_dimension(ideal_, 5, spair_budget=1) == (5, None)

    def test_a_join_certifies_and_the_budget_counts_its_pairs(self):
        # 2-minors of a 2 x 3 matrix of linear forms: the full basis takes 10
        # pairs, and the element the second pair adds brings the bound to 2
        matrix = PolyMatrix.from_strings(
            [["-x0", "x0 + 2*x1 + 2*x2", "x0"],
             ["0", "-x0 - 2*x3", "x0 - 2*x1 - x2 + x3"]], P4)
        ideal_ = Ideal(P4, minors(matrix, 2))
        assert ideal_dimension(buchberger(ideal_, spair_budget=10)) == 2
        with pytest.raises(SPairBudgetExceeded):
            buchberger(ideal_, spair_budget=9)
        assert grobner.certified_dimension(ideal_, 2, spair_budget=2) == (2, None)
        with pytest.raises(SPairBudgetExceeded):
            grobner.certified_dimension(ideal_, 2, spair_budget=1)

    def test_an_unreached_floor_completes_the_basis(self):
        ideal_ = generic_minors(2, 3, 2)
        full = buchberger(ideal_)
        assert ideal_dimension(full) == 4
        assert grobner.certified_dimension(ideal_, 3) == (4, full)


class TestNormalForm:
    def test_generators_reduce_to_zero(self):
        basis = buchberger(ideal(CATALECTICANT_MINORS, P4))
        for text in CATALECTICANT_MINORS:
            assert not normal_form(parse_polynomial(text, P4), basis).terms

    def test_pinned_reduction(self):
        basis = buchberger(ideal(CATALECTICANT_MINORS, P4))
        f = parse_polynomial("x1^3", P4)
        with recording_widths() as widths:
            assert normal_form(f, basis) == parse_polynomial("x0^2*x3", P4)
        # one packing, with fields for twice the largest degree, 3
        assert widths == [4]

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


def basis_of(texts, variables):
    return buchberger(ideal(texts, variables))


def scan_ideal_dimension(gb):
    """Reference dimension: every variable subset, from the largest down."""
    nvars = len(gb.variables)
    if any(p.total_degree() == 0 for p in gb.polynomials):
        return -1
    supports = [frozenset(i for i, e in enumerate(lm) if e)
                for lm in gb.leading_monomials()]
    for size in range(nvars, 0, -1):
        for subset in itertools.combinations(range(nvars), size):
            sset = set(subset)
            if all(not sup <= sset for sup in supports):
                return size
    return 0


def monomial_basis(nvars, monomials):
    """A basis whose elements are the given monomials, as `ideal_dimension` reads it."""
    variables = tuple(f"x{i}" for i in range(nvars))
    return GroebnerBasis(variables,
                         tuple(Polynomial(variables, {m: 1}) for m in monomials))


@st.composite
def leading_monomial_sets(draw):
    # duplicate and non-minimal supports included; the zero exponent vector
    # makes the unit ideal
    nvars = draw(st.integers(min_value=1, max_value=9))
    exponents = st.tuples(*[st.integers(min_value=0, max_value=2)] * nvars)
    return nvars, draw(st.lists(exponents, max_size=14))


FIXTURES = sorted(p.name for p in files("detsing").joinpath("fixtures").iterdir()
                  if p.name.endswith(".json"))


def pair_products(nvars, pairs):
    exps = []
    for i, j in pairs:
        e = [0] * nvars
        e[i] = e[j] = 1
        exps.append(tuple(e))
    return monomial_basis(nvars, exps)


class TestDimension:
    @settings(max_examples=400)
    @given(leading_monomial_sets())
    def test_matches_the_subset_scan(self, case):
        gb = monomial_basis(*case)
        assert ideal_dimension(gb) == scan_ideal_dimension(gb)

    @pytest.mark.parametrize("name", FIXTURES)
    def test_matches_the_subset_scan_on_fixture_rank_ideals(self, name):
        model = load_input(fixture_path(name)).model
        ideals = [minors_ideal(model, model.t),
                  Ideal(model.variables, lower_locus_generators(model.matrix, model.t))]
        for ideal_ in ideals:
            gb = buchberger(ideal_)
            assert ideal_dimension(gb) == scan_ideal_dimension(gb)

    @pytest.mark.parametrize("nvars,monomials,expected", [
        (3, [], 3),
        (3, [(0, 0, 0), (1, 0, 0)], -1),
        (0, [], 0),
        (0, [()], -1),
        (4, [(1, 0, 0, 0), (0, 2, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)], 0),
        (3, [(0, 1, 0), (1, 0, 0), (0, 0, 2), (1, 1, 0)], 0),
    ], ids=["zero-ideal", "unit-ideal", "no-variables", "no-variables-unit",
            "singletons", "singletons-with-multiples"])
    def test_edge_cases(self, nvars, monomials, expected):
        gb = monomial_basis(nvars, monomials)
        assert ideal_dimension(gb) == expected
        assert scan_ideal_dimension(gb) == expected

    def test_disjoint_pairs_in_forty_variables(self):
        # x_{2i} x_{2i+1}, i < 20: a subset scan walks C(40, k) for k >= 21
        gb = pair_products(40, [(2 * i, 2 * i + 1) for i in range(20)])
        assert ideal_dimension(gb) == 20

    def test_hitting_set_larger_than_the_recursion_limit(self):
        # pairs {x_2i, x_2i+1} tied together by {x_1, x_3, ..., x_2k-1, x_2k}:
        # one class whose smallest hitting set holds k variables.  A search
        # that tries the variables of a pair in index order descends k
        # levels before it finds x_2i+1; trying the most-used x_2i+1 first,
        # its first leaf is that set
        k = sys.getrecursionlimit() + 50
        nvars = 2 * k + 1
        monomials = [tuple(int(j in (2 * i, 2 * i + 1)) for j in range(nvars))
                     for i in range(k)]
        monomials.append(tuple(int(j % 2 or j == 2 * k) for j in range(nvars)))
        assert ideal_dimension(monomial_basis(nvars, monomials)) == k + 1

    def test_search_deeper_than_the_recursion_limit(self):
        # the path x_0 x_1, x_1 x_2, ..., x_399 x_400: the search takes one
        # variable of every other edge, 200 levels deep, under a recursion
        # limit 100 frames above the test's own depth
        gb = pair_products(401, [(i, i + 1) for i in range(400)])
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 100)
        try:
            dimension = ideal_dimension(gb)
        finally:
            sys.setrecursionlimit(limit)
        assert dimension == 201

    def test_search_a_thousand_levels_deep(self):
        # the path x_0 x_1, ..., x_2100 x_2101: the search takes one variable
        # of every other edge, 1050 levels deep.  A node builds its list of
        # open supports only when it is popped, and the first leaf meets the
        # first node's packing bound and ends the search
        gb = pair_products(2102, [(i, i + 1) for i in range(2101)])
        assert ideal_dimension(gb) == 1051

    def test_variable_disjoint_classes_are_searched_apart(self):
        # 20 disjoint pairs and a triangle: the triangle needs two variables
        # but packs one support, so one joint search would branch on every
        # pair
        pairs = [(2 * i, 2 * i + 1) for i in range(20)] + [(40, 41), (41, 42), (40, 42)]
        assert ideal_dimension(pair_products(43, pairs)) == 21

    def test_all_pairs_in_twelve_variables(self):
        # the smallest hitting set of every pair leaves out one variable
        gb = pair_products(12, itertools.combinations(range(12), 2))
        assert ideal_dimension(gb) == 1

    def test_catalecticant_dimension(self):
        assert ideal_dimension(basis_of(CATALECTICANT_MINORS, P4)) == 2

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


def scan_quotient_dimension(gb):
    """Reference count: every monomial of the box under the pure powers."""
    nvars = len(gb.variables)
    lms = gb.leading_monomials()
    if any(sum(lm) == 0 for lm in lms):
        return 0
    bounds = []
    for i in range(nvars):
        pure = [lm[i] for lm in lms if all(e == 0 for j, e in enumerate(lm) if j != i)]
        if not pure:
            return None
        bounds.append(min(pure))
    return sum(1 for m in itertools.product(*(range(b) for b in bounds))
               if not any(all(map(operator.le, lm, m)) for lm in lms))


@st.composite
def staircases(draw):
    # duplicate and non-minimal monomials included; a pure power for a
    # random subset of the variables, so finite and infinite counts both occur
    nvars = draw(st.integers(min_value=0, max_value=6))
    exponents = st.tuples(*[st.integers(min_value=0, max_value=3)] * nvars)
    monomials = draw(st.lists(exponents, max_size=10))
    for i in range(nvars):
        power = draw(st.integers(min_value=0, max_value=4))
        if power:
            monomials.append(tuple(power if j == i else 0 for j in range(nvars)))
    return nvars, draw(st.permutations(monomials))


class TestQuotientDimension:
    @pytest.mark.parametrize("texts,variables,expected", QUOTIENT_TABLE)
    def test_pinned_values(self, texts, variables, expected):
        assert quotient_dimension(basis_of(texts, variables)) == expected

    @settings(max_examples=400)
    @given(staircases())
    def test_matches_the_box_scan(self, case):
        gb = monomial_basis(*case)
        assert quotient_dimension(gb) == scan_quotient_dimension(gb)

    @pytest.mark.parametrize("nvars,monomials,expected", [
        (0, [], 1),
        (0, [()], 0),
        (2, [(0, 0), (3, 0)], 0),
        (3, [(2, 0, 0), (0, 0, 1), (1, 1, 0)], None),
        (2, [(0, 0), (1, 1)], 0),
        (2, [(1, 0), (1, 0), (0, 3), (2, 5)], 3),
    ], ids=["no-variables", "no-variables-unit", "unit-ideal",
            "missing-pure-power", "unit-without-pure-powers", "duplicates"])
    def test_edge_cases(self, nvars, monomials, expected):
        gb = monomial_basis(nvars, monomials)
        assert quotient_dimension(gb) == expected
        assert scan_quotient_dimension(gb) == expected

    def test_tenth_power_of_the_maximal_ideal(self):
        # the monomials of degree below 10 in 4 variables: C(13, 4)
        gb = monomial_basis(4, [tuple(c.count(i) for i in range(4)) for c in
                                itertools.combinations_with_replacement(range(4), 10)])
        assert quotient_dimension(gb) == 715

    def test_large_box_of_two_pure_powers(self):
        # a box scan walks all 4 800 000 cells
        assert quotient_dimension(monomial_basis(2, [(2000, 0), (0, 2400)])) == 4_800_000

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


@st.composite
def point_systems(draw):
    """Systems in n = 2..4 variables with int and Fraction coefficients.

    The i-th of the first n generators has degree d_i in {1, 2} and a term
    in x_i^d_i, and the d_i multiply to at most 8; an optional last one is a
    quadric.  About half are moved to vanish at a planted rational point.
    """
    nvars = draw(st.integers(min_value=2, max_value=4))
    variables = tuple(f"x{i}" for i in range(nvars))
    exponents = st.tuples(*[st.integers(min_value=0, max_value=2)] * nvars).filter(
        lambda m: sum(m) <= 2)
    coefficients = st.builds(Fraction, st.integers(min_value=-3, max_value=3).filter(bool),
                             st.sampled_from((1, 1, 2, 3)))
    terms = st.dictionaries(exponents, coefficients, max_size=3)
    degrees = draw(st.lists(st.sampled_from((1, 2)), min_size=nvars, max_size=nvars)
                   .filter(lambda ds: math.prod(ds) <= 8))
    gens = []
    for i, d in enumerate(degrees):
        g = {m: c for m, c in draw(terms).items() if sum(m) <= d}
        g[tuple(d * (j == i) for j in range(nvars))] = draw(coefficients)
        gens.append(Polynomial(variables, g))
    if draw(st.booleans()):
        gens.append(Polynomial(variables, draw(terms)))
    if draw(st.booleans()):
        coordinate = st.builds(Fraction, st.integers(min_value=-2, max_value=2),
                               st.sampled_from((1, 2)))
        point = draw(st.tuples(*[coordinate] * nvars))
        gens = [g - Polynomial.constant(variables, g.evaluate(point)) for g in gens]
    return Ideal(variables, gens)


class TestEliminant:
    def test_circle_meets_the_diagonal(self):
        # x^2 + y^2 = 1 and x = y leave 2y^2 = 1
        gb = basis_of(("x^2 + y^2 - 1", "x - y"), XY)
        assert eliminant(gb) == [Fraction(-1, 2), 0, 1]

    @given(point_systems())
    def test_matches_the_univariate_element_of_the_lex_basis(self, ideal_):
        try:
            gb = buchberger(ideal_, spair_budget=ORACLE_PAIR_CAP)
        except SPairBudgetExceeded:
            return
        dimension = quotient_dimension(gb)
        if dimension is None:
            with pytest.raises(ValueError):
                eliminant(gb)
            return
        try:
            lex, _ = scan_buchberger(ideal_, ORACLE_PAIR_CAP, lex_key)
        except SPairBudgetExceeded:
            return
        last = len(ideal_.variables) - 1
        (univariate,) = [p for p in lex if not any(any(m[:last]) for m in p.terms)]
        expected = [univariate.terms.get((0,) * last + (e,), 0)
                    for e in range(univariate.total_degree() + 1)]
        with recording_widths() as widths:
            coeffs = eliminant(gb)
        # a basis element in the last variable alone is read off with no
        # packing; otherwise the fields are sized once, from the basis
        # degrees
        read_off = any(not any(any(m[:last]) for m in p.terms)
                       for p in gb.polynomials)
        assert len(widths) == (0 if read_off else 1)
        assert coeffs == expected
        assert len(coeffs) <= dimension + 1
        x = Polynomial.variable(ideal_.variables, ideal_.variables[-1])
        assert not normal_form(sum((c * x ** j for j, c in enumerate(coeffs)),
                                   Polynomial(ideal_.variables)), gb)
        assert all(type(c) is int or c.denominator != 1 for c in coeffs)

    @given(point_systems())
    def test_read_off_matches_the_krylov_steps(self, ideal_):
        # the element read off a reduced basis is the minimal polynomial
        # that the Krylov steps find; bases without such an element take
        # those steps in `eliminant` too
        try:
            gb = buchberger(ideal_, spair_budget=ORACLE_PAIR_CAP)
        except SPairBudgetExceeded:
            return
        if quotient_dimension(gb) is not None:
            assert eliminant(gb) == grobner._minimal_polynomial(gb)

    @pytest.mark.parametrize("texts,variables", [
        (("x^2 - 2*x",), ("x",)), (("x^2 - 1", "y^3 - y"), XY),
        (("x - 1", "y^2 + y - 2", "z - y"), XYZ),
    ], ids=["univariate", "grid", "triangular"])
    def test_reads_the_univariate_element_without_krylov_steps(self, texts,
                                                                variables):
        gb = basis_of(texts, variables)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(grobner, "_minimal_polynomial", None)
            coeffs = eliminant(gb)
        assert coeffs == grobner._minimal_polynomial(gb)

    def test_sizes_its_fields_once_from_the_basis(self):
        # z^7 = xy, x^7 = y^7 = 1: NF(z^k) = (xy)^j z^r for k = 7j + r, and
        # z * NF(z^45) = (xy)^6 z^4 has degree 16, past twice the basis
        # degree; the one packing holds 3 * 7 = 21, so the run never widens
        gb = basis_of(("x^7 - 1", "y^7 - 1", "z^7 - x*y"), XYZ)
        with recording_widths() as widths:
            coeffs = eliminant(gb)
        assert widths == [6]
        assert coeffs == [-1] + [0] * 48 + [1]

    def test_unit_ideal(self):
        assert eliminant(basis_of(("x", "1 - x"), XY)) == [1]

    @pytest.mark.parametrize("texts,variables", [
        (("x*y - 1",), XY), ((), XY), ((), ()),
    ], ids=["hypersurface", "zero-ideal", "no-variables"])
    def test_needs_a_finite_quotient(self, texts, variables):
        with pytest.raises(ValueError):
            eliminant(basis_of(texts, variables))


class TestPackedDegrees:
    """Each caller sizes its packing from the top degree of the terms it
    packs, and a widening repacks only elements of the narrower fields."""

    @given(small_ideals())
    @example(ideal(WIDENING, XYZ))
    def test_bases_normal_forms_and_s_polynomials(self, ideal_):
        gens = ideal_.generators
        ones = [1] * len(ideal_.variables)
        with checking_packed_degrees():
            for f, g in itertools.combinations(gens, 2):
                s_polynomial(f, g)
            try:
                basis = buchberger(ideal_, spair_budget=60)
            except SPairBudgetExceeded:
                return
            for g in gens:
                normal_form(g * g.shift(ones), basis)

    @given(point_systems())
    def test_eliminants(self, ideal_):
        with checking_packed_degrees():
            try:
                gb = buchberger(ideal_, spair_budget=ORACLE_PAIR_CAP)
            except SPairBudgetExceeded:
                return
            if quotient_dimension(gb) is not None:
                eliminant(gb)
                grobner._minimal_polynomial(gb)

    def test_a_widening_packs_under_the_wider_limit(self):
        with checking_packed_degrees() as limits:
            buchberger(ideal(WIDENING, XYZ))
        assert limits == [8] * 3 + [32] * 7


class TestOrders:
    def test_grevlex_vs_lex_leading_monomial(self):
        f = parse_polynomial("x^2 + y*z", XYZ)
        assert f.leading_monomial() == _scan_lm(f, _grevlex_key) == (2, 0, 0)
        g = parse_polynomial("x*z^2 + y^3", XYZ)
        # grevlex prefers the monomial with fewer trailing exponents
        assert g.leading_monomial() == (0, 3, 0)
        assert _scan_lm(g, lex_key) == (1, 0, 2)


def exponent_differences(polys):
    """Each polynomial's exponents minus those of its lex-least monomial."""
    rows = []
    for p in polys:
        ms = sorted(p.terms)
        rows.extend([Fraction(a - b) for a, b in zip(m, ms[0])] for m in ms[1:])
    return rows


def is_weighted_homogeneous(f, weights):
    """Every monomial of f has the same weighted degree."""
    return len({sum(map(operator.mul, weights, m)) for m in f.terms}) <= 1


def always_simplex_weights(polys):
    """Reference weight gate: the simplex decides even at full row rank."""
    polys = [p for p in polys if p]
    w = nonnegative_kernel_vector(row_basis(exponent_differences(polys)),
                                  len(polys[0].variables))
    if w is None:
        return None
    scale = math.lcm(*(Fraction(x).denominator for x in w))
    ints = [int(x * scale) for x in w]
    g = math.gcd(*ints)
    return tuple(x // g for x in ints)


@contextlib.contextmanager
def checking_linalg_rows():
    """The names of the `_linalg` solvers called inside the block, in order.

    `row_basis` and `nonnegative_kernel_vector` copy their rows as they
    come.  Here a call whose rows hold anything but ints and Fractions, or
    differ in length (or, for the simplex, are not n long), fails at once.
    """
    calls = []

    def check(rows, n):
        for row in rows:
            assert len(row) == n, f"a row of {len(row)} entries where {n} are due"
            assert all(type(x) in (int, Fraction) for x in row), row

    def checked_basis(rows):
        if rows:
            check(rows, len(rows[0]))
        calls.append("row_basis")
        return basis(rows)

    def checked_kernel(rows, n):
        check(rows, n)
        calls.append("nonnegative_kernel_vector")
        return kernel(rows, n)

    basis, kernel = row_basis, nonnegative_kernel_vector
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(grobner._linalg, "row_basis", checked_basis)
        patch.setattr(grobner._linalg, "nonnegative_kernel_vector", checked_kernel)
        yield calls


@st.composite
def weight_systems(draw):
    nvars = draw(st.integers(min_value=2, max_value=4))
    variables = tuple(f"x{i}" for i in range(nvars))
    exponents = st.tuples(*[st.integers(min_value=0, max_value=3)] * nvars)
    terms = st.dictionaries(exponents, st.integers(min_value=1, max_value=3),
                            min_size=1, max_size=4)
    return [Polynomial(variables, draw(terms))
            for _ in range(draw(st.integers(min_value=1, max_value=3)))]


@st.composite
def homogeneous_weight_systems(draw):
    """1-4 nonzero homogeneous integer polynomials in 2-5 variables, each of
    its own degree."""
    nvars = draw(st.integers(min_value=2, max_value=5))
    variables = tuple(f"x{i}" for i in range(nvars))
    gens = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        degree = draw(st.integers(min_value=0, max_value=4))
        # a composition of `degree` into nvars parts, as nvars - 1 cuts
        exponents = st.lists(st.integers(min_value=0, max_value=degree),
                             min_size=nvars - 1, max_size=nvars - 1).map(
            lambda cuts: tuple(b - a for a, b in
                               zip([0] + sorted(cuts), sorted(cuts) + [degree])))
        coefficients = st.integers(min_value=-5, max_value=5).filter(bool)
        gens.append(Polynomial(variables, draw(st.dictionaries(
            exponents, coefficients, min_size=1, max_size=5))))
    return gens


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
            assert is_weighted_homogeneous(g, w)

    def test_non_quasi_homogeneous(self):
        gens = polys(("x^2 + x^3 + y^7",), XY)
        assert quasi_homogeneous_weights(gens) is None

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            quasi_homogeneous_weights([])

    def test_no_variables_take_the_empty_weights(self):
        # a nonzero constant over no variables is homogeneous of degree 0
        # for the empty weight vector, and the simplex is not consulted
        assert quasi_homogeneous_weights([Polynomial((), {(): 5})]) == ()

    @given(weight_systems(), st.tuples(*[st.builds(
        Fraction, st.integers(min_value=-3, max_value=3),
        st.sampled_from((1, 2)))] * 4))
    @example([parse_polynomial("x0^2 + x1^2", ("x0", "x1"))], (1, Fraction(1, 2), 0, 0))
    def test_solvers_get_exact_rows_of_one_length(self, gens, coords):
        # the weight gate passes integer exponent differences to row_basis
        # and their row basis, n entries a row, to the simplex; rank_at_point
        # passes the values of a matrix at a point
        point = coords[:len(gens[0].variables)]
        matrix = PolyMatrix([gens, [g * g for g in gens]])
        with checking_linalg_rows() as calls:
            quasi_homogeneous_weights(gens)
            rank_at_point(matrix, point)
        full_rank = _rank(exponent_differences(gens)) == len(point)
        simplex = [] if full_rank else ["nonnegative_kernel_vector"]
        assert calls == ["row_basis", *simplex, "row_basis"]

    def test_kernel_vector_of_no_variables_is_none(self):
        # sum(w) = 1 reads 0 = 1, so phase one ends infeasible
        assert nonnegative_kernel_vector([], 0) is None

    @given(weight_systems())
    def test_full_rank_short_cut_matches_the_simplex(self, gens):
        # the row basis is the same for any base monomial, so the simplex
        # sees the same tableau and returns the same vertex
        expected = always_simplex_weights(gens)
        kernel_calls = []

        def counted(rows, n):
            kernel_calls.append(n)
            return nonnegative_kernel_vector(rows, n)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(grobner._linalg, "nonnegative_kernel_vector", counted)
            assert quasi_homogeneous_weights(gens) == expected
        full_rank = _rank(exponent_differences(gens)) == len(gens[0].variables)
        assert kernel_calls == ([] if full_rank else [len(gens[0].variables)])
        if full_rank:
            assert expected is None

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
                assert is_weighted_homogeneous(g, w)
        basis = row_basis(rows)
        assert row_basis(rows + basis) == basis
        assert len(basis) == _rank(rows) == _rank(rows + basis)

    @given(homogeneous_weight_systems())
    def test_homogeneous_systems_always_get_weights(self, gens):
        # (1, ..., 1) is a nonzero non-negative kernel vector, so the
        # simplex is feasible: the weight gate of `classify` passes a chart
        # of homogeneous generators without running it
        w = quasi_homogeneous_weights(gens)
        assert type(w) is tuple and min(w) >= 0 and any(w)
        for g in gens:
            assert is_weighted_homogeneous(g, w)


def vertex_systems(count=50, seed=19):
    """Seeded systems whose difference rows leave a kernel of dimension >= 2.

    There the weight vector is one vertex of a polytope with several, and
    which one the simplex returns depends on its pivot order.
    """
    rng = random.Random(seed)
    systems = []
    while len(systems) < count:
        nvars = rng.randint(3, 6)
        variables = tuple(f"x{i}" for i in range(nvars))
        gens = [Polynomial(variables, {
                    tuple(rng.randint(0, 3) for _ in variables): rng.randint(1, 3)
                    for _ in range(rng.randint(2, 3))})
                for _ in range(rng.randint(1, 2))]
        if nvars - _rank(exponent_differences(gens)) >= 2:
            systems.append(gens)
    return systems


# what quasi_homogeneous_weights returns on vertex_systems(), in order
VERTEX_WEIGHTS = [
    (0, 1, 0), None, (0, 0, 1, 0), (0, 0, 0, 0, 1, 0), (0, 1, 0, 0, 0),
    (2, 1, 2, 0), (0, 1, 6, 2, 0, 0), (0, 0, 4, 2, 0, 1), (1, 0, 0, 2, 0),
    (1, 0, 0, 0, 0), (0, 0, 1, 0, 0), (3, 1, 0, 0), (0, 1, 0, 0), None,
    (4, 2, 1, 0, 4, 0), (1, 1, 0, 1, 0), (0, 1, 0, 0, 0), (1, 0, 3),
    (1, 4, 6, 0, 4), (2, 0, 1, 0, 0), (1, 0, 0, 2), None, (3, 0, 2, 0, 0),
    (1, 1, 1, 0), (0, 2, 0, 1, 0), (6, 7, 2, 0, 0, 0), (0, 1, 0, 0, 0),
    (1, 1, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 1, 2, 7, 0, 0), None,
    (1, 0, 0, 0), (0, 1, 0, 0, 0), (2, 1, 0, 0, 0, 0), None, None,
    (0, 0, 2, 3, 0, 0), (0, 1, 1, 0, 0), (0, 1, 0), None, (1, 1, 0, 0, 0, 0),
    (0, 1, 1, 2), (2, 2, 3, 0), (1, 2, 3, 0, 0), (1, 0, 0, 0), (1, 0, 1, 0),
    (3, 1, 0, 0, 1), (2, 0, 1), (1, 2, 0), (4, 5, 0, 0, 3, 0),
]

# systems on which the leaving-row tie-break of the simplex, the least basic
# column among equal ratios, decides the vertex
P5 = ("x0", "x1", "x2", "x3", "x4")
TIE_BREAK_WEIGHTS = [
    (("2*x0^3*x1^3*x3^2*x4 + x0*x1*x2^3*x3^3*x4 + 2*x1*x2*x3^2*x4^2",),
     (1, 0, 0, 2, 3)),
    (("x0^2*x1^3*x2^3*x4^3 + 2*x0^3*x2^3*x3^2*x4^2",
      "3*x0^2*x1^2*x2^2*x3^2 + 2*x1^2*x2*x4^3"), (1, 0, 1, 0, 1)),
    (("3*x0*x1^2*x2*x3^2 + x2*x3*x4^2", "x0*x2^2 + 2*x1*x4"), (0, 0, 1, 4, 2)),
]

# the weights of the chart ideal at the one singular point of each bundled
# fixture that has one
FIXTURE_CHART_WEIGHTS = {
    "non_quasihomogeneous.json": None,
    "segre_cone.json": (1, 1, 1, 0, 0, 0),
    "twisted_cubic.json": (3, 2, 1, 0),
    "twisted_cubic_euler.json": (3, 2, 1, 0),
    "twisted_cubic_index.json": (3, 2, 1, 0),
    "twisted_cubic_wrong_chi.json": (3, 2, 1, 0),
}


class TestWeightVertex:
    """The simplex's vertex, pinned: its pivot rule and tie-break decide it."""

    def test_vertices_of_random_systems(self):
        assert [quasi_homogeneous_weights(g) for g in vertex_systems()] == VERTEX_WEIGHTS

    @pytest.mark.parametrize("texts,weights", TIE_BREAK_WEIGHTS)
    def test_leaving_row_tie_break(self, texts, weights):
        assert quasi_homogeneous_weights(polys(texts, P5)) == weights

    def test_fixture_chart_weights(self):
        found = {}
        for path in files("detsing").joinpath("fixtures").iterdir():
            model = load_input(str(path)).model
            points, _, _, _ = lower_stratum_points(model, grobner.DEFAULT_SPAIR_BUDGET)
            for pt in points:
                found[path.name] = quasi_homogeneous_weights(
                    chart_ideal(model, pt).generators)
        assert found == FIXTURE_CHART_WEIGHTS

    def test_term_order_does_not_change_the_weights(self):
        # each polynomial's first term is the base of its difference rows;
        # every base spans one row space, so each rotation of the terms,
        # which puts every term first once, returns the same vertex
        cases = list(zip(vertex_systems(), VERTEX_WEIGHTS))
        cases += [(polys(texts, P5), w) for texts, w in TIE_BREAK_WEIGHTS]
        for name, weights in FIXTURE_CHART_WEIGHTS.items():
            model = load_input(fixture_path(name)).model
            points, _, _, _ = lower_stratum_points(model, grobner.DEFAULT_SPAIR_BUDGET)
            cases.append((chart_ideal(model, points[0]).generators, weights))
        for gens, weights in cases:
            for k in range(max(len(g.terms) for g in gens)):
                rotated = []
                for g in gens:
                    items = list(g.terms.items())
                    shift = k % len(items)
                    rotated.append(Polynomial(g.variables,
                                              dict(items[shift:] + items[:shift])))
                assert quasi_homogeneous_weights(rotated) == weights
