"""Buchberger engine with normal forms and dimension counts.

All computations run over global polynomial rings.  Local (germ level)
conclusions are only drawn for weighted-homogeneous ideals, where the cone
structure makes the global answers equal to the local ones; the
`quasi_homogeneous_weights` gate decides that admissibility.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import combinations, product
from math import gcd, lcm

from . import _linalg
from ._linalg import div
from .polyalg import Polynomial, _grevlex_key, _mono_divides, _mono_mul, _mono_sub

DEFAULT_SPAIR_BUDGET = 100_000


class ResourceLimitExceeded(RuntimeError):
    """A computation exceeded its configured resource budget."""


class SPairBudgetExceeded(ResourceLimitExceeded):
    """Buchberger processed more S-pairs than the configured budget."""


@dataclass(frozen=True)
class MonomialOrder:
    """Total monomial order on exponent tuples: "grevlex" or "lex"."""

    kind: str

    def __post_init__(self):
        if self.kind not in ("grevlex", "lex"):
            raise ValueError(f"unknown order kind {self.kind!r}")

    def key(self, exps):
        """Sort key: larger key means larger monomial."""
        return exps if self.kind == "lex" else _grevlex_key(exps)


GREVLEX = MonomialOrder("grevlex")
LEX = MonomialOrder("lex")


@dataclass(frozen=True)
class Ideal:
    """Finitely generated ideal; the zero ideal has an empty generator tuple."""

    variables: tuple
    generators: tuple

    def __init__(self, variables, generators):
        variables = tuple(variables)
        gens = []
        for g in generators:
            if not isinstance(g, Polynomial):
                raise ValueError("generators must be polynomials")
            if g.variables != variables:
                raise ValueError("generators must share the ideal's variable list")
            if g:
                gens.append(g)
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "generators", tuple(gens))


@dataclass(frozen=True)
class GroebnerBasis:
    """Reduced monic basis, listed in descending leading-monomial order."""

    variables: tuple
    order: MonomialOrder
    polynomials: tuple

    def leading_monomials(self):
        return tuple(p.leading_monomial(self.order.key) for p in self.polynomials)


def leading_term(f, order=GREVLEX):
    """(monomial, coefficient) of the largest term of a nonzero polynomial."""
    lm = f.leading_monomial(order.key)
    return lm, f.terms[lm]


def _monic_term(f, order):
    """(leading monomial, 1, f divided by its leading coefficient)."""
    lm, lc = leading_term(f, order)
    if lc == 1:
        return lm, 1, f
    monic = {m: div(c, lc) for m, c in f.terms.items()}
    return lm, 1, Polynomial._raw(f.variables, monic)


def s_polynomial(f, g, order=GREVLEX):
    """S-polynomial: the leading terms cancel against their least common multiple."""
    fm, fc = leading_term(f, order)
    gm, gc = leading_term(g, order)
    l = tuple(max(a, b) for a, b in zip(fm, gm))
    uf = Polynomial._raw(f.variables, {_mono_sub(l, fm): div(1, fc)})
    ug = Polynomial._raw(g.variables, {_mono_sub(l, gm): div(1, gc)})
    return uf * f - ug * g


def _basis_info(polys, order):
    """(leading monomial, leading coefficient, polynomial) for each polynomial."""
    return [leading_term(p, order) + (p,) for p in polys]


def _reduce(f, info, order):
    key = order.key
    work = dict(f.terms)
    keys = {m: key(m) for m in work}
    remainder = {}
    while work:
        lm = max(work, key=keys.__getitem__)
        lc = work[lm]
        for glm, glc, g in info:
            if _mono_divides(glm, lm):
                qm = _mono_sub(lm, glm)
                # basis elements are monic, so glc is usually 1
                qc = lc if glc == 1 else div(lc, glc)
                for m, c in g.terms.items():
                    mm = _mono_mul(qm, m)
                    s = work.get(mm, 0) - qc * c
                    if s:
                        work[mm] = s
                        if mm not in keys:
                            keys[mm] = key(mm)
                    else:
                        work.pop(mm, None)
                break
        else:
            remainder[lm] = lc
            del work[lm]
    return Polynomial._raw(f.variables, remainder)


def normal_form(f, basis):
    """Remainder of complete division of f by a GroebnerBasis.

    Divisors are tried in basis enumeration order, and every term of the
    work polynomial is processed, so the result is deterministic and
    idempotent.  It is zero exactly for ideal members.
    """
    return _reduce(f, _basis_info(basis.polynomials, basis.order), basis.order)


def _autoreduce(info, order):
    """Reduced basis from (lm, lc, p) triples of a monic Groebner basis.

    The minimal filter keeps the elements whose leading monomial no smaller
    one divides.  No other element's leading monomial divides theirs, so tail
    reduction keeps each leading term, and one pass leaves every element
    reduced.  Returned in descending leading-monomial order.
    """
    key = order.key
    minimal = []
    for t in sorted(info, key=lambda t: key(t[0])):
        if not any(_mono_divides(q[0], t[0]) for q in minimal):
            minimal.append(t)
    for i, (lm, lc, p) in enumerate(minimal):
        minimal[i] = (lm, lc, _reduce(p, minimal[:i] + minimal[i + 1:], order))
    return [p for _, _, p in reversed(minimal)]


def _push_pairs(pairs, lms, j):
    """Queue the pairs (i, j), i < j, keyed by the total degree of their lcm."""
    lm = lms[j]
    for i in range(j):
        heappush(pairs, (sum(max(a, b) for a, b in zip(lms[i], lm)), i, j))


def buchberger(ideal, order=GREVLEX, spair_budget=DEFAULT_SPAIR_BUDGET):
    """Reduced Groebner basis by Buchberger's algorithm.

    Pair selection is the normal strategy, lowest lcm total degree first with
    ties broken by pair enumeration order: pending pairs sit in a heap keyed
    by (lcm total degree, i, j), and each pair is pushed once, when its
    second element joins the basis.  Pairs with coprime leading monomials are
    skipped.  Raises SPairBudgetExceeded once more than `spair_budget` pairs
    have been taken up.
    """
    info = [_monic_term(g, order) for g in ideal.generators]
    basis = [t[2] for t in info]
    lms = [t[0] for t in info]
    pairs = []
    for j in range(len(basis)):
        _push_pairs(pairs, lms, j)
    processed = 0
    while pairs:
        _, i, j = heappop(pairs)
        processed += 1
        if processed > spair_budget:
            raise SPairBudgetExceeded(
                f"S-pair budget of {spair_budget} exceeded")
        if all(min(a, b) == 0 for a, b in zip(lms[i], lms[j])):
            continue
        r = _reduce(s_polynomial(basis[i], basis[j], order), info, order)
        if r:
            lm, lc, r = _monic_term(r, order)
            info.append((lm, lc, r))
            basis.append(r)
            lms.append(lm)
            _push_pairs(pairs, lms, len(basis) - 1)
    return GroebnerBasis(ideal.variables, order, tuple(_autoreduce(info, order)))


def is_groebner_basis(gb):
    """Check that every S-polynomial of the basis reduces to zero."""
    polys = gb.polynomials
    for j in range(len(polys)):
        for i in range(j):
            if normal_form(s_polynomial(polys[i], polys[j], gb.order), gb):
                return False
    return True


def is_reduced(gb):
    """Monic, and no leading monomial divides any monomial of another element."""
    key = gb.order.key
    lms = gb.leading_monomials()
    for i, p in enumerate(gb.polynomials):
        if p.terms[p.leading_monomial(key)] != 1:
            return False
        for j, lm in enumerate(lms):
            if i == j:
                continue
            if any(_mono_divides(lm, m) for m in p.terms):
                return False
    return True


def ideal_dimension(gb):
    """Krull dimension of the affine zero set; -1 when 1 lies in the ideal.

    Computed as the largest cardinality of a variable subset touched by no
    leading monomial of the basis (a maximal independent set for the leading
    term ideal).  The zero ideal in k variables has dimension k.
    """
    nvars = len(gb.variables)
    if any(p.total_degree() == 0 for p in gb.polynomials):
        return -1
    supports = [frozenset(i for i, e in enumerate(lm) if e)
                for lm in gb.leading_monomials()]
    for size in range(nvars, 0, -1):
        for subset in combinations(range(nvars), size):
            sset = set(subset)
            if all(not sup <= sset for sup in supports):
                return size
    return 0


def quotient_dimension(gb):
    """Vector space dimension of the quotient ring, or None when infinite.

    Counts standard monomials under the staircase of leading monomials; the
    count is finite exactly when every variable has a pure power among them.
    """
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
    total = 1
    for b in bounds:
        total *= max(b, 1)
    if total > 5_000_000:
        raise ResourceLimitExceeded("staircase enumeration too large")
    count = 0
    for m in product(*(range(b) for b in bounds)):
        if not any(_mono_divides(lm, m) for lm in lms):
            count += 1
    return count


def quasi_homogeneous_weights(polys):
    """Non-negative integer weights making every polynomial weighted-homogeneous.

    The exponent differences of each polynomial are first reduced to a basis
    of their row space, which has the same kernel, so the simplex sees at most
    one row per variable.  An exact simplex then finds a nonzero non-negative
    weight vector in that kernel.  Returns a scaled integer tuple taken from a
    vertex of the feasible polytope (when the kernel has dimension two or
    more, which vertex depends on the tableau), or None when no such weights
    exist.
    """
    polys = [p for p in polys if p]
    if not polys:
        raise ValueError("at least one nonzero polynomial required")
    variables = polys[0].variables
    nvars = len(variables)
    if nvars == 0:
        return ()
    rows = []
    for p in polys:
        ms = sorted(p.terms, key=_grevlex_key)
        base = ms[0]
        rows.extend(_mono_sub(m, base) for m in ms[1:])
    w = _linalg.nonnegative_kernel_vector(_linalg.row_basis(rows), nvars)
    if w is None:
        return None
    scale = lcm(*(x.denominator for x in w)) if w else 1
    ints = [int(x * scale) for x in w]
    g = 0
    for x in ints:
        g = gcd(g, x)
    if g > 1:
        ints = [x // g for x in ints]
    return tuple(ints)
