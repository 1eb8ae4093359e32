"""Buchberger engine (grevlex) with normal forms, eliminants and dimension counts.

All computations run over global polynomial rings.  Local (germ level)
conclusions are only drawn for weighted-homogeneous ideals, where the cone
structure makes the global answers equal to the local ones; the
`quasi_homogeneous_weights` gate decides that admissibility.
"""

from heapq import heappop, heappush
from itertools import chain, compress, count
from operator import mul, sub

from . import _linalg
from ._linalg import div, exact
from .polyalg import Polynomial, _polynomial

DEFAULT_SPAIR_BUDGET = 100_000


class ResourceLimitExceeded(RuntimeError):
    """A computation exceeded its configured resource budget."""


class SPairBudgetExceeded(ResourceLimitExceeded):
    """Buchberger processed more S-pairs than the configured budget."""


class Ideal:
    """Finitely generated ideal; the zero ideal has an empty generator tuple."""

    __slots__ = ("variables", "generators")

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
        self.variables = variables
        self.generators = tuple(gens)

    @classmethod
    def _raw(cls, variables, generators):
        """An ideal of a tuple of nonzero polynomials already known to live
        over `variables`, with no checks."""
        ideal = object.__new__(cls)
        ideal.variables, ideal.generators = variables, generators
        return ideal


class GroebnerBasis:
    """Reduced monic grevlex basis, listed in descending leading-monomial order."""

    __slots__ = ("variables", "polynomials")

    def __init__(self, variables, polynomials):
        self.variables = variables
        self.polynomials = polynomials

    def __eq__(self, other):
        if not isinstance(other, GroebnerBasis):
            return NotImplemented
        return (self.variables == other.variables
                and self.polynomials == other.polynomials)

    def leading_monomials(self):
        return tuple(p.leading_monomial() for p in self.polynomials)


def s_polynomial(f, g):
    """S-polynomial: the leading terms cancel against their least common multiple.

    f*(l/lm_f)/lc_f - g*(l/lm_g)/lc_g, where l is the lcm of the two leading
    monomials, formed on packed terms by the kernel Buchberger runs
    (`_s_pair`), with integral coefficients as ints.  No term has a degree
    above l's, at most twice the larger degree of f and g.
    """
    pk = _Packing(len(f.variables), _width(2 * _top_degree((f, g))))
    a, b = (pk.divisor(pk.pack(p.terms)) for p in (f, g))
    lcm = sum(map(mul, map(max, pk.monomial(a[1]), pk.monomial(b[1])), pk.weights))
    return pk.unpack(f.variables, _s_pair(a, b, lcm).items())


def _s_pair(f, g, lcm):
    """Packed S-polynomial of two monic divisor triples whose leading
    monomials divide the key `lcm`.

    Each tail is shifted by lcm minus its leading key, one addition per
    term, and g's is subtracted from f's; the leading terms cancel, so
    neither is formed.
    """
    q = lcm - f[1]
    work = {m + q: c for m, c in f[2]}
    q = lcm - g[1]
    for m, c in g[2]:
        m += q
        s = work.get(m, 0) - c
        if s:
            work[m] = s
        else:
            del work[m]
    return work


class _Packing:
    """Exponent vectors packed into one int that is also the grevlex key.

    Each exponent has a `width`-bit field whose top bit is a guard, and the
    key is deg * 2^S minus the fields e_{n-1} ... e_0 (S = n * width).  The
    key is linear in the exponents, so a product is an addition.  In the
    fields alone, the view -key & mask, a divides b exactly when
    view(b) - view(a) sets no guard bit.  A monomial of degree under `limit`
    keeps every field in range, and a grevlex reduction never raises the
    degree of the term it cancels.
    """

    def __init__(self, nvars, width):
        self.shifts = [i * width for i in range(nvars)]
        self.limit = 1 << (width - 1)
        self.guards = sum(self.limit << s for s in self.shifts)
        self.fmask = (1 << width) - 1
        top = 1 << (nvars * width)
        self.mask = top - 1
        self.weights = [top - (1 << s) for s in self.shifts]

    def pack(self, terms):
        """{key: coefficient} of a term map whose monomials have degree
        under `limit`.

        The caller keeps to that bound: each packing is sized from the top
        degree of the terms it packs (`_top_degree`), and a widening
        repacks only elements that fit the narrower fields.  A monomial
        past it would spill into the next field unnoticed.
        """
        weights = self.weights
        return {sum(map(mul, m, weights)): c for m, c in terms.items()}

    def divisor(self, terms):
        """(view of the leading monomial, its key, monic tail) of packed terms."""
        lm = max(terms)
        lc = terms[lm]
        tail = [(m, c if lc == 1 else div(c, lc)) for m, c in terms.items() if m != lm]
        return -lm & self.mask, lm, tail

    def monomial(self, key):
        """Exponent tuple of a packed key."""
        v = -key & self.mask
        return tuple([(v >> s) & self.fmask for s in self.shifts])

    def unpack(self, variables, items):
        """Polynomial of (key, coefficient) pairs, built by `_polynomial`."""
        mask, fmask, shifts = self.mask, self.fmask, self.shifts
        terms = {}
        for m, c in items:
            v = -m & mask
            terms[tuple([(v >> s) & fmask for s in shifts])] = c
        return _polynomial(variables, terms)


def _remainder(work, divisors, pk):
    """Complete division of packed terms (consumed) by monic divisor triples.

    The largest remaining term is divided by the first divisor, in list
    order, whose leading monomial divides it, or else moves to the remainder.
    """
    mask, guards = pk.mask, pk.guards
    remainder = {}
    while work:
        lm = max(work)
        lc = work.pop(lm)
        v = -lm & mask
        for dv, dk, tail in divisors:
            if not (v - dv) & guards:
                q = lm - dk
                for m, c in tail:
                    m += q
                    s = work.get(m, 0) - lc * c
                    if s:
                        work[m] = s
                    else:
                        del work[m]
                break
        else:
            remainder[lm] = lc
    return remainder


def _width(degree):
    """Field width whose fields hold every monomial of total degree up to `degree`."""
    return degree.bit_length() + 1


def _top_degree(polys):
    """Largest total degree of a term of `polys`; 0 when they have none."""
    return max(map(sum, chain.from_iterable(p.terms for p in polys)), default=0)


def normal_form(f, basis):
    """Remainder of complete division of f by a GroebnerBasis.

    Divisors are tried in basis enumeration order, and every term of the
    work polynomial is processed, so the result is deterministic and
    idempotent.  It is zero exactly for ideal members.  No term of the
    division has a degree above the largest degree d of f and the basis, so
    one packing with fields for degree 2d holds them all.
    """
    pk = _Packing(len(f.variables), _width(2 * _top_degree((f, *basis.polynomials))))
    divisors = [pk.divisor(pk.pack(p.terms)) for p in basis.polynomials]
    return pk.unpack(f.variables, _remainder(pk.pack(f.terms), divisors, pk).items())


def eliminant(gb):
    """Ascending coefficients of the monic generator of I ∩ Q[x_last].

    I is the ideal of a reduced GroebnerBasis whose quotient ring is finite,
    and the generator is the minimal polynomial of multiplication by the
    last variable on Q[x]/I.  Raises ValueError when the quotient is
    infinite.

    A basis element that involves x_last alone is that generator, read off
    with no other work.  In a reduced basis only one leading monomial is a
    power of x_last, and the generator's leading monomial x_last^k is
    divisible by it, so the element's degree j is at most k; the generator
    divides the element, so k is at most j, and both are monic.  Otherwise
    `_minimal_polynomial` computes it.
    """
    nvars = len(gb.variables)
    lms = gb.leading_monomials()
    if not nvars or not all(any(lm[i] == sum(lm) for lm in lms) for i in range(nvars)):
        raise ValueError("eliminant needs a basis with a finite quotient")
    last = nvars - 1
    for p in gb.polynomials:
        if not any(any(m[:last]) for m in p.terms):
            return [p.terms.get((0,) * last + (e,), 0)
                    for e in range(p.total_degree() + 1)]
    return _minimal_polynomial(gb)


def _minimal_polynomial(gb):
    """`eliminant` of a basis with a finite quotient, by Krylov steps.

    The generator is the first linear dependence among the normal
    forms NF(1), NF(x_last), NF(x_last^2), ... (Cox, Little & O'Shea,
    *Using Algebraic Geometry*, ch. 2 §4; Faugere, Gianni, Lazard & Mora
    1993).  Each normal form is the remainder of x_last times the one
    before, kept packed, and is reduced on arrival against an echelon form
    keyed by its pivot monomial.  The power x_last^j rides along under the
    negative key -1 - j, so a vector whose keys are all negative is the
    dependence.  It takes at most quotient_dimension(gb) + 1 steps.

    A normal form is a sum of standard monomials, whose exponent of each
    variable is below that variable's pure power, of degree at most the
    largest basis degree d.  So x_last * NF and every term its reduction
    makes have degree at most nvars * d, and one packing with fields for
    that degree holds them all.
    """
    nvars = len(gb.variables)
    pk = _Packing(nvars, _width(nvars * _top_degree(gb.polynomials)))
    divisors = [pk.divisor(pk.pack(p.terms)) for p in gb.polynomials]
    step = pk.weights[-1]
    rows = {}  # pivot key -> the rest of its row, divided by its pivot
    power = _remainder({0: 1}, divisors, pk)
    for k in count():
        vector = {**power, -1 - k: 1}
        while (m := max(vector)) in rows:
            c = vector.pop(m)
            for q, a in rows[m]:
                s = vector.get(q, 0) - c * a
                if s:
                    vector[q] = s
                else:
                    del vector[q]
        if m < 0:
            return [exact(vector.get(-1 - j, 0)) for j in range(k + 1)]
        c = vector.pop(m)
        rows[m] = [(q, div(a, c)) for q, a in vector.items()]
        power = _remainder({m + step: c for m, c in power.items()}, divisors, pk)


def buchberger(ideal, *, spair_budget=DEFAULT_SPAIR_BUDGET):
    """Reduced grevlex Groebner basis by Buchberger's algorithm.

    Pair selection is the normal strategy, lowest lcm total degree first with
    ties broken by pair enumeration order: pending pairs sit in a heap keyed
    by (lcm total degree, i, j), and each pair is pushed once, when its
    second element joins the basis.  A pair taken off the heap is skipped
    when its leading monomials are coprime, or by the chain criterion
    (Gebauer & Moeller 1988): some other element k has lm_k | lcm(lm_i, lm_j)
    and the pairs (i, k) and (j, k) are both off the heap already.  Raises
    SPairBudgetExceeded once more than `spair_budget` pairs have been taken
    off the heap, skipped ones included.

    The whole run is on exponent vectors packed into one int each
    (`_Packing`; Monagan & Pearce 2007): a product is an addition and a
    divisibility test a subtraction and a mask.  A generator is packed from
    its term map and made monic there, and an element stays packed from its
    join until the reduced basis is output, one `Polynomial` per element of
    that basis.  The leading monomials that the pair heap and the criteria
    read are decoded from the leading keys.  Each reduced pair's
    S-polynomial is formed on the two packed elements by `_s_pair`.  The
    first fields hold twice the largest generator degree.  No term of an
    S-polynomial or of its reduction has a degree above the pair's lcm
    degree, so a pair whose lcm degree reaches the fields' limit first
    widens them in place: each element is decoded from the old fields and
    packed into fields that hold twice that degree, and the call goes on
    with the pairs it has.  One call takes each pair once.

    `certified_dimension` runs the same loop against a dimension floor; it
    tests the floor on the generators before the loop starts, and inside it
    after each join.
    """
    return _buchberger(ideal, spair_budget, None)


def certified_dimension(ideal, floor, *, spair_budget=DEFAULT_SPAIR_BUDGET):
    """(dimension, basis) of an ideal whose dimension is known to be >= floor.

    Every partial basis G of the ideal I has <LM(G)> inside LT(I), so the
    dimension of its leading monomials bounds dim I from above (dim R/I =
    dim R/LT(I); Cox, Little & O'Shea, *Ideals, Varieties, and Algorithms*,
    ch. 9 §3).  The generators are such a G, so the bound is tested first on
    their leading monomials, before any packing or pair is built.
    Buchberger, the same single pass as `buchberger`, then tests it again
    after each join.  Only a join whose leading monomial has a new minimal
    support (no support already present lies inside it) can lower the
    bound, so testing every join stops at the same join as testing those
    alone would.  Once the bound meets `floor` the dimension is exact and
    the call returns (floor, None) with no basis.  Otherwise it returns
    (ideal_dimension(basis), basis) with the reduced basis that
    `buchberger` builds.  A `floor` of None means no floor: the call is
    `buchberger` itself, and returns the basis.  `spair_budget` counts every
    pair the call takes, widenings included, as `buchberger` does; a floor
    met by the generators takes none.
    """
    if floor is None:
        gb = buchberger(ideal, spair_budget=spair_budget)
        return ideal_dimension(gb), gb
    if _dimension([g.leading_monomial() for g in ideal.generators],
                  len(ideal.variables)) == floor:
        return floor, None
    gb = _buchberger(ideal, spair_budget, floor)
    return (floor, None) if gb is None else (ideal_dimension(gb), gb)


def _buchberger(ideal, spair_budget, floor):
    # with a floor, None once a join certifies the dimension;
    # certified_dimension has tested the generators alone
    variables, nvars = ideal.variables, len(ideal.variables)
    pk = _Packing(nvars, _width(2 * _top_degree(ideal.generators)))
    guards, weights, mask = pk.guards, pk.weights, pk.mask
    lms, packed, pairs, taken = [], [], [], set()

    def join(d):
        lm = pk.monomial(d[1])
        for i, a in enumerate(lms):
            heappush(pairs, (sum(map(max, a, lm)), i, len(lms)))
        lms.append(lm)
        packed.append(d)

    for g in ideal.generators:
        join(pk.divisor(pk.pack(g.terms)))
    processed = 0
    while pairs:
        degree, i, j = heappop(pairs)
        processed += 1
        if processed > spair_budget:
            raise SPairBudgetExceeded(
                f"S-pair budget of {spair_budget} exceeded")
        taken.add((i, j))
        a, b = lms[i], lms[j]
        if not any(map(min, a, b)):
            continue
        # each field of the lcm is one of a packed leading monomial's, so
        # the view fits at any width
        lcm = sum(map(mul, map(max, a, b), weights))
        lv = -lcm & mask
        if any(not (lv - d[0]) & guards and k != i and k != j
               and (min(i, k), max(i, k)) in taken and (min(j, k), max(j, k)) in taken
               for k, d in enumerate(packed)):
            continue
        if degree >= pk.limit:
            # the S-polynomial and its reduction stay within the lcm degree
            old, pk = pk, _Packing(nvars, _width(2 * degree))
            guards, weights, mask = pk.guards, pk.weights, pk.mask
            packed[:] = [pk.divisor(pk.pack({old.monomial(m): c
                                             for m, c in [(lm, 1), *tail]}))
                         for _, lm, tail in packed]
            lcm = sum(map(mul, map(max, a, b), weights))
        r = _remainder(_s_pair(packed[i], packed[j], lcm), packed, pk)
        if r:
            join(pk.divisor(r))
            if floor is not None and _dimension(lms, nvars) == floor:
                return None
    # autoreduction: keep the elements whose leading monomial no smaller one
    # divides; no other leading monomial then divides theirs, so one pass of
    # tail reduction leaves every element reduced
    minimal = []
    for k in sorted(range(len(packed)), key=lambda k: packed[k][1]):
        if all((packed[k][0] - packed[q][0]) & guards for q in minimal):
            minimal.append(k)
    if len(minimal) > 1:
        for k in minimal:
            v, lm, tail = packed[k]
            rem = _remainder(dict(tail), [packed[q] for q in minimal if q != k], pk)
            packed[k] = v, lm, rem.items()
    return GroebnerBasis(variables, tuple(
        pk.unpack(variables, [(packed[k][1], 1), *packed[k][2]])
        for k in reversed(minimal)))


def ideal_dimension(gb):
    """Krull dimension of the affine zero set; -1 when 1 lies in the ideal.

    The dimension of the leading monomials of the basis (`_dimension`).
    """
    return _dimension(gb.leading_monomials(), len(gb.variables))


def _dimension(lms, nvars):
    """Krull dimension of the monomial ideal of `lms` in `nvars` variables.

    The dimension is the largest cardinality of a variable subset that
    contains the support of no leading monomial (an independent set of the
    leading term ideal; Kredel & Weispfenning 1988, J. Symb. Comp.).  Its
    complement meets every support, so the dimension is the variable count
    minus the size of a smallest such hitting set; -1 when a monomial is
    constant.

    The inclusion-minimal supports are held as bitmasks.  They fall into
    classes that share no variable, and a smallest hitting set of each class
    is found on its own by an exact branch and bound.  A node branches on the
    variables of its smallest unmet support, and each later sibling leaves
    out the variables tried before it.  Pairwise-disjoint unmet supports each
    need a variable of their own, so a node whose chosen count plus a greedy
    packing of them reaches the best size found so far is pruned.  The worst
    case is still exponential; a smallest hitting set is NP-hard to find.
    No monomials in k variables give dimension k.
    """
    # the variables of each monomial, as a bitmask
    bits = [1 << i for i in range(nvars)]
    masks = {sum(compress(bits, lm)) for lm in lms}
    if 0 in masks:
        # a constant leading monomial: the basis element is a unit
        return -1
    classes = {}  # union of the class's variables -> its minimal supports
    minimal = []  # every minimal support, as one flat list to scan
    for s in sorted(masks, key=int.bit_count):
        if any(m & s == m for m in minimal):
            continue
        minimal.append(s)
        members, union = [s], s
        for u in [u for u in classes if u & s]:
            members += classes.pop(u)
            union |= u
        classes[union] = members
    return nvars - sum(_smallest_hitting_set(sorted(members), union)
                       for union, members in classes.items())


def _smallest_hitting_set(supports, union):
    """Size of a smallest variable set meeting every support bitmask.

    `union` is the union of the supports, which come in ascending bitmask
    order, so that supports along a chain of variables pack greedily along
    it; the search is the branch and bound that `_dimension` describes.  A
    node first takes every variable that a
    support left with one allowed variable forces.  When its greedy packing
    takes every unmet support, they are pairwise disjoint, and one variable
    of each is a smallest completion, so the bound is the node's exact size
    and it does not branch.  Otherwise the variables of its smallest unmet
    support are tried in order of how many unmet supports they meet, most
    first, ties in variable order, so that an early leaf sets a tight bound.
    """
    # one variable from each support, or every variable of the class, meets
    # them all
    best = min(len(supports), union.bit_count())
    # depth-first, on a stack rather than the call stack: a hitting set can
    # hold more variables than the recursion limit allows frames.  A node is
    # (its parent's unmet supports, the variable it takes, the variables an
    # earlier sibling tried, the number of variables chosen), and builds its
    # own list only when it is popped, so a pruned sibling copies nothing.
    # The first node's bound is below every hitting set, so a leaf that
    # reaches it ends the search
    stack, floor = [(supports, 0, 0, 0)], None
    while stack:
        parent, taken, tried, chosen = stack.pop()
        if taken and not tried:
            # the first child of a node only drops the supports its variable
            # meets, which leaves them sorted and with none of one variable
            open_ = [s for s in parent if not s & taken]
        else:
            # the first node takes no variable, and owns its list
            open_ = [s & ~tried for s in parent if not s & taken] if taken else parent
            # the distinct one-variable supports, whose sum is their union
            forced = sum({s for s in open_ if not s & (s - 1)})
            if forced:
                chosen += forced.bit_count()
                open_ = [s for s in open_ if not s & forced]
            open_.sort(key=int.bit_count)
        bound, packed, disjoint = chosen, 0, True
        for s in open_:
            if s & packed:
                disjoint = False
            else:
                packed |= s
                bound += 1
        if floor is None:
            floor = bound
        if bound >= best:
            continue
        if disjoint:
            best = bound
            if best == floor:
                break
            continue
        first, children, tried = open_[0], [], 0
        meeting = [s for s in open_ if s & first]
        variables, rest = [], first
        while rest:
            variables.append(rest & -rest)
            rest &= rest - 1
        variables.sort(key=lambda v: -sum(1 for s in meeting if s & v))
        for v in variables:
            children.append((open_, v, tried, chosen + 1))
            # a support within the variables tried leaves no later sibling
            # a way to meet it
            tried |= v
            if any(not s & ~tried for s in meeting):
                break
        stack.extend(reversed(children))
    return best


def quotient_dimension(gb):
    """Vector space dimension of the quotient ring, or None when infinite.

    Counts standard monomials under the staircase of leading monomials; the
    count is finite exactly when every variable has a pure power among them
    (Cox, Little & O'Shea, *Ideals, Varieties, and Algorithms*, §5.3).  The
    count runs slab by slab, one variable at a time, on an explicit stack of
    entries (leading monomials that can still divide, variables left, width).
    For the last variable v left, the leading monomials of v-exponent at most
    e change only at v-exponents that occur among them.  So each slab
    [lo, hi) between consecutive cuts adds width * (hi - lo) times the count
    in the remaining variables against the leading monomials of v-exponent at
    most lo.  The slabs stop at the smallest v-exponent of a leading monomial
    whose other remaining exponents are all 0; without one, a variable has no
    pure power and the count is infinite.  Every slab pushed holds the
    monomial 1 of the remaining variables, a standard monomial of its own, so
    at most (variables * count) + 1 entries are ever pushed.
    """
    count, stack = 0, [(gb.leading_monomials(), len(gb.variables), 1)]
    while stack:
        lms, k, width = stack.pop()
        if not k:
            # only the root of a ring without variables can still hold a
            # leading monomial here, and then it is the unit
            count += 0 if lms else width
            continue
        v = k - 1
        pure = [lm[v] for lm in lms if not any(lm[:v])]
        if not pure:
            return None
        top = min(pure)
        cuts = sorted({0, top}.union(lm[v] for lm in lms if lm[v] < top), reverse=True)
        # the slab at lo = 0 pops first, so a missing pure power shows within
        # k levels
        for lo, hi in zip(cuts[1:], cuts):
            stack.append(([lm for lm in lms if lm[v] <= lo], v, width * (hi - lo)))
    return count


def quasi_homogeneous_weights(polys):
    """Non-negative integer weights making every polynomial weighted-homogeneous.

    The exponent differences of each polynomial from its first term are
    first reduced to a basis of their row space, which has the same kernel,
    so the simplex sees at most one row per variable.  Any base term spans
    the same row space, whose reduced echelon basis is unique, so the term
    order of a polynomial does not change the weights.  With one row per
    variable the kernel is {0} and no weights exist; otherwise an exact
    simplex finds a nonzero non-negative weight vector in that kernel.
    Returns a scaled integer tuple taken from a vertex of the feasible
    polytope (when the kernel has dimension two or more, which vertex
    depends on the tableau), or None when no such weights exist.
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
        base, *rest = p.terms
        rows.extend(tuple(map(sub, m, base)) for m in rest)
    basis = _linalg.row_basis(rows)
    if len(basis) == nvars:
        return None
    w = _linalg.nonnegative_kernel_vector(basis, nvars)
    return None if w is None else tuple(_linalg.primitive(w))
