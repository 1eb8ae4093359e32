"""Determinantal variety models and germ classification.

A model is an n x p polynomial matrix together with a rank threshold t and an
ambient space; its variety is the locus where the matrix has rank below t.
Classification computes codimension, dimension, the expected-codimension test,
the rank-stratification singular locus and, when that locus is finite, its
rational points.  Local (germ) conclusions are gated on the chart ideal being
weighted-homogeneous, since all symbolic computations here are global.
"""

import re
from fractions import Fraction
from itertools import compress, count
from math import gcd, isqrt, lcm, prod

from ._linalg import div, exact, primitive
from .grobner import (DEFAULT_SPAIR_BUDGET, GroebnerBasis, Ideal,
                      ResourceLimitExceeded, buchberger, certified_dimension,
                      eliminant, ideal_dimension, quasi_homogeneous_weights)
from .polyalg import Polynomial, PolyMatrix, minors, rank_at_point

PROJECTIVE = "projective"
AFFINE = "affine"

OUTSIDE = "outside"
SMOOTH_STRATUM = "smooth_stratum"
ESSENTIAL_SINGULAR = "essential_singular"

# The rational-root search of an eliminant of degree three or more reads the
# divisors of its constant and leading coefficients: it stops with
# ResourceLimitExceeded when either is past MAX_ROOT_COEFFICIENT, or past
# MAX_ROOT_CANDIDATES tried candidates.
MAX_ROOT_COEFFICIENT = 10 ** 12
MAX_ROOT_CANDIDATES = 100_000

# the primes that `_divisors` divides out by trial division, and the
# Miller-Rabin bases of `_is_prime`
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# a projective point entry: ASCII digits with an optional minus sign; an
# affine coordinate: an integer, a fraction of integers or a plain decimal.
# Neither takes exponents, digit separators or non-ASCII digits.
_INTEGER = re.compile(r"-?[0-9]+")
_COORDINATE = re.compile(r"-?[0-9]+(?:/[0-9]+|\.[0-9]+)?")


class AmbientSpace:
    __slots__ = ("kind", "dim")

    def __init__(self, kind, dim):
        if kind not in (PROJECTIVE, AFFINE):
            raise ValueError(f"unknown ambient kind {kind!r}")
        if type(dim) is not int or dim < 1:
            raise ValueError("ambient dimension must be a positive integer")
        self.kind = kind
        self.dim = dim


class ProjectivePoint:
    """Rational projective point stored as normalized integer coordinates.

    The coordinates are any nonzero rational representative, as ints and
    Fractions; a float raises TypeError, as in `_linalg.exact`, and the zero
    vector ValueError.  `primitive` scales them to integers with gcd 1 and
    the first nonzero entry is made positive, so every representative of a
    point gives the same coordinates, and equal points compare and hash
    equal.
    """

    __slots__ = ("coords",)

    def __init__(self, coords):
        values = [exact(c) for c in coords]
        if not any(values):
            raise ValueError("projective point needs a nonzero coordinate")
        ints = primitive(values)
        if next(c for c in ints if c) < 0:
            ints = [-c for c in ints]
        self.coords = tuple(ints)

    def __eq__(self, other):
        if not isinstance(other, ProjectivePoint):
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __str__(self):
        return "[" + ":".join(str(c) for c in self.coords) + "]"


class DeterminantalModel:
    """Matrix, rank threshold and ambient space defining the variety."""

    __slots__ = ("matrix", "t", "ambient")

    def __init__(self, matrix, t, ambient):
        n, p = matrix.rows, matrix.cols
        if type(t) is not int or not 1 <= t <= min(n, p):
            raise ValueError(f"t must satisfy 1 <= t <= min(n, p) = {min(n, p)}")
        expected = ambient.dim + (1 if ambient.kind == PROJECTIVE else 0)
        if len(matrix.variables) != expected:
            raise ValueError(
                f"{ambient.kind} dimension {ambient.dim} needs "
                f"{expected} variables, matrix has {len(matrix.variables)}")
        if ambient.kind == PROJECTIVE:
            degs = {e.homogeneous_degree() for row in matrix.entries
                    for e in row if e}
            if None in degs or len(degs) > 1:
                raise ValueError(
                    "projective mode requires homogeneous entries of a common degree")
        self.matrix = matrix
        self.t = t
        self.ambient = ambient

    @property
    def n(self):
        return self.matrix.rows

    @property
    def p(self):
        return self.matrix.cols

    @property
    def variables(self):
        return self.matrix.variables

    def expected_codimension(self):
        return (self.n - self.t + 1) * (self.p - self.t + 1)

    def smoothability_bound(self):
        return (self.n - self.t + 2) * (self.p - self.t + 2)

    def smoothable_type(self):
        """Whether the germ type is smoothable: chart dimension below the bound."""
        return self.ambient.dim < self.smoothability_bound()


class GermClassification:
    """What `classify` found; the dimensions are None for an empty variety.

    `point_labels` holds the `point_label` of each singular point, in order.
    """

    __slots__ = ("empty", "codimension", "dimension", "determinantal",
                 "isolated_singularity", "smoothable", "singular_points",
                 "singular_points_exact", "singular_locus_dimension",
                 "local_supported", "notes", "point_labels")

    def __init__(self, empty, codimension, dimension, determinantal,
                 isolated_singularity, smoothable, singular_points,
                 singular_points_exact, singular_locus_dimension,
                 local_supported, notes, point_labels):
        self.empty = empty
        self.codimension = codimension
        self.dimension = dimension
        self.determinantal = determinantal
        self.isolated_singularity = isolated_singularity
        self.smoothable = smoothable
        self.singular_points = singular_points
        self.singular_points_exact = singular_points_exact
        self.singular_locus_dimension = singular_locus_dimension
        self.local_supported = local_supported
        self.notes = notes
        self.point_labels = point_labels


def _dimension_floor(model, codimension, generators):
    """Floor on the dimension of an ideal of the model's minors, or None.

    `generators` are the minors that generate the ideal and `codimension`
    is the Eagon-Northcott bound (n - s + 1)(p - s + 1) for their size s.  A
    proper ideal has height at most that bound (Eagon & Northcott 1962;
    Bruns & Vetter, *Determinantal Rings*, Thm 2.1) and at most the number m
    of its distinct nonzero generators (Krull's height theorem; Eisenbud,
    *Commutative Algebra*, Thm 10.2), so its dimension in N variables is at
    least N minus the smaller of the two.  The count is the smaller one for
    the 1-minors of a Hankel 2 x k cone: k + 1 distinct entries in k + 2
    variables give the floor 1, its dimension.

    The ideal is known to be proper, and gets the floor, when
    - the model is projective, its entries share a positive degree and so
      do the generators: every minor then lies in (x_0, ..., x_N), while
      the unit ideal that stands for the lower ideal at t = 1 has degree 0;
    - the model is affine and no generator has a constant term: every
      minor vanishes at the origin;
    - the model is affine and the ideal has one distinct nonzero generator,
      which is nonconstant: a principal ideal of positive degree, of height
      exactly 1 (Krull's principal ideal theorem).
    None otherwise, or when the floor is negative and so cannot be reached.
    """
    distinct = {g for g in generators if g}
    if model.ambient.kind == PROJECTIVE:
        # the model's entries share one degree, and the minors of one size
        entry = next((e for row in model.matrix.entries for e in row if e), None)
        proper = (entry is not None and entry.total_degree() > 0
                  and all(g.total_degree() for g in distinct))
    else:
        origin = (0,) * len(model.variables)
        proper = (all(origin not in g.terms for g in distinct)
                  or (len(distinct) == 1 and next(iter(distinct)).total_degree() > 0))
    if not proper:
        return None
    floor = len(model.variables) - min(codimension, len(distinct))
    return floor if floor >= 0 else None


def lower_locus_generators(matrix, t):
    """Generators of the rank <= t - 2 stratum: the distinct nonzero
    (t - 1)-minors, in first-seen order.

    By Laplace expansion the t-minors already lie in this ideal, so they are
    not listed.  For t = 1 the stratum is empty: the unit ideal.  Equal
    minors are listed once, as [f, g] for the minors [f, g, g, f] of
    [[f, g], [g, f]], so no consumer pairs or solves a repeat.
    """
    if t == 1:
        return [Polynomial.constant(matrix.variables, 1)]
    return list(dict.fromkeys(g for g in minors(matrix, t - 1) if g))


def _coordinates(model, point):
    """The exact coordinates of a point, one per variable of the model.

    The one check of a point against a model, shared by `parse_point`,
    `is_point_on_variety`, `chart_matrix` and `chart_ideal`.  The point is
    a sequence of ints and Fractions, or a ProjectivePoint when the model is
    projective; a projective point may be any rational representative.
    ValueError when an affine model is given a ProjectivePoint, whose
    normalized coordinates name another point; then "expected N
    coordinates" when the count is not the model's variable count N, and
    then when the model is projective and every coordinate is zero.
    """
    if isinstance(point, ProjectivePoint):
        if model.ambient.kind != PROJECTIVE:
            raise ValueError("an affine point is a tuple of coordinates, "
                             "not a ProjectivePoint")
        point = point.coords
    coords = [exact(x) for x in point]
    if len(coords) != len(model.variables):
        raise ValueError(f"expected {len(model.variables)} coordinates")
    if model.ambient.kind == PROJECTIVE and not any(coords):
        raise ValueError("projective point needs a nonzero coordinate")
    return coords


def is_point_on_variety(model, point):
    """The stratum of the model's rank stratification that holds a point.

    OUTSIDE when the rank is >= t (off the variety), ESSENTIAL_SINGULAR when
    it is <= t - 2 (the lower stratum, an essential singular point
    candidate), and SMOOTH_STRATUM when it is t - 1; `rank_at_point` gives
    the rank itself.  The point is checked and read by `_coordinates`, so a
    projective point may be given by any rational representative.
    """
    rank = rank_at_point(model.matrix, _coordinates(model, point))
    if rank >= model.t:
        return OUTSIDE
    return ESSENTIAL_SINGULAR if rank <= model.t - 2 else SMOOTH_STRATUM


def _is_prime(n):
    """Whether n, above 37 and with no prime factor up to 37, is prime.

    Miller-Rabin with the prime bases 2 to 37, which is exact for every n
    below 3.3 * 10^24, far past MAX_ROOT_COEFFICIENT.
    """
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s  # n - 1 = d * 2^s with d odd
    return all(pow(a, d, n) == 1 or any(pow(a, d << r, n) == n - 1 for r in range(s))
               for a in _SMALL_PRIMES)


def _rho(n):
    """A proper factor of an odd composite n: Pollard's rho, Brent's cycle search."""
    for c in count(1):
        x = y = 2
        power = steps = d = 1
        while d == 1:
            if steps == power:
                x, power, steps = y, 2 * power, 0
            y, steps = (y * y + c) % n, steps + 1
            d = gcd(x - y, n)
        if d != n:
            return d


def _divisors(n):
    """The positive divisors of a nonzero integer, ascending.

    A part of n is split at its least prime factor up to 37, or else, unless
    `_is_prime` holds, at a factor that `_rho` finds; each prime factor met
    multiplies the divisors found so far.
    """
    divisors, parts = {1}, [abs(n)]
    while parts:
        m = parts.pop()
        p = next((p for p in _SMALL_PRIMES if m % p == 0), None)
        if p is None and m > 1 and not _is_prime(m):
            p = _rho(m)
        if p and p < m:
            parts += [p, m // p]
        elif m > 1:
            divisors |= {d * m for d in divisors}
    return sorted(divisors)


def _root_candidates(ps, qs):
    """Signed pairs (p, q), q > 0 and gcd(p, q) = 1, with p in ps and q in qs.

    With ps and qs the divisors of the constant term and of the leading
    coefficient of an integer polynomial, these are by the rational root
    theorem the only possible rational roots p/q.  Generated lazily, in the
    order of ps; which roots are found does not depend on the order they are
    tried in.
    """
    for p in ps:
        for q in qs:
            if gcd(p, q) == 1:
                yield p, q
                yield -p, q


def _divide_linear(coeffs, p, q):
    """Quotient of an integer polynomial by (q*x - p), or None if p/q is no root.

    `coeffs` is dense, ascending degree, with a nonzero constant term, and
    gcd(p, q) = 1.  By Gauss's lemma the quotient by the primitive factor
    (q*x - p) is integral when p/q is a root, so the synthetic division runs
    in integers and stops at the first inexact step; the constant term is
    checked last.
    """
    quo = [0] * (len(coeffs) - 1)
    acc = 0
    for i in range(len(coeffs) - 1, 0, -1):
        acc, rem = divmod(coeffs[i] + p * acc, q)
        if rem:
            return None
        quo[i - 1] = acc
    if coeffs[0] + p * acc:
        return None
    return quo


def _rational_roots(coeffs):
    """Distinct rational roots, ascending, of a univariate polynomial.

    `coeffs` is dense, ascending degree, of degree >= 1: the one caller
    passes the eliminant of a zero-dimensional ideal.  A constant still
    gives ([], True).  Returns (roots, complete) where complete means the
    polynomial splits into rational linear factors.  The coefficients are
    scaled to their primitive integer multiple and every candidate of the
    rational root theorem is divided out as often as it divides, until a
    quadratic or linear factor is left, whose roots are read off directly,
    whatever their size.  Each candidate is tried by
    exact division (`_divide_linear`) and counts against the limit.  The
    candidate search, needed only when more than a quadratic is left after
    the zero roots, raises ResourceLimitExceeded when the constant or
    leading coefficient exceeds MAX_ROOT_COEFFICIENT, and after
    MAX_ROOT_CANDIDATES candidates.  The last entry of `coeffs` is nonzero,
    since the one caller passes a monic eliminant, so no trailing zeros are
    stripped.
    """
    work = primitive(coeffs)
    roots = []
    if work[0] == 0:
        roots.append(Fraction(0))
        while work[0] == 0:
            work.pop(0)
    if len(work) > 3:
        if max(abs(work[0]), abs(work[-1])) > MAX_ROOT_COEFFICIENT:
            raise ResourceLimitExceeded(
                "rational-root search exceeded its limit of "
                f"{MAX_ROOT_COEFFICIENT} on the constant and leading coefficients")
        ps, qs = _divisors(work[0]), _divisors(work[-1])
        candidates = _root_candidates(ps, qs)
    tried = 0
    while len(work) > 3:
        pq = next(candidates, None)
        if pq is None:
            break
        tried += 1
        if tried > MAX_ROOT_CANDIDATES:
            raise ResourceLimitExceeded(
                "rational-root search exceeded its limit of "
                f"{MAX_ROOT_CANDIDATES} candidates")
        p, q = pq
        quo = _divide_linear(work, p, q)
        if quo is not None:
            roots.append(Fraction(p, q))
            # p/q is divided out as often as it divides, m times; the
            # quotient's end coefficients are c0 / p^m and cn / q^m, so their
            # divisors are among those already found; and none below |p| is
            # a root
            while quo is not None:
                work, quo = quo, _divide_linear(quo, p, q)
            ps = [d for d in ps if d >= abs(p) and work[0] % d == 0]
            qs = [d for d in qs if work[-1] % d == 0]
            candidates = _root_candidates(ps, qs)
    if len(work) == 3:
        # every root found so far was divided out completely, so the
        # quadratic's rational roots are new ones
        c, b, a = work
        disc = b * b - 4 * a * c
        if disc >= 0 and isqrt(disc) ** 2 == disc:
            s = isqrt(disc)
            # a set: one root when the discriminant is 0
            roots += {Fraction(-b - s, 2 * a), Fraction(-b + s, 2 * a)}
            work = work[2:]
    if len(work) == 2:
        # the last linear factor's root needs no search, and is a new one
        roots.append(Fraction(-work[0], work[1]))
        work = work[1:]
    return sorted(roots), len(work) == 1


def _solve_zero_dimensional(gens, variables, spair_budget, basis=None):
    """All rational points of a finite affine zero set, in ascending order.

    Returns (points, complete); complete is False when non-rational points
    may exist (an eliminant fails to split over the rationals) or when the
    zero set is not finite.  Zero and repeated generators are dropped.
    `basis`, when given, is the reduced basis of the ideal of `gens` in
    `variables`, and no basis is built.  The distinct rational roots of the
    eliminant e in the last variable, read from that basis (`eliminant`),
    are the last coordinates of the points.

    When e is the only basis element with the last variable, the ideal is
    (G') + (e) with G' the other elements, which lie in the other
    variables, so the zero set is V(G') x V(e) (elimination; Cox, Little
    and O'Shea, Using Algebraic Geometry, ch. 2 section 4).  G' is solved
    once, and its elements, projected by `Polynomial.eliminate`, are its
    own reduced basis: they generate its ideal and were a reduced basis
    already.  Its points, ascending, each take the ascending distinct roots
    in turn, so the product comes out in lexicographic order as built.
    Otherwise each root is substituted into every generator by
    `Polynomial.eliminate`, the system left is solved in the other
    variables, and the points of all roots are sorted; a generator in the
    last variable alone, a multiple of e, becomes zero.
    """
    gens = tuple(dict.fromkeys(g for g in gens if g))
    if any(g.total_degree() == 0 for g in gens):
        return [], True
    if not variables:
        return [()], True
    if basis is None:
        basis = buchberger(Ideal(variables, gens), spair_budget=spair_budget)
    # a unit basis has no zero and a positive-dimensional one no finite
    # list of them; the eliminant splits a zero-dimensional one
    dimension = ideal_dimension(basis)
    if dimension:
        return [], dimension < 0
    roots, complete = _rational_roots(eliminant(basis))
    if not roots:
        return [], complete
    last, rest = len(variables) - 1, variables[:-1]
    with_last = [p for p in basis.polynomials if any(m[last] for m in p.terms)]
    if not any(any(m[:last]) for p in with_last for m in p.terms):
        others = tuple(p.eliminate({last: 0}) for p in basis.polynomials
                       if p is not with_last[0])
        points, rest_complete = _solve_zero_dimensional(
            others, rest, spair_budget, GroebnerBasis(rest, others))
        return ([pt + (r,) for pt in points for r in roots],
                complete and rest_complete)
    points = []
    for r in roots:
        sub_points, sub_complete = _solve_zero_dimensional(
            [g.eliminate({last: r}) for g in gens], rest, spair_budget)
        complete = complete and sub_complete
        points.extend(pt + (r,) for pt in sub_points)
    return sorted(points), complete


def _projective_points(gens, variables, spair_budget):
    # cell decomposition: cell i holds the points with x_i = 1 and every
    # earlier coordinate 0.  `gens` are the distinct nonzero generators with
    # x_0..x_{i-1} set to 0, in first-seen order (`lower_locus_generators`
    # lists them so for cell 0).  Cell i sets its first variable to 1, one
    # generator at a time, and is empty at the first that becomes a nonzero
    # constant; keeping the terms without that variable, and dropping its
    # coordinate, restricts `gens` to x_i = 0 for the cells after it
    pts, complete = [], True
    for i in range(len(variables)):
        rest, cell = variables[i + 1:], []
        for g in gens:
            h = g.eliminate({0: 1})
            if h.total_degree() == 0:
                break
            cell.append(h)
        else:
            sols, comp = _solve_zero_dimensional(cell, rest, spair_budget)
            complete = complete and comp
            pts.extend(ProjectivePoint((0,) * i + (1,) + s) for s in sols)
        gens = dict.fromkeys(h for g in gens if (h := Polynomial._raw(
            rest, {m[1:]: c for m, c in g.terms.items() if not m[0]})))
    return sorted(pts, key=lambda p: p.coords), complete


def parse_point(text, model):
    """The model's point named by [a:b:c] (projective, a ProjectivePoint of
    integer entries) or (a, b) (affine, a tuple of Fractions); ValueError on
    any other text, then, from the ProjectivePoint constructor, on a zero
    projective point, and then, from `_coordinates`, on a coordinate count
    other than the model's variable count.
    """
    s = text.strip()
    if model.ambient.kind == PROJECTIVE:
        if not (s.startswith("[") and s.endswith("]")):
            raise ValueError(f"projective point must look like [a:b:c], got {text!r}")
        parts = [p.strip() for p in s[1:-1].split(":")]
        try:
            if not all(_INTEGER.fullmatch(p) for p in parts):
                raise ValueError
            # int() still raises past the interpreter's limit on digits
            coords = [int(p) for p in parts]
        except ValueError:
            raise ValueError(
                f"projective point entries must be integers, got {text!r}") from None
        # outside the try: a zero point has its own message
        point = ProjectivePoint(coords)
    else:
        if not (s.startswith("(") and s.endswith(")")):
            raise ValueError(f"affine points look like (a, b), got {text!r}")
        parts = [p.strip() for p in s[1:-1].split(",")]
        try:
            if not all(_COORDINATE.fullmatch(p) for p in parts):
                raise ValueError
            # Fraction() raises past the interpreter's limit on digits, and
            # on a zero denominator
            point = tuple(Fraction(p) for p in parts)
        except (ValueError, ZeroDivisionError):
            raise ValueError("coordinates must be rational numbers") from None
    _coordinates(model, point)
    return point


def point_label(point):
    """Report label of a point: [a:b:c] when projective, (a, b) when affine."""
    if isinstance(point, ProjectivePoint):
        return str(point)
    return "(" + ", ".join(str(c) for c in point) + ")"


def _chart_point(model, point):
    """The point's chart index and offsets: (chart, offsets).

    A projective point is dehomogenized at its first nonzero coordinate,
    `chart`, which is set to 1: each other coordinate is divided by it,
    and these ratios are the same for every representative of the point.
    An affine point has the chart None.  The chart is centred by the
    rational `offsets`, one per chart variable.  The coordinates come from
    `_coordinates`, which checks them.
    """
    coords = _coordinates(model, point)
    if model.ambient.kind == PROJECTIVE:
        i = next(i for i, c in enumerate(coords) if c)
        return i, [div(c, coords[i]) for j, c in enumerate(coords) if j != i]
    return None, coords


def _chart_frame(model, chart):
    """The model's grid in one chart, as (cells, frame).

    `frame` lists the distinct entries e as (f, own) pairs: f is e in the
    chart variables, dehomogenized at coordinate `chart`, which is set to
    1, or e itself when `chart` is None; `own` holds one bool per chart
    variable, True where f contains it, so all False for a zero entry.
    `cells` is the grid with each entry replaced by its index in `frame`.
    """
    distinct = {}
    cells = [[distinct.setdefault(e, len(distinct)) for e in row]
             for row in model.matrix.entries]
    return cells, [(f, tuple(map(any, zip(*f.terms)))
                    or (False,) * len(f.variables))
                   for e in distinct
                   for f in [e if chart is None else e.eliminate({chart: 1})]]


def chart_matrix(model, point):
    """The model matrix rewritten in the germ chart centered at a point.

    Projective points are dehomogenized at their first nonzero coordinate and
    then translated to the origin; affine points are translated directly.
    Equal entries are rewritten once.  This is the exact chart that
    `groebner` prints.
    """
    chart, offsets = _chart_point(model, point)
    cells, frame = _chart_frame(model, chart)
    shifted = [f.shift(offsets) for f, _ in frame]
    return PolyMatrix([[shifted[k] for k in row] for row in cells])


def _chart_constant(model, denominators):
    """K = L * Q^D, with which `chart_ideal` charts a point in integers.

    L is the lcm of the denominators of the coefficients of the model's
    entries, Q the lcm of `denominators` and D the largest total degree of an
    entry.  When Q is a multiple of every offset denominator q_j of the
    charts, the term c * x^m of an entry goes to c * K / prod q_j^m_j *
    (X + a)^m in the chart, an integer multiple: den(c) divides L, and
    prod q_j^m_j divides Q^|m|, which divides Q^D.
    """
    distinct = {e for row in model.matrix.entries for e in row if e}
    scale = lcm(*(c.denominator for e in distinct for c in e.terms.values()))
    degree = max((e.total_degree() for e in distinct), default=0)
    return scale * lcm(*denominators) ** degree


def _chart_memo(model, points):
    """A fresh `chart_ideal` memo, whose one constant charts all `points`.

    The points are ProjectivePoints or affine coordinate tuples; the chart
    offsets c_j / c_i of a projective point have denominators dividing its
    first nonzero coordinate c_i.  The memo's frames, shifts and products
    start empty and fill on the first point that needs each.
    """
    if model.ambient.kind == PROJECTIVE:
        denominators = [next(c for c in pt.coords if c) for pt in points]
    else:
        denominators = [x.denominator for pt in points for x in pt]
    return _chart_constant(model, denominators), {}, {}, {}


def _integer_form(f, offsets, scale):
    """scale * f((X + a) / q) for the offsets a / q of f's variables.

    Each variable x_j goes to (X_j + a_j) / q_j, where a_j / q_j is its own
    offset in lowest terms; `scale` is a `_chart_constant` that makes every
    coefficient an integer.  A variable that f does not contain has the
    offset 0.
    """
    qs = [a.denominator for a in offsets]
    if scale != 1:
        f = Polynomial._raw(f.variables, {
            m: c.numerator * (scale // (c.denominator * prod(map(pow, qs, m))))
            for m, c in f.terms.items()})
    return f.shift([a.numerator for a in offsets])


def chart_ideal(model, point, memo=None):
    """t-minors of the germ chart at a point, with integer coefficients.

    Each chart variable x_j goes to (X_j + a_j) / q_j, where a_j / q_j is
    the point's offset in x_j in lowest terms: the centring shift followed
    by a diagonal rescaling, which keeps every monomial support.  An entry e
    becomes the integer polynomial E_e = K * e((X + a) / q) of
    `_integer_form`, for one constant K of `_chart_constant`, so each minor
    is K^t times the centred chart's minor at X_j / q_j, with its monomials
    and so its weights.

    `memo` is (K, frames, shifted, products): `frames` holds the
    `_chart_frame` of each chart index met, `shifted` memoizes E_e under one
    flat key, e in the chart followed by the offsets of its own variables,
    and `products` the 2 x 2-level products of the E_e in the minors (see
    `polyalg.minors`).  The four are valid only together, and K must chart
    every point they are used for.
    `classify` builds one memo for all its points, so a chart's entries are
    dehomogenized once, and on a grid the points of a column share the
    shift of an entry in x alone and its square in their minors, whatever
    the denominators of their other coordinates.  Without a memo the call
    takes K from its own point and uses fresh dicts.
    """
    chart, offsets = _chart_point(model, point)
    if memo is None:
        memo = _chart_constant(model, [a.denominator for a in offsets]), {}, {}, {}
    scale, frames, shifted, products = memo
    if chart not in frames:
        frames[chart] = _chart_frame(model, chart)
    cells, frame = frames[chart]
    charted = []
    for f, own in frame:
        key = f, *compress(offsets, own)
        g = shifted.get(key)
        if g is None:
            g = shifted[key] = _integer_form(
                f, [a if u else 0 for a, u in zip(offsets, own)], scale)
        charted.append(g)
    m = PolyMatrix._raw([[charted[k] for k in row] for row in cells])
    return Ideal._raw(m.variables,
                      tuple(filter(None, minors(m, model.t, products))))


def lower_stratum_points(model, spair_budget):
    """Rational points of the rank <= t - 2 stratum, the singular locus.

    Returns (points, exact, dim_low, gb_low), where dim_low is the ideal
    dimension of the (t - 1)-minors ideal and gb_low its reduced basis, or
    None when the model's dimension floor certified dim_low before the
    basis was complete (`_dimension_floor`).  The points are enumerated
    when that stratum is finite, in ascending order, as ProjectivePoints or
    affine tuples: in affine mode when dim_low is 0, by
    `_solve_zero_dimensional` from gb_low, or from a basis it builds when
    gb_low is None (a product of root lists where that basis splits), which
    returns them in order; and for a projective cone when dim_low is 1, by
    the cell search of `_projective_points`, sorted on their normalized
    integer coordinates.  A projective
    dim_low of 0 leaves only the origin, so no point.  exact is False when
    non-rational or infinitely many points may be missing from the list.
    """
    projective = model.ambient.kind == PROJECTIVE
    lower_gens = lower_locus_generators(model.matrix, model.t)
    dim_low, gb_low = certified_dimension(
        Ideal(model.variables, lower_gens),
        _dimension_floor(model, model.smoothability_bound(), lower_gens),
        spair_budget=spair_budget)
    points, exact = [], dim_low <= (1 if projective else 0)
    if projective and dim_low == 1:
        points, exact = _projective_points(lower_gens, model.variables,
                                           spair_budget)
    elif not projective and dim_low == 0:
        points, exact = _solve_zero_dimensional(lower_gens, model.variables,
                                                spair_budget, gb_low)
    return tuple(points), exact, dim_low, gb_low


def classify(model, spair_budget=DEFAULT_SPAIR_BUDGET):
    """Classify the variety of the model and the germ type at its singularities.

    Codimension is the variable count of the affine reading minus the ideal
    dimension of the rank ideal; the model is called determinantal when that
    matches the expected codimension (n - t + 1)(p - t + 1).  The singular
    locus is the rank <= t - 2 stratum.  The singularity is isolated when the
    locus is empty or consists of finitely many points, whose rational members
    are enumerated exactly when every eliminant splits over the rationals.
    Each singular point's chart ideal must be weighted-homogeneous for
    symbolic local computations; otherwise `local_supported` is False.  The
    points are charted with one constant and share one memo of chart shifts
    and entry products, and the weight gate runs once per distinct chart
    support: it reads only the monomials of the generators, so equal
    supports get the same answer.  A support whose generators are all
    homogeneous, as at a cone's vertex, passes without the simplex of
    `quasi_homogeneous_weights`: the weights (1, ..., 1) make it
    weighted-homogeneous.

    An ideal that `_dimension_floor` knows to be proper gets a dimension
    floor, the Eagon-Northcott or the Krull bound: in a projective model
    with entries of positive degree, every ideal but the unit lower ideal of
    t = 1; in an affine one, an ideal whose generators all vanish at the
    origin or a principal one.  Buchberger stops once the generators or a
    partial basis certify the dimension, so gb_low of `lower_stratum_points`
    may be None; an ideal without a floor gets its basis in full.  The
    result holds no basis: a caller that needs the rank basis builds it from
    `Ideal(model.variables, minors(model.matrix, model.t))`.
    """
    if not any(e for row in model.matrix.entries for e in row):
        raise ValueError("classification requires a nonzero matrix")
    projective = model.ambient.kind == PROJECTIVE
    notes = []
    nvars = len(model.variables)
    rank_ideal = Ideal(model.variables, minors(model.matrix, model.t))
    dim_t, _ = certified_dimension(
        rank_ideal,
        _dimension_floor(model, model.expected_codimension(),
                         rank_ideal.generators),
        spair_budget=spair_budget)
    smoothable = model.smoothable_type()
    dimension = dim_t - 1 if projective else dim_t
    if dimension < 0:
        notes.append("the variety is empty")
        return GermClassification(
            empty=True, codimension=None, dimension=None, determinantal=False,
            isolated_singularity=True, smoothable=smoothable, singular_points=(),
            singular_points_exact=True, singular_locus_dimension=None,
            local_supported=True, notes=tuple(notes), point_labels=())
    codim = nvars - dim_t
    determinantal = codim == model.expected_codimension()
    points, exact, dim_low, _ = lower_stratum_points(model, spair_budget)
    isolated = dim_low <= (1 if projective else 0)
    if not exact:
        notes.append("singular locus is not a finite set of rational points; "
                     "points are reported symbolically by the lower rank ideal")
    local_supported = True
    memo = _chart_memo(model, points)
    gates = {}
    labels = tuple(map(point_label, points))
    for pt, label in zip(points, labels):
        chart = chart_ideal(model, pt, memo)
        if not chart.generators:
            continue
        support = tuple(frozenset(g.terms) for g in chart.generators)
        if support not in gates:
            gates[support] = (
                all(g.homogeneous_degree() is not None for g in chart.generators)
                or quasi_homogeneous_weights(chart.generators) is not None)
        if not gates[support]:
            local_supported = False
            notes.append(f"chart ideal at {label} is not "
                         "weighted-homogeneous; symbolic local computations "
                         "are unsupported")
    return GermClassification(
        empty=False, codimension=codim, dimension=dimension,
        determinantal=determinantal, isolated_singularity=isolated,
        smoothable=smoothable, singular_points=points,
        singular_points_exact=exact, singular_locus_dimension=dim_low,
        local_supported=local_supported, notes=tuple(notes),
        point_labels=labels)
