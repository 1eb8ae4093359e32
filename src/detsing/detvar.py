"""Determinantal variety models and germ classification.

A model is an n x p polynomial matrix together with a rank threshold t and an
ambient space; its variety is the locus where the matrix has rank below t.
Classification computes codimension, dimension, the expected-codimension test,
the rank-stratification singular locus and, when that locus is finite, its
rational points.  Local (germ) conclusions are gated on the chart ideal being
weighted-homogeneous, since all symbolic computations here are global.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

from .grobner import (DEFAULT_SPAIR_BUDGET, GREVLEX, LEX, GroebnerBasis, Ideal,
                      buchberger, ideal_dimension, quasi_homogeneous_weights)
from .polyalg import Polynomial, PolyMatrix, minors, rank_at_point

PROJECTIVE = "projective"
AFFINE = "affine"

OUTSIDE = "outside"
SMOOTH_STRATUM = "smooth_stratum"
ESSENTIAL_SINGULAR = "essential_singular"


@dataclass(frozen=True)
class AmbientSpace:
    kind: str
    dim: int

    def __post_init__(self):
        if self.kind not in (PROJECTIVE, AFFINE):
            raise ValueError(f"unknown ambient kind {self.kind!r}")
        if not isinstance(self.dim, int) or self.dim < 1:
            raise ValueError("ambient dimension must be a positive integer")


@dataclass(frozen=True)
class ProjectivePoint:
    """Rational projective point stored as normalized integer coordinates.

    Coordinates are divided by their gcd and the first nonzero entry is made
    positive, so equal points compare equal.
    """

    coords: tuple

    def __init__(self, coords):
        ints = tuple(int(c) for c in coords)
        if not ints or not any(ints):
            raise ValueError("projective point needs a nonzero coordinate")
        g = 0
        for c in ints:
            g = gcd(g, abs(c))
        ints = tuple(c // g for c in ints)
        first = next(c for c in ints if c)
        if first < 0:
            ints = tuple(-c for c in ints)
        object.__setattr__(self, "coords", ints)

    @classmethod
    def parse(cls, text):
        s = text.strip()
        if not (s.startswith("[") and s.endswith("]")):
            raise ValueError(f"projective point must look like [a:b:c], got {text!r}")
        parts = s[1:-1].split(":")
        try:
            vals = [int(p.strip()) for p in parts]
        except ValueError:
            raise ValueError(
                f"projective point entries must be integers, got {text!r}") from None
        return cls(vals)

    @classmethod
    def from_fractions(cls, values):
        vals = [Fraction(v) for v in values]
        scale = 1
        for v in vals:
            scale = scale * v.denominator // gcd(scale, v.denominator)
        return cls([int(v * scale) for v in vals])

    def chart_index(self):
        """Index of the first nonzero coordinate."""
        return next(i for i, c in enumerate(self.coords) if c)

    def __str__(self):
        return "[" + ":".join(str(c) for c in self.coords) + "]"


@dataclass(frozen=True)
class PointLocation:
    kind: str
    rank: int


@dataclass(frozen=True)
class DeterminantalModel:
    """Matrix, rank threshold and ambient space defining the variety."""

    matrix: PolyMatrix
    t: int
    ambient: AmbientSpace

    def __post_init__(self):
        n, p = self.matrix.rows, self.matrix.cols
        if not isinstance(self.t, int) or not 1 <= self.t <= min(n, p):
            raise ValueError(f"t must satisfy 1 <= t <= min(n, p) = {min(n, p)}")
        expected = self.ambient.dim + (1 if self.ambient.kind == PROJECTIVE else 0)
        if len(self.matrix.variables) != expected:
            raise ValueError(
                f"{self.ambient.kind} dimension {self.ambient.dim} needs "
                f"{expected} variables, matrix has {len(self.matrix.variables)}")
        if self.ambient.kind == PROJECTIVE:
            degs = {e.homogeneous_degree() for row in self.matrix.entries
                    for e in row if e}
            if None in degs or len(degs) > 1:
                raise ValueError(
                    "projective mode requires homogeneous entries of a common degree")

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


@dataclass(frozen=True)
class GermClassification:
    empty: bool
    codimension: int | None
    dimension: int | None
    determinantal: bool
    isolated_singularity: bool
    smoothable: bool
    singular_points: tuple
    singular_points_exact: bool
    singular_locus_dimension: int | None
    local_supported: bool
    notes: tuple
    rank_basis: GroebnerBasis


def minors_ideal(model, size):
    """Ideal generated by all size x size minors, in enumeration order."""
    return Ideal(model.variables, minors(model.matrix, size))


def lower_locus_generators(matrix, t):
    """Generators of the rank <= t - 2 stratum: the (t - 1)-minors.

    By Laplace expansion the t-minors already lie in this ideal, so they are
    not listed.  For t = 1 the stratum is empty: the unit ideal.
    """
    if t == 1:
        return [Polynomial.constant(matrix.variables, 1)]
    return minors(matrix, t - 1)


def is_point_on_variety(model, point):
    """Locate a point against the rank stratification of the model.

    Rank >= t means outside the variety, rank <= t - 2 lands in the lower
    stratum (an essential singular point candidate), and rank t - 1 is the
    smooth stratum.  Projective points may be given by any rational
    representative.
    """
    if isinstance(point, ProjectivePoint):
        point = point.coords
    point = [Fraction(x) for x in point]
    if len(point) != len(model.variables):
        raise ValueError("point length does not match the variable count")
    if model.ambient.kind == PROJECTIVE and not any(point):
        raise ValueError("projective point needs a nonzero coordinate")
    rank = rank_at_point(model.matrix, point)
    if rank >= model.t:
        return PointLocation(OUTSIDE, rank)
    if rank <= model.t - 2:
        return PointLocation(ESSENTIAL_SINGULAR, rank)
    return PointLocation(SMOOTH_STRATUM, rank)


def _divisors(n):
    n = abs(int(n))
    out = set()
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            out.add(d)
            out.add(n // d)
    return sorted(out)


def _poly_eval(coeffs, r):
    val = Fraction(0)
    for c in reversed(coeffs):
        val = val * r + c
    return val


def _deflate(coeffs, r):
    # divide by (x - r) assuming r is a root; coefficients ascending
    n = len(coeffs) - 1
    quo = [Fraction(0)] * n
    acc = Fraction(0)
    for i in range(n, 0, -1):
        acc = coeffs[i] + acc * r
        quo[i - 1] = acc
    return quo


def _rational_roots(coeffs):
    """Rational roots with multiplicity of a nonzero univariate polynomial.

    `coeffs` is dense, ascending degree.  Returns (roots, complete) where
    complete means the polynomial splits into rational linear factors.
    """
    scale = 1
    for c in coeffs:
        scale = scale * c.denominator // gcd(scale, c.denominator)
    work = [Fraction(c * scale) for c in coeffs]
    while work and work[-1] == 0:
        work.pop()
    if len(work) <= 1:
        return [], True
    roots = []
    zero_mult = 0
    while work[0] == 0:
        zero_mult += 1
        work.pop(0)
    if zero_mult:
        roots.append((Fraction(0), zero_mult))
    if len(work) == 1:
        return roots, True
    c0, cn = int(work[0]), int(work[-1])
    if abs(c0) > 10 ** 12 or abs(cn) > 10 ** 12:
        return roots, False
    candidates = sorted({Fraction(sign * p, q)
                         for p in _divisors(c0) for q in _divisors(cn)
                         for sign in (1, -1)})
    for r in candidates:
        mult = 0
        while len(work) > 1 and _poly_eval(work, r) == 0:
            work = _deflate(work, r)
            mult += 1
        if mult:
            roots.append((r, mult))
        if len(work) == 1:
            break
    roots.sort(key=lambda rm: rm[0])
    return roots, len(work) == 1


def _solve_zero_dimensional(gens, variables, spair_budget):
    """All rational points of a finite affine zero set.

    Returns (points, complete); complete is False when non-rational points
    may exist (an eliminant fails to split over the rationals) or when the
    zero set is not finite.
    """
    gens = [g for g in gens if g]
    if any(g.total_degree() == 0 for g in gens):
        return [], True
    if not variables:
        return [tuple()], True
    gb = buchberger(Ideal(variables, gens), LEX, spair_budget)
    if any(p.total_degree() == 0 for p in gb.polynomials):
        return [], True
    if ideal_dimension(gb) > 0:
        return [], False
    last = len(variables) - 1
    eliminant = None
    for p in gb.polynomials:
        if all(all(e == 0 for i, e in enumerate(m) if i != last) for m in p.terms):
            if eliminant is None or p.total_degree() < eliminant.total_degree():
                eliminant = p
    if eliminant is None:
        return [], False
    coeffs = [Fraction(0)] * (eliminant.total_degree() + 1)
    for m, c in eliminant.terms.items():
        coeffs[m[last]] = c
    roots, complete = _rational_roots(coeffs)
    points = []
    for r, _mult in roots:
        sub = [g.eliminate({last: r}) for g in gens]
        sub_points, sub_complete = _solve_zero_dimensional(
            sub, variables[:-1], spair_budget)
        complete = complete and sub_complete
        points.extend(pt + (r,) for pt in sub_points)
    return points, complete


def _projective_points(gens, variables, spair_budget):
    # cell decomposition: first nonzero coordinate set to 1, earlier ones to 0
    pts = []
    complete = True
    for i in range(len(variables)):
        assignments = {j: Fraction(0) for j in range(i)}
        assignments[i] = Fraction(1)
        sub = [g.eliminate(assignments) for g in gens]
        sols, comp = _solve_zero_dimensional(sub, variables[i + 1:], spair_budget)
        complete = complete and comp
        for s in sols:
            coords = (Fraction(0),) * i + (Fraction(1),) + s
            pts.append(ProjectivePoint.from_fractions(coords))
    pts.sort(key=lambda p: p.coords)
    return pts, complete


def point_label(point):
    """Report label of a point: [a:b:c] when projective, (a, b) when affine."""
    if isinstance(point, ProjectivePoint):
        return str(point)
    return "(" + ", ".join(str(c) for c in point) + ")"


def chart_matrix(model, point):
    """The model matrix rewritten in the germ chart centered at a point.

    Projective points are dehomogenized at their first nonzero coordinate and
    then translated to the origin; affine points are translated directly.
    Equal entries are rewritten once.
    """
    if model.ambient.kind == PROJECTIVE:
        pt = point if isinstance(point, ProjectivePoint) else ProjectivePoint.from_fractions(point)
        if len(pt.coords) != len(model.variables):
            raise ValueError("point length does not match the variable count")
        i = pt.chart_index()
        denom = pt.coords[i]
        offsets = [Fraction(c, denom) for j, c in enumerate(pt.coords) if j != i]

        def rewrite(e):
            return e.eliminate({i: 1}).shift(offsets)
    else:
        offsets = [Fraction(x) for x in point]
        if len(offsets) != len(model.variables):
            raise ValueError("point length does not match the variable count")

        def rewrite(e):
            return e.shift(offsets)
    entries = model.matrix.entries
    charted = {e: rewrite(e) for e in {e for row in entries for e in row}}
    return PolyMatrix([[charted[e] for e in row] for row in entries])


def chart_ideal(model, point):
    """Minors ideal in the germ chart at a point, coordinates centered there."""
    m = chart_matrix(model, point)
    return Ideal(m.variables, minors(m, model.t))


def lower_stratum_points(model, spair_budget):
    """Rational points of the rank <= t - 2 stratum, the singular locus.

    Returns (points, exact, dim_low), where dim_low is the ideal dimension of
    the (t - 1)-minors ideal.  The points are enumerated when that stratum is
    finite (dim_low <= 1 for a projective cone, 0 in affine mode), sorted, as
    ProjectivePoints or affine tuples.  exact is False when non-rational or
    infinitely many points may be missing from the list.
    """
    projective = model.ambient.kind == PROJECTIVE
    lower_gens = lower_locus_generators(model.matrix, model.t)
    gb_low = buchberger(Ideal(model.variables, lower_gens), GREVLEX, spair_budget)
    dim_low = ideal_dimension(gb_low)
    if projective and 0 <= dim_low <= 1:
        points, exact = _projective_points(lower_gens, model.variables,
                                           spair_budget)
        return tuple(points), exact, dim_low
    if not projective and dim_low == 0:
        points, exact = _solve_zero_dimensional(lower_gens, model.variables,
                                                spair_budget)
        return tuple(sorted(points)), exact, dim_low
    return (), dim_low <= (1 if projective else 0), dim_low


def classify(model, spair_budget=DEFAULT_SPAIR_BUDGET):
    """Classify the variety of the model and the germ type at its singularities.

    Codimension is the variable count of the affine reading minus the ideal
    dimension of the rank ideal; the model is called determinantal when that
    matches the expected codimension (n - t + 1)(p - t + 1).  The singular
    locus is the rank <= t - 2 stratum.  The singularity is isolated when the
    locus is empty or consists of finitely many points, whose rational members
    are enumerated exactly when every eliminant splits over the rationals.
    Each singular point's chart ideal must be weighted-homogeneous for
    symbolic local computations; otherwise `local_supported` is False.
    `rank_basis` is the reduced grevlex basis of the t-minors ideal.
    """
    if not any(e for row in model.matrix.entries for e in row):
        raise ValueError("classification requires a nonzero matrix")
    projective = model.ambient.kind == PROJECTIVE
    notes = []
    nvars = len(model.variables)
    gb_t = buchberger(minors_ideal(model, model.t), GREVLEX, spair_budget)
    dim_t = ideal_dimension(gb_t)
    smoothable = model.smoothable_type()
    dimension = dim_t - 1 if projective else dim_t
    if dimension < 0:
        notes.append("the variety is empty")
        return GermClassification(
            empty=True, codimension=None, dimension=None, determinantal=False,
            isolated_singularity=True, smoothable=smoothable,
            singular_points=(), singular_points_exact=True,
            singular_locus_dimension=None, local_supported=True,
            notes=tuple(notes), rank_basis=gb_t)
    codim = nvars - dim_t
    determinantal = codim == model.expected_codimension()
    points, exact, dim_low = lower_stratum_points(model, spair_budget)
    isolated = dim_low <= (1 if projective else 0)
    if not exact:
        notes.append("singular locus is not a finite set of rational points; "
                     "points are reported symbolically by the lower rank ideal")
    local_supported = True
    for pt in points:
        chart = chart_ideal(model, pt)
        if not chart.generators:
            continue
        if quasi_homogeneous_weights(chart.generators) is None:
            local_supported = False
            notes.append(f"chart ideal at {point_label(pt)} is not "
                         "weighted-homogeneous; symbolic local computations "
                         "are unsupported")
    return GermClassification(
        empty=False, codimension=codim, dimension=dimension,
        determinantal=determinantal, isolated_singularity=isolated,
        smoothable=smoothable, singular_points=points,
        singular_points_exact=exact, singular_locus_dimension=dim_low,
        local_supported=local_supported, notes=tuple(notes), rank_basis=gb_t)
