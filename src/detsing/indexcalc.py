"""Index formulas for 1-forms on varieties with isolated singularities.

The pieces: radial-to-obstruction index conversions, the per-singularity
defect term entering the global index identity, a one-unknown solver over the
global ledger, and the coordinate fixed points of a diagonal torus-weight
form.

Singular-point obstruction indices are never derived symbolically here; they
are either input data or the single unknown the identity is solved for.
"""

from ._linalg import row_basis
from .detvar import OUTSIDE, PROJECTIVE, ProjectivePoint, is_point_on_variety
# unused here; perfbench wraps this binding, and perfbench/test_perfbench.py::
# test_wrappers_cover_every_binding_and_are_removed asserts it
from .grobner import buchberger  # noqa: F401
from .polyalg import minors
from .topo import MilnorData, chi_smoothing

VERIFIED = "verified"
VIOLATED = "violated"
SOLVED = "solved"


class LedgerError(ValueError):
    """The ledger is inconsistent, underdetermined or outside the identity's scope."""


def _integers(where, values, optional=False):
    # `type(...) is` keeps a bool from passing as an integer
    for name, value in values:
        if type(value) is not int and not (optional and value is None):
            raise LedgerError(f"{where}: {name} must be an integer")


class SingularPointRecord:
    """Local invariants of one isolated singular point, and the form's index there.

    The germ is the rank < t locus of an n x p matrix and d is its dimension.
    chi_smoothing is the Euler characteristic of the essential smoothing;
    chi_lower_stratum is that of the rank < t - 1 stratum inside the
    smoothing, needed only when the germ is not smoothable.  index is the
    obstruction index of the 1-form at the point; None marks it as the
    unknown of the global identity.
    """

    __slots__ = ("point", "n", "p", "t", "d", "smoothable", "mu",
                 "chi_smoothing", "chi_lower_stratum", "index")

    def __init__(self, point, n, p, t, d, smoothable, mu=None,
                 chi_smoothing=None, chi_lower_stratum=None, index=None):
        where = f"record at {point}"
        _integers(where, (("n", n), ("p", p), ("t", t), ("d", d)))
        _integers(where, (("mu", mu), ("chi_smoothing", chi_smoothing),
                          ("chi_lower_stratum", chi_lower_stratum),
                          ("index", index)), optional=True)
        if type(smoothable) is not bool:
            raise LedgerError(f"{where}: smoothable must be a boolean")
        if not 1 <= t <= min(n, p):
            raise LedgerError(f"record at {point}: t must lie in [1, min(n, p)]")
        codim = (n - t + 1) * (p - t + 1)
        if codim != 2:
            raise LedgerError(
                f"record at {point}: expected codimension is {codim}, "
                "but the index formulas cover codimension 2 only")
        if d < 1:
            raise LedgerError(f"record at {point}: d must be positive")
        bound = (n - t + 2) * (p - t + 2)
        if smoothable != (d + 2 < bound):
            raise LedgerError(
                f"record at {point}: smoothable flag contradicts the "
                f"dimension bound {d + 2} < {bound}")
        if mu is not None and mu < 0:
            raise LedgerError(f"record at {point}: mu must be non-negative")
        self.point = point
        self.n = n
        self.p = p
        self.t = t
        self.d = d
        self.smoothable = smoothable
        self.mu = mu
        self.chi_smoothing = chi_smoothing
        self.chi_lower_stratum = chi_lower_stratum
        self.index = index
        derived = self._chi_from_mu()
        if (chi_smoothing is not None and derived is not None
                and chi_smoothing != derived):
            raise LedgerError(
                f"record at {point}: chi_smoothing {chi_smoothing} "
                f"contradicts the value {derived} implied by mu")

    def _chi_from_mu(self):
        if self.mu is not None and self.mu_linked():
            return chi_smoothing(MilnorData(d=self.d, mu=self.mu))
        return None

    def resolved_chi_smoothing(self):
        """Explicit chi of the smoothing, or the value derived from mu."""
        if self.chi_smoothing is not None:
            return self.chi_smoothing
        return self._chi_from_mu()

    def mu_linked(self):
        """Whether the defect is an affine function of a still-unknown mu."""
        # the bouquet description needs 2p > r = d + 2
        return (self.smoothable and self.d in (2, 3)
                and 2 * self.p > self.d + 2)


def defect(record):
    """Per-point correction term on the right side of the global identity.

    Smoothable germs contribute 1 + (-1)^d (chi_smoothing - 1), the
    obstruction index of a radial index 1; nonsmoothable germs add the
    lower-stratum term
    (-1)^(n + p + 1) (p - t + 1) chi_lower_stratum.
    """
    chi = record.resolved_chi_smoothing()
    if chi is None:
        raise LedgerError(
            f"record at {record.point}: chi_smoothing is undetermined "
            "(supply it, or mu for a smoothable germ of dimension 2 or 3)")
    value = phn_from_radial(1, record.d, chi)
    if not record.smoothable:
        if record.chi_lower_stratum is None:
            raise LedgerError(
                f"record at {record.point}: nonsmoothable germs need "
                "chi_lower_stratum")
        sign = (-1) ** (record.n + record.p + 1)
        value += sign * (record.p - record.t + 1) * record.chi_lower_stratum
    return value


def known_defect(record):
    """The record's `defect`, or None where `defect` raises LedgerError."""
    try:
        return defect(record)
    except LedgerError:
        return None


def phn_from_radial(radial_index, d, chi_smoothing_value):
    """Obstruction index from the radial index, smoothable case.

    Every argument is an int; a bool, a float or a str raises LedgerError.
    """
    _integers("phn_from_radial", (("radial_index", radial_index), ("d", d),
                                  ("chi_smoothing_value", chi_smoothing_value)))
    return radial_index + (-1) ** d * (chi_smoothing_value - 1)


def phn_from_radial_nonsmoothable(radial_index, record):
    """Obstruction index from the radial index with the lower-stratum term.

    The nonsmoothable counterpart of `phn_from_radial`, the bridge that
    `tests/test_indexcalc.py::TestRadialBridge::test_nonsmoothable_bridge`
    checks: a radial index of 1 gives the defect of the record,
    lower-stratum term included.  Nothing in the command line
    calls it; it stays as the formula of the source paper for germs past
    the smoothability bound.  A `radial_index` that is not an int raises
    LedgerError.
    """
    _integers("phn_from_radial_nonsmoothable", (("radial_index", radial_index),))
    if record.smoothable:
        raise LedgerError(
            f"record at {record.point} is smoothable; no lower-stratum "
            "correction applies")
    return radial_index - 1 + defect(record)


class IdentityResult:
    """Status and both sides of the identity, with a solved unknown's name and value."""

    __slots__ = ("status", "lhs", "rhs", "name", "value")

    def __init__(self, status, lhs=None, rhs=None, name=None, value=None):
        self.status = status
        self.lhs = lhs
        self.rhs = rhs
        self.name = name
        self.value = value

    def __eq__(self, other):
        if not isinstance(other, IdentityResult):
            return NotImplemented
        return ((self.status, self.lhs, self.rhs, self.name, self.value)
                == (other.status, other.lhs, other.rhs, other.name, other.value))


def global_identity(records, smooth, chi_x):
    """Check or solve: sum of indices = chi(X) + sum of defects.

    `records` are the singular points, each with its index; `smooth` maps
    the label of each zero of the form in the smooth stratum to its index.
    An index or chi_x of None marks that quantity as the unknown.  At most
    one quantity may be unknown: a single index, chi(X), or the mu of a
    single record (smoothable, dimension 2 or 3).  With no unknowns the
    identity is checked; with one unknown it is solved exactly, every term
    entering with integer coefficients.
    """
    _integers("ledger", (("chi_x", chi_x),
                         *((f"index@{label}", index)
                           for label, index in smooth.items())), optional=True)
    records = tuple(records)
    # every zero's index, the records' before the smooth zeros'
    indices = {r.point: r.index for r in records}
    if len(indices) != len(records):
        raise LedgerError("duplicate singular point records")
    for label, index in smooth.items():
        if label in indices:
            raise LedgerError(f"duplicate ledger point {label}")
        indices[label] = index
    if len({(r.n, r.p, r.t) for r in records}) > 1:
        raise LedgerError("records must share one matrix type (n, p, t)")
    if len({r.d for r in records}) > 1:
        raise LedgerError("records must share one germ dimension d")

    open_points = [point for point, index in indices.items() if index is None]
    defects = [known_defect(r) for r in records]
    open_records = [r for r, v in zip(records, defects) if v is None]
    unknown_count = (len(open_points) + len(open_records)
                     + (1 if chi_x is None else 0))
    if unknown_count > 1:
        raise LedgerError(
            f"{unknown_count} unknowns; the identity can absorb only one")
    for record in open_records:
        if not (record.mu is None and record.chi_smoothing is None
                and record.mu_linked()):
            raise LedgerError(
                f"record at {record.point}: the defect is not a function of "
                "one unknown")

    index_sum = sum(index for index in indices.values() if index is not None)
    defect_sum = sum(v for v in defects if v is not None)

    if unknown_count == 0:
        rhs = chi_x + defect_sum
        status = VERIFIED if index_sum == rhs else VIOLATED
        return IdentityResult(status, lhs=index_sum, rhs=rhs)
    # the unknown balances the identity, so both sides equal the total of
    # the side that holds no unknown
    total = chi_x + defect_sum if open_points else index_sum
    if open_points:
        name, value = f"index@{open_points[0]}", total - index_sum
    elif chi_x is None:
        name, value = "chi_X", total - defect_sum
    else:
        record = open_records[0]
        # d = 2: defect = 1 + mu; d = 3: defect = mu
        value = total - chi_x - defect_sum - (1 if record.d == 2 else 0)
        if value < 0:
            raise LedgerError(
                f"record at {record.point}: the identity forces mu = {value} < 0")
        name = f"mu@{record.point}"
    return IdentityResult(SOLVED, lhs=total, rhs=total, name=name, value=value)


def cstar_fixed_points(model, weights):
    """Coordinate fixed points of the weight action that lie on the variety.

    `weights` holds one integer per homogeneous coordinate.  They must be
    pairwise distinct so the fixed points are exactly the coordinate points.
    The action must preserve the variety; this is checked exactly: every
    weight component of every t-minor must lie in the t-minors ideal.  A
    minor with one component is that component, so it lies there as it is.
    The entries are forms of one degree e, so every nonzero t-minor, and
    each of its components, is a form of degree t * e, and a form of that
    degree lies in the ideal exactly when it is a rational combination of
    the t-minors (the degree-(t * e) part of an ideal generated in that
    degree; Cox, Little & O'Shea, *Ideals, Varieties, and Algorithms*,
    ch. 8).  Only when some minor splits are the coefficient rows of the
    nonzero minors and of their components built, and the components must
    not raise the rank of the minors' rows; no Groebner basis is built.
    Distinct weights also make every chart weight difference nonzero, so a
    fixed point in the smooth stratum is a simple zero of the induced form
    and its index is 1.  Returns (point, kind) pairs in coordinate order,
    the kind being the stratum `is_point_on_variety` gives.  A weight that
    is not an int, such as 0.5, raises TypeError, also where every t-minor
    is 0.
    """
    if model.ambient.kind != PROJECTIVE:
        raise ValueError("torus fixed points are computed in projective mode only")
    if len(set(weights)) != len(weights):
        raise ValueError("torus weights must be pairwise distinct; "
                         "repeated weights give a non-isolated fixed locus")
    if len(weights) != len(model.variables):
        raise ValueError("one weight per homogeneous coordinate is required")
    gens = minors(model.matrix, model.t)
    # every minor, a zero one too, is split, so a float weight always raises
    parts = [gen.weight_components(weights).values() for gen in gens]
    if any(len(p) > 1 for p in parts):
        # a zero minor has no monomial, and a component's are its minor's
        columns = {m: None for gen in gens for m in gen.terms}
        rows = [[gen.terms.get(m, 0) for m in columns] for gen in gens if gen]
        extra = [[c.terms.get(m, 0) for m in columns] for p in parts for c in p]
        if len(row_basis(rows + extra)) > len(row_basis(rows)):
            raise ValueError("the weight action does not preserve the variety")
    out = []
    count = len(model.variables)
    for j in range(count):
        coords = [0] * count
        coords[j] = 1
        point = ProjectivePoint(coords)
        kind = is_point_on_variety(model, point)
        if kind != OUTSIDE:
            out.append((point, kind))
    return out
