"""Index formulas for 1-forms on varieties with isolated singularities.

The pieces: radial-to-obstruction index conversions, the per-singularity
defect term entering the global index identity, a one-unknown solver over the
global ledger, algebraic indices at smooth isolated zeros, and diagonal
torus-weight forms with their coordinate fixed points.

Singular-point obstruction indices are never derived symbolically here; they
are either input data or the single unknown the identity is solved for.
"""

from __future__ import annotations

from dataclasses import dataclass

from .detvar import OUTSIDE, PROJECTIVE, ProjectivePoint, is_point_on_variety
from .grobner import (DEFAULT_SPAIR_BUDGET, GREVLEX, Ideal, buchberger,
                      normal_form, quasi_homogeneous_weights,
                      quotient_dimension)
from .polyalg import Polynomial, minors
from .topo import MilnorData, chi_smoothing

ROLE_VARIETY_SINGULARITY = "variety_singularity"
ROLE_SMOOTH_FORM_POINT = "form_singularity_smooth_point"

VERIFIED = "verified"
VIOLATED = "violated"
SOLVED = "solved"


class LedgerError(ValueError):
    """The ledger is inconsistent or underdetermined."""


class UnsupportedLocalStructureError(ValueError):
    """The germ falls outside what the symbolic engine can treat."""


class NonIsolatedZeroError(ValueError):
    """The 1-form vanishes on a positive-dimensional set."""


@dataclass(frozen=True)
class SingularPointRecord:
    """Local invariants of one isolated singular point.

    The germ is the rank < t locus of an n x p matrix and d is its dimension.
    chi_smoothing is the Euler characteristic of the essential smoothing;
    chi_lower_stratum is that of the rank < t - 1 stratum inside the
    smoothing, needed only when the germ is not smoothable.
    """

    point: str
    n: int
    p: int
    t: int
    d: int
    smoothable: bool
    mu: int | None = None
    chi_smoothing: int | None = None
    chi_lower_stratum: int | None = None

    def __post_init__(self):
        if not 1 <= self.t <= min(self.n, self.p):
            raise LedgerError(f"record at {self.point}: t must lie in [1, min(n, p)]")
        codim = (self.n - self.t + 1) * (self.p - self.t + 1)
        if codim != 2:
            raise LedgerError(
                f"record at {self.point}: expected codimension is {codim}, "
                "but the index formulas cover codimension 2 only")
        if self.d < 1:
            raise LedgerError(f"record at {self.point}: d must be positive")
        bound = (self.n - self.t + 2) * (self.p - self.t + 2)
        if self.smoothable != (self.d + 2 < bound):
            raise LedgerError(
                f"record at {self.point}: smoothable flag contradicts the "
                f"dimension bound {self.d + 2} < {bound}")
        if self.mu is not None and self.mu < 0:
            raise LedgerError(f"record at {self.point}: mu must be non-negative")
        derived = self._chi_from_mu()
        if (self.chi_smoothing is not None and derived is not None
                and self.chi_smoothing != derived):
            raise LedgerError(
                f"record at {self.point}: chi_smoothing {self.chi_smoothing} "
                f"contradicts the value {derived} implied by mu")

    def _chi_from_mu(self):
        # the bouquet description needs 2p > r = d + 2
        if (self.smoothable and self.mu is not None and self.d in (2, 3)
                and 2 * self.p > self.d + 2):
            return chi_smoothing(MilnorData(d=self.d, mu=self.mu))
        return None

    def resolved_chi_smoothing(self):
        """Explicit chi of the smoothing, or the value derived from mu."""
        if self.chi_smoothing is not None:
            return self.chi_smoothing
        return self._chi_from_mu()

    def mu_linked(self):
        """Whether the defect is an affine function of a still-unknown mu."""
        return (self.smoothable and self.d in (2, 3)
                and 2 * self.p > self.d + 2)


def defect(record):
    """Per-point correction term on the right side of the global identity.

    Smoothable germs contribute 1 + (-1)^d (chi_smoothing - 1); nonsmoothable
    germs add the lower-stratum term
    (-1)^(n + p + 1) (p - t + 1) chi_lower_stratum.
    """
    chi = record.resolved_chi_smoothing()
    if chi is None:
        raise LedgerError(
            f"record at {record.point}: chi_smoothing is undetermined "
            "(supply it, or mu for a smoothable germ of dimension 2 or 3)")
    value = 1 + (-1) ** record.d * (chi - 1)
    if not record.smoothable:
        if record.chi_lower_stratum is None:
            raise LedgerError(
                f"record at {record.point}: nonsmoothable germs need "
                "chi_lower_stratum")
        sign = (-1) ** (record.n + record.p + 1)
        value += sign * (record.p - record.t + 1) * record.chi_lower_stratum
    return value


def defect_known(record):
    try:
        defect(record)
    except LedgerError:
        return False
    return True


@dataclass(frozen=True)
class RadialDecomposition:
    """Indices of the comparison form at its zeros inside the collar."""

    inner_indices: tuple

    def __init__(self, inner_indices=()):
        object.__setattr__(self, "inner_indices",
                           tuple(int(i) for i in inner_indices))

    @property
    def count(self):
        return len(self.inner_indices)


def radial_from_decomposition(decomposition):
    """Radial index: 1 plus the indices collected in the decomposition."""
    return 1 + sum(decomposition.inner_indices)


def phn_from_radial(radial_index, d, chi_smoothing_value):
    """Obstruction index from the radial index, smoothable case."""
    return radial_index + (-1) ** d * (chi_smoothing_value - 1)


def phn_from_radial_nonsmoothable(radial_index, record):
    """Obstruction index from the radial index with the lower-stratum term."""
    if record.smoothable:
        raise LedgerError(
            f"record at {record.point} is smoothable; no lower-stratum "
            "correction applies")
    return radial_index - 1 + defect(record)


@dataclass(frozen=True)
class LedgerEntry:
    """One zero of the global 1-form; index None marks it as the unknown."""

    point: str
    role: str
    index: int | None = None

    def __post_init__(self):
        if self.role not in (ROLE_VARIETY_SINGULARITY, ROLE_SMOOTH_FORM_POINT):
            raise LedgerError(f"unknown ledger role {self.role!r}")


@dataclass(frozen=True)
class IndexLedger:
    entries: tuple
    chi_x: int | None = None

    def __init__(self, entries, chi_x=None):
        object.__setattr__(self, "entries", tuple(entries))
        object.__setattr__(self, "chi_x", chi_x)


@dataclass(frozen=True)
class IdentityResult:
    status: str
    lhs: int | None = None
    rhs: int | None = None
    name: str | None = None
    value: int | None = None


def global_identity(ledger, records):
    """Check or solve: sum of indices = chi(X) + sum of defects.

    At most one quantity may be unknown: a single entry index, chi(X), or the
    mu of a single record (smoothable, dimension 2 or 3).  With no unknowns
    the identity is checked; with one unknown it is solved exactly, every
    term entering with integer coefficients.
    """
    entries = tuple(ledger.entries)
    records = tuple(records)
    seen = set()
    for entry in entries:
        if entry.point in seen:
            raise LedgerError(f"duplicate ledger point {entry.point}")
        seen.add(entry.point)
    record_points = [r.point for r in records]
    if len(set(record_points)) != len(record_points):
        raise LedgerError("duplicate singular point records")
    singular_entries = {e.point for e in entries
                        if e.role == ROLE_VARIETY_SINGULARITY}
    if singular_entries != set(record_points):
        raise LedgerError(
            "variety singularities in the ledger and the record list must "
            "name the same points")
    if len({(r.n, r.p, r.t) for r in records}) > 1:
        raise LedgerError("records must share one matrix type (n, p, t)")
    if len({r.d for r in records}) > 1:
        raise LedgerError("records must share one germ dimension d")

    open_entries = [e for e in entries if e.index is None]
    open_records = [r for r in records if not defect_known(r)]
    unknown_count = (len(open_entries) + len(open_records)
                     + (1 if ledger.chi_x is None else 0))
    if unknown_count > 1:
        raise LedgerError(
            f"{unknown_count} unknowns; the identity can absorb only one")
    for record in open_records:
        if not (record.mu is None and record.chi_smoothing is None
                and record.mu_linked()):
            raise LedgerError(
                f"record at {record.point}: the defect is not a function of "
                "one unknown")

    index_sum = sum(e.index for e in entries if e.index is not None)
    defect_sum = sum(defect(r) for r in records if defect_known(r))

    if unknown_count == 0:
        rhs = ledger.chi_x + defect_sum
        status = VERIFIED if index_sum == rhs else VIOLATED
        return IdentityResult(status, lhs=index_sum, rhs=rhs)
    if open_entries:
        value = ledger.chi_x + defect_sum - index_sum
        return IdentityResult(SOLVED, lhs=index_sum + value,
                              rhs=ledger.chi_x + defect_sum,
                              name=f"index@{open_entries[0].point}",
                              value=value)
    if ledger.chi_x is None:
        value = index_sum - defect_sum
        return IdentityResult(SOLVED, lhs=index_sum, rhs=value + defect_sum,
                              name="chi_X", value=value)
    record = open_records[0]
    unknown_defect = index_sum - ledger.chi_x - defect_sum
    # d = 2: defect = 1 + mu; d = 3: defect = mu
    mu = unknown_defect - (1 if record.d == 2 else 0)
    if mu < 0:
        raise LedgerError(
            f"record at {record.point}: the identity forces mu = {mu} < 0")
    return IdentityResult(SOLVED, lhs=index_sum,
                          rhs=ledger.chi_x + defect_sum + unknown_defect,
                          name=f"mu@{record.point}", value=mu)


def smooth_zero_index(coefficients, spair_budget=DEFAULT_SPAIR_BUDGET):
    """Index of a 1-form at an isolated zero at the origin of a smooth chart.

    The form is given by one coefficient polynomial per chart variable and
    the index is the vector-space dimension of the quotient by the
    coefficient ideal.  Coefficients must be weighted-homogeneous (the basis
    computation is global) and the origin must be the only zero.
    """
    coefficients = list(coefficients)
    if not coefficients:
        raise ValueError("the form needs at least one coefficient")
    variables = coefficients[0].variables
    if len(coefficients) != len(variables):
        raise ValueError("the form needs one coefficient per chart variable")
    nonzero = [c for c in coefficients if c]
    if nonzero and quasi_homogeneous_weights(nonzero) is None:
        raise UnsupportedLocalStructureError(
            "form coefficients are not weighted-homogeneous; only graded "
            "germs are computed symbolically")
    basis = buchberger(Ideal(variables, coefficients), GREVLEX, spair_budget)
    dim = quotient_dimension(basis)
    if dim is None:
        raise NonIsolatedZeroError(
            "the form vanishes on a positive-dimensional set")
    for name in variables:
        power = Polynomial.variable(variables, name) ** dim
        if normal_form(power, basis):
            raise UnsupportedLocalStructureError(
                f"the form vanishes away from the origin: {name} is not "
                "nilpotent modulo the coefficient ideal")
    return dim


@dataclass(frozen=True)
class CStarForm:
    """Diagonal torus-weight form: weight w_j on homogeneous coordinate j."""

    weights: tuple

    def __init__(self, weights):
        ws = tuple(int(w) for w in weights)
        if len(set(ws)) != len(ws):
            raise ValueError("torus weights must be pairwise distinct; "
                             "repeated weights give a non-isolated fixed locus")
        object.__setattr__(self, "weights", ws)


def cstar_fixed_points(model, weights, rank_basis):
    """Coordinate fixed points of the weight action that lie on the variety.

    The weights must be pairwise distinct so the fixed points are exactly the
    coordinate points.  The action must preserve the variety; this is checked
    exactly by reducing every graded component of every defining minor
    against rank_basis, the reduced basis of the t-minors ideal
    (`classify(model).rank_basis`).  Distinct weights also make every chart
    weight difference nonzero, so a fixed point in the smooth stratum is a
    simple zero of the induced form and its index is 1.  Returns
    (point, location) pairs in coordinate order.
    """
    if model.ambient.kind != PROJECTIVE:
        raise ValueError("torus fixed points are computed in projective mode only")
    form = weights if isinstance(weights, CStarForm) else CStarForm(weights)
    if len(form.weights) != len(model.variables):
        raise ValueError("one weight per homogeneous coordinate is required")
    for gen in minors(model.matrix, model.t):
        for part in gen.weight_components(form.weights).values():
            if normal_form(part, rank_basis):
                raise ValueError("the weight action does not preserve the variety")
    out = []
    count = len(model.variables)
    for j in range(count):
        coords = [0] * count
        coords[j] = 1
        point = ProjectivePoint(coords)
        location = is_point_on_variety(model, point)
        if location.kind != OUTSIDE:
            out.append((point, location))
    return out
