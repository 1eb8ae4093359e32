"""Euler characteristic bookkeeping for smoothings of determinantal germs."""

from operator import index


class UnsupportedDimensionError(ValueError):
    """The requested formula is only available in dimensions 2 and 3."""


class CWDescriptor:
    """Finite CW complex given by cell counts per dimension."""

    __slots__ = ("cell_counts",)

    def __init__(self, cell_counts):
        counts = tuple(index(c) for c in cell_counts)
        if any(c < 0 for c in counts):
            raise ValueError("cell counts must be non-negative")
        self.cell_counts = counts


class BouquetDescriptor:
    """Wedge of spheres of positive dimensions (empty means a point)."""

    __slots__ = ("sphere_dimensions",)

    def __init__(self, sphere_dimensions):
        dims = tuple(sorted(index(d) for d in sphere_dimensions))
        if any(d < 1 for d in dims):
            raise ValueError("sphere dimensions must be positive")
        self.sphere_dimensions = dims


class MilnorData:
    """Local invariants of an isolated germ of dimension d.

    All fields except d are optional; m_d is the polar multiplicity in the
    germ's own dimension and mu_slice the Milnor number of a generic
    hyperplane slice.  For smoothable codimension two germs with d = 3 the
    second Betti number of the smoothing is 1, which is the default used by
    the consistency check.
    """

    __slots__ = ("d", "mu", "b2", "m_d", "mu_slice")

    def __init__(self, d, mu=None, b2=None, m_d=None, mu_slice=None):
        # `type(...) is` keeps a bool from passing as an integer
        if type(d) is not int or d < 1:
            raise ValueError("d must be a positive integer")
        for name, v in (("mu", mu), ("b2", b2), ("m_d", m_d),
                        ("mu_slice", mu_slice)):
            if v is not None and (type(v) is not int or v < 0):
                raise ValueError(f"{name} must be a non-negative integer")
        self.d = d
        self.mu = mu
        self.b2 = b2
        self.m_d = m_d
        self.mu_slice = mu_slice


def chi_cw(descriptor):
    """Alternating sum of cell counts."""
    return sum((-1) ** i * c for i, c in enumerate(descriptor.cell_counts))


def chi_bouquet(descriptor):
    """Euler characteristic of a wedge of spheres: 1 plus one (-1)^k per sphere."""
    return 1 + sum((-1) ** k for k in descriptor.sphere_dimensions)


def chi_smoothing(data):
    """Euler characteristic of the essential smoothing of a smoothable germ.

    Valid for smoothable codimension two germs whose smoothing is a sphere
    bouquet: 1 + mu for surfaces (d = 2), 2 - mu for threefolds (d = 3).
    Other dimensions raise UnsupportedDimensionError.
    """
    if data.d not in (2, 3):
        raise UnsupportedDimensionError(
            f"chi_smoothing supports d in {{2, 3}}, got d = {data.d}")
    if data.mu is None:
        raise ValueError("Milnor number required to evaluate chi_smoothing")
    if data.d == 2:
        return 1 + data.mu
    return 2 - data.mu


HOLDS = "holds"
VIOLATED = "violated"
INSUFFICIENT_DATA = "insufficient_data"


class LeGreuelResult:
    """Status of the polar multiplicity check, with m_d and the sum it should equal."""

    __slots__ = ("status", "lhs", "rhs")

    def __init__(self, status, lhs=None, rhs=None):
        self.status = status
        self.lhs = lhs
        self.rhs = rhs


def le_greuel_check(data):
    """Check the polar multiplicity identity for d = 2 or 3.

    Surfaces: m_2 = mu_slice + mu.  Threefolds: m_3 = mu_slice + mu + b2,
    with b2 defaulting to 1 when absent.  Missing fields, or a dimension
    outside {2, 3}, give insufficient_data instead of an error.
    """
    if data.d not in (2, 3):
        return LeGreuelResult(INSUFFICIENT_DATA)
    if data.m_d is None or data.mu_slice is None or data.mu is None:
        return LeGreuelResult(INSUFFICIENT_DATA)
    rhs = data.mu_slice + data.mu
    if data.d == 3:
        rhs += data.b2 if data.b2 is not None else 1
    if data.m_d == rhs:
        return LeGreuelResult(HOLDS, data.m_d, rhs)
    return LeGreuelResult(VIOLATED, data.m_d, rhs)
