"""Exact linear algebra over the rationals (internal helpers).

A rational is an `int` when it is integral and a `Fraction` otherwise, so
integer arithmetic stays on plain ints; the one exception is the entries
that `_pivot` clears, as its docstring says.  `div` is the one place where a
quotient is formed: `1 / lc` with an `int` `lc` would be a float.  `_pivot`
is the one elimination step, shared by `row_basis` and the simplex of
`nonnegative_kernel_vector`, and `primitive` the one rescaling of a
rational vector to integers.
"""

from fractions import Fraction
from math import gcd, lcm


def exact(x):
    """`x` as an `int` when it is integral, otherwise as a `Fraction`.

    Accepts ints and Fractions only; a float raises TypeError rather than
    entering the exact arithmetic as a binary approximation.
    """
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    raise TypeError(f"exact rational required, got {type(x).__name__}")


def div(a, b):
    """Exact quotient a / b: an `int` when integral, otherwise a `Fraction`."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    # a Fraction operand makes the quotient a Fraction
    return exact(a / b)


def primitive(values):
    """The integer multiple of a rational vector whose entries have gcd 1.

    `values` are ints and Fractions.  They are scaled by the lcm of their
    denominators and divided by the gcd of the result; signs are kept, and
    a zero vector stays zero.
    """
    scale = lcm(*(v.denominator for v in values))
    ints = [v.numerator * (scale // v.denominator) for v in values]
    g = gcd(*ints)
    return [x // g for x in ints] if g > 1 else ints


def _pivot(rows, r, c):
    """Gauss-Jordan step: row r scaled to 1 in column c, cleared elsewhere.

    A cleared row's `a - f * b` is not passed through `exact`, so an
    integral entry can stay a `Fraction`, such as `Fraction(0, 1)`.  Its
    callers, `row_basis` and the simplex, hand their rows on to callers that
    read only values, through `len` and `primitive`.
    """
    piv = rows[r][c]
    if piv != 1:
        rows[r] = [div(x, piv) for x in rows[r]]
    row = rows[r]
    for i, other in enumerate(rows):
        if i != r and other[c]:
            f = other[c]
            rows[i] = [a - f * b for a, b in zip(other, row)]


def row_basis(rows):
    """Basis of the row space: the nonzero rows of the reduced echelon form.

    The reduced echelon form depends only on the row space, so neither the
    order of `rows` nor repeated or dependent rows change the result.  The
    entries are exact rationals of equal-length rows, as the callers pass
    them: values of polynomials at a point, coefficients of forms, and
    integer exponent differences.  An integral entry of the result may be a
    `Fraction`, as `_pivot` leaves it: the callers read only values, through
    `len` (`polyalg.rank_at_point`, `indexcalc.cstar_fixed_points`) and,
    after the simplex, `primitive`.
    """
    mat = [list(row) for row in rows]
    if not mat or not mat[0]:
        return []
    rank = 0
    for col in range(len(mat[0])):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        _pivot(mat, rank, col)
        rank += 1
        if rank == len(mat):
            break
    return mat[:rank]


def nonnegative_kernel_vector(rows, n):
    """A rational w >= 0 with sum(w) = 1 and row.w = 0 for every row, or None.

    Phase-one simplex with Bland's rule, so the search is exact and always
    terminates.  The returned vector is a vertex of the feasible polytope.
    With n = 0 the row sum(w) = 1 reads 0 = 1, so the tableau returns None;
    the one caller, `grobner.quasi_homogeneous_weights`, returns () before
    it calls for no variables.  Phase one minimises the sum of the
    artificial variables, which is never negative, so the objective is
    bounded: a column that lowers it has a positive entry in some row, and
    the ratio test always has a row to pivot on.  `rows` hold n exact
    rationals each; the caller passes a `row_basis` of n-entry rows.
    """
    cons = [list(row) for row in rows]
    cons.append([1] * n)
    m = len(cons)
    # tableau columns: n structural, m artificial, then the right-hand side,
    # which is 0 for each kernel row and 1 for sum(w) = 1
    tab = [row + [int(i == j) for j in range(m)] + [int(i == m - 1)]
           for i, row in enumerate(cons)]
    # the last row is the phase-one objective, the sum of the artificials
    # in terms of the other columns: the column sums, with 0 in the
    # artificial columns
    tab.append([sum(col) for col in zip(*tab)])
    width = n + m
    tab[m][n:width] = [0] * m
    basis = list(range(n, width))
    while True:
        enter = next((j for j in range(width) if tab[m][j] > 0), None)
        if enter is None:
            break
        ratios = [(div(tab[i][width], tab[i][enter]), basis[i], i)
                  for i in range(m) if tab[i][enter] > 0]
        leave = min(ratios)[2]
        _pivot(tab, leave, enter)
        basis[leave] = enter
    if tab[m][width] != 0:
        return None
    w = [0] * n
    for i in range(m):
        if basis[i] < n:
            w[basis[i]] = tab[i][width]
    return w
