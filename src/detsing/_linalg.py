"""Exact linear algebra over the rationals (internal helpers).

A rational is an `int` when it is integral and a `Fraction` otherwise, so
integer arithmetic stays on plain ints.  `div` is the one place where a
quotient is formed: `1 / lc` with an `int` `lc` would be a float.
"""

from fractions import Fraction


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


def row_basis(rows):
    """Basis of the row space: the nonzero rows of the reduced echelon form.

    The reduced echelon form depends only on the row space, so neither the
    order of `rows` nor repeated or dependent rows change the result.
    """
    mat = [[exact(x) for x in row] for row in rows]
    if not mat or not mat[0]:
        return []
    ncols = len(mat[0])
    rank = 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, len(mat)):
            if mat[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        piv = mat[rank][col]
        if piv != 1:
            mat[rank] = [div(x, piv) for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                f = mat[r][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
        if rank == len(mat):
            break
    return mat[:rank]


def rational_rank(rows):
    """Rank of a matrix given as an iterable of rows of rationals."""
    return len(row_basis(rows))


def nonnegative_kernel_vector(rows, n):
    """A rational w >= 0 with sum(w) = 1 and row.w = 0 for every row, or None.

    Phase-one simplex with Bland's rule, so the search is exact and always
    terminates.  The returned vector is a vertex of the feasible polytope.
    """
    if n == 0:
        return None
    cons = [[exact(x) for x in row] for row in rows]
    for row in cons:
        if len(row) != n:
            raise ValueError("constraint row length mismatch")
    cons.append([1] * n)
    m = len(cons)
    rhs = [0] * (m - 1) + [1]
    # tableau columns: n structural, m artificial, then the right-hand side
    tab = []
    for i in range(m):
        row = cons[i][:]
        if rhs[i] < 0:
            row = [-x for x in row]
            rhs[i] = -rhs[i]
        row += [int(i == j) for j in range(m)]
        row.append(rhs[i])
        tab.append(row)
    basis = [n + i for i in range(m)]
    width = n + m
    # phase-one objective: minimize the sum of artificials
    obj = [0] * (width + 1)
    for i in range(m):
        for j in range(width + 1):
            obj[j] += tab[i][j]
    for i in range(m):
        obj[n + i] -= 1
    while True:
        enter = None
        for j in range(width):
            if obj[j] > 0:
                enter = j
                break
        if enter is None:
            break
        leave = None
        best = None
        for i in range(m):
            if tab[i][enter] > 0:
                ratio = div(tab[i][width], tab[i][enter])
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            return None
        piv = tab[leave][enter]
        if piv != 1:
            tab[leave] = [div(x, piv) for x in tab[leave]]
        for i in range(m):
            if i != leave and tab[i][enter]:
                f = tab[i][enter]
                tab[i] = [a - f * b for a, b in zip(tab[i], tab[leave])]
        f = obj[enter]
        if f:
            obj = [a - f * b for a, b in zip(obj, tab[leave])]
        basis[leave] = enter
    if obj[width] != 0:
        return None
    w = [0] * n
    for i in range(m):
        if basis[i] < n:
            w[basis[i]] = tab[i][width]
    return w
