"""Exact multivariate polynomial arithmetic over the rationals.

Everything is immutable and exact: a coefficient is an `int` where it is
integral and a `fractions.Fraction` otherwise, monomials are plain tuples of
non-negative exponents aligned with an ordered variable list, and terms are
kept against a fixed graded reverse lexicographic order so printing is
deterministic.  Inputs (coefficients, points, offsets) are stored as ints
where integral, and sums and products of ints stay ints; a `Fraction` comes
only from a `Fraction` input or an exact division (`_linalg.div`).  Every
computed polynomial, a determinant included, is summed on plain term maps
and built by `_polynomial`, the one place that makes integral coefficients
ints.
"""

from fractions import Fraction
from itertools import combinations
from operator import add, neg

from . import _linalg
from ._linalg import exact


def _grevlex_key(exps):
    return (sum(exps), tuple(map(neg, reversed(exps))))


def _product(a, b):
    """The term map of the product of two term maps.

    Each cross term is formed once.  When `a` is `b`, of two terms or more,
    the product is a square: the terms' own squares, whose monomials 2m are
    distinct, then each pair of distinct terms once, doubled.  Coefficients are summed as
    they come, so a sum of Fractions may be integral; a zero sum is dropped.
    """
    square = a is b and len(a) > 1
    res = {tuple(map(add, m, m)): c * c for m, c in a.items()} if square else {}
    items = list(b.items())
    for ma, ca in a.items():
        if square:
            # this term with each later one, doubled
            ca, items = 2 * ca, items[1:]
        for mb, cb in items:
            m = tuple(map(add, ma, mb))
            s = res.get(m, 0) + ca * cb
            if s:
                res[m] = s
            else:
                del res[m]
    return res


def _power(terms, k, one):
    """The term map of terms^k, a fresh one, by repeated squaring; `one` is
    the zero exponent vector."""
    if k < 2:
        return dict(terms) if k else {one: 1}
    half = _power(terms, k >> 1, one)
    square = _product(half, half)
    return _product(square, terms) if k & 1 else square


def _add_into(terms, other, negate=False):
    """Add the term map `other`, or its negative, into `terms` in place; a
    zero sum is dropped."""
    for m, c in other.items():
        s = terms.get(m, 0) - c if negate else terms.get(m, 0) + c
        if s:
            terms[m] = s
        else:
            del terms[m]


def _polynomial(variables, terms):
    """The Polynomial of a computed term map, integral coefficients as ints.

    A sum of ints is an int and a Fraction makes it a Fraction, so one `sum`
    tells whether the map holds a Fraction, in C on an int map, the common
    case; only then does each coefficient go through `exact`.
    """
    if type(sum(terms.values())) is not int:
        terms = {m: exact(c) for m, c in terms.items()}
    return Polynomial._raw(variables, terms)


class ParseError(ValueError):
    """Rejected polynomial text; `position` is the 0-based offset."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class Polynomial:
    """Polynomial over an ordered variable list with rational coefficients.

    The `terms` map sends exponent tuples to nonzero coefficients, each an
    `int` or a `Fraction`, never a float.  Instances are value objects:
    arithmetic never mutates, equality and hashing follow the (variables,
    terms) content.
    """

    __slots__ = ("variables", "terms", "_hash")

    def __init__(self, variables, terms=None):
        self.variables = tuple(variables)
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("duplicate variable names")
        nv = len(self.variables)
        clean = {}
        for exps, coeff in (terms or {}).items():
            # an exponent is an int: a float or a bool raises TypeError, as
            # a float coefficient does in `exact`
            exps = tuple(exps)
            if any(type(e) is not int for e in exps):
                raise TypeError(f"integer exponents required, got {exps}")
            if len(exps) != nv:
                raise ValueError("exponent vector length mismatch")
            if any(e < 0 for e in exps):
                raise ValueError("negative exponent")
            c = exact(coeff)
            if c:
                clean[exps] = c
        self.terms = clean
        self._hash = None

    @classmethod
    def _raw(cls, variables, terms):
        p = object.__new__(cls)
        p.variables = variables
        p.terms = terms
        p._hash = None
        return p

    @classmethod
    def constant(cls, variables, value):
        c = exact(value)
        variables = tuple(variables)
        if not c:
            return cls._raw(variables, {})
        return cls._raw(variables, {(0,) * len(variables): c})

    @classmethod
    def variable(cls, variables, name):
        variables = tuple(variables)
        try:
            i = variables.index(name)
        except ValueError:
            raise ValueError(f"unknown variable {name!r}") from None
        exps = tuple(int(j == i) for j in range(len(variables)))
        return cls._raw(variables, {exps: 1})

    def _check(self, other):
        if self.variables != other.variables:
            raise ValueError("operands use different variable lists")

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial.constant(self.variables, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        self._check(other)
        res = dict(self.terms)
        _add_into(res, other.terms)
        return _polynomial(self.variables, res)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._raw(self.variables, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = exact(other)
            if not c:
                return Polynomial._raw(self.variables, {})
            return _polynomial(self.variables,
                               {m: c * v for m, v in self.terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        return _polynomial(self.variables, _product(self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, k):
        if type(k) is not int or k < 0:
            raise ValueError("exponent must be a non-negative integer")
        return _polynomial(self.variables,
                           _power(self.terms, k, (0,) * len(self.variables)))

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.variables, frozenset(self.terms.items())))
        return self._hash

    def __bool__(self):
        return bool(self.terms)

    def total_degree(self):
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def leading_monomial(self):
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=_grevlex_key)

    def evaluate(self, point):
        """Exact value at a rational point (one coordinate per variable), an
        `int` where it is integral."""
        point = [exact(x) for x in point]
        if len(point) != len(self.variables):
            raise ValueError(
                f"point has {len(point)} coordinates, expected {len(self.variables)}")
        total = 0
        for exps, c in self.terms.items():
            for x, e in zip(point, exps):
                if e:
                    c *= x ** e
            total += c
        return exact(total)

    def eliminate(self, assignments):
        """Substitute rational values for some variables and drop them.

        `assignments` maps variable indices to values; the result lives over
        the remaining variables, in their original order.  An index is an
        int: a float or a bool raises TypeError.
        """
        if any(type(i) is not int for i in assignments):
            raise TypeError(f"integer variable indices required, got {list(assignments)}")
        fixed = {i: exact(v) for i, v in assignments.items()}
        for i in fixed:
            if not 0 <= i < len(self.variables):
                raise IndexError("variable index out of range")
        keep = [i for i in range(len(self.variables)) if i not in fixed]
        new_vars = tuple(self.variables[i] for i in keep)
        res = {}
        for exps, c in self.terms.items():
            for i, val in fixed.items():
                e = exps[i]
                if e:
                    c *= val ** e
            if not c:
                continue
            m = tuple(exps[i] for i in keep)
            s = res.get(m, 0) + c
            if s:
                res[m] = s
            else:
                del res[m]
        return _polynomial(new_vars, res)

    def shift(self, offsets):
        """Translate coordinates: returns f(x0 + a0, x1 + a1, ...).

        A Taylor shift, one moved variable x_i at a time: the terms that
        agree off x_i form a column, a polynomial in x_i alone, whose dense
        coefficients are shifted by repeated synthetic division by
        (x_i - a_i), that is Horner's rule run once per degree.
        """
        offsets = [exact(a) for a in offsets]
        if len(offsets) != len(self.variables):
            raise ValueError("one offset per variable required")
        res = self.terms
        for i, a in enumerate(offsets):
            if not a:
                continue
            columns = {}
            for m, c in res.items():
                columns.setdefault(m[:i] + m[i + 1:], {})[m[i]] = c
            res = {}
            for rest, column in columns.items():
                d = max(column)
                cs = [column.get(k, 0) for k in range(d + 1)]
                for low in range(d):
                    for k in range(d - 1, low - 1, -1):
                        cs[k] += a * cs[k + 1]
                for k, c in enumerate(cs):
                    if c:
                        res[rest[:i] + (k,) + rest[i:]] = c
        if res is self.terms:
            return self
        return _polynomial(self.variables, res)

    def homogeneous_degree(self):
        """Common total degree of all terms, or None if mixed or zero."""
        degs = {sum(m) for m in self.terms}
        if len(degs) == 1:
            return degs.pop()
        return None

    def weight_components(self, weights):
        """Split into weighted-homogeneous parts, keyed by weighted degree.

        `weights` holds one int per variable; a float or a bool raises
        TypeError.
        """
        weights = tuple(weights)
        if any(type(w) is not int for w in weights):
            raise TypeError(f"integer weights required, got {weights}")
        if len(weights) != len(self.variables):
            raise ValueError("one weight per variable required")
        parts = {}
        for exps, c in self.terms.items():
            d = sum(w * e for w, e in zip(weights, exps))
            parts.setdefault(d, {})[exps] = c
        return {d: Polynomial._raw(self.variables, t) for d, t in sorted(parts.items())}

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exps in sorted(self.terms, key=_grevlex_key, reverse=True):
            c = self.terms[exps]
            mono = "*".join(
                v if e == 1 else f"{v}^{e}"
                for v, e in zip(self.variables, exps) if e)
            mag = abs(c)
            if mono:
                body = mono if mag == 1 else f"{mag}*{mono}"
            else:
                body = str(mag)
            if not parts:
                parts.append(f"-{body}" if c < 0 else body)
            else:
                parts.append(f"- {body}" if c < 0 else f"+ {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"Polynomial({str(self)!r})"


_OPERATORS = set("+-*^()")

# deepest parenthesis nesting the recursive-descent parser accepts; each
# level costs four Python frames, so this stays well inside the default
# recursion limit
MAX_NESTING = 100


def _tokenize(text):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        # ASCII digits only: str.isdigit also takes superscripts, circled
        # and Arabic-Indic digits
        if "0" <= ch <= "9":
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            try:
                value = int(text[i:j])
            except ValueError:
                # past the interpreter's limit on digits in int(str)
                raise ParseError(f"integer literal of {j - i} digits is too long",
                                 i) from None
            tokens.append(("int", value, i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        if ch in _OPERATORS:
            tokens.append(("op", ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, n))
    return tokens


def is_variable_name(text):
    """Whether `text` reads as exactly one name token of the entry grammar
    (`_tokenize`); text that does not tokenize is no name."""
    try:
        return [t[:2] for t in _tokenize(text)] == [("name", text), ("end", None)]
    except ParseError:
        return False


class _Parser:
    """Recursive descent straight into term maps with int coefficients.

    Every method returns a fresh map that its caller owns, so sums
    accumulate in place.
    """

    def __init__(self, tokens, variables):
        self.tokens = tokens
        self.pos = 0
        self.variables = tuple(variables)
        self.one = (0,) * len(self.variables)
        # a repeated name reads as its first position, as `tuple.index`
        # finds it: that position is written last
        self.index = {v: i for i, v in reversed(tuple(enumerate(self.variables)))}
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def expression(self):
        negate = self.peek()[:2] == ("op", "-")
        if negate:
            self.advance()
        result = {}
        while True:
            _add_into(result, self.term(), negate)
            kind, val, _pos = self.peek()
            if kind != "op" or val not in "+-":
                return result
            self.advance()
            negate = val == "-"

    def term(self):
        result = self.factor()
        while self.peek()[:2] == ("op", "*"):
            self.advance()
            result = _product(result, self.factor())
        return result

    def factor(self):
        base = self.base()
        if self.peek()[:2] == ("op", "^"):
            self.advance()
            kind, val, pos = self.advance()
            if kind != "int":
                raise ParseError("exponent must be a non-negative integer literal", pos)
            return _power(base, val, self.one)
        return base

    def base(self):
        kind, val, pos = self.advance()
        if kind == "int":
            return {self.one: val} if val else {}
        if kind == "name":
            i = self.index.get(val)
            if i is None:
                raise ParseError(f"unknown variable {val!r}", pos)
            return {self.one[:i] + (1,) + self.one[i + 1:]: 1}
        if (kind, val) == ("op", "("):
            if self.depth == MAX_NESTING:
                raise ParseError(
                    f"parentheses nest deeper than {MAX_NESTING} levels", pos)
            self.depth += 1
            inner = self.expression()
            self.depth -= 1
            k2, v2, p2 = self.advance()
            if (k2, v2) != ("op", ")"):
                raise ParseError("expected ')'", p2)
            return inner
        what = "end of input" if kind == "end" else repr(val)
        raise ParseError(f"expected a number, variable, or '(', found {what}", pos)


def parse_polynomial(text, variables):
    """Parse polynomial text over the given variables.

    Grammar:
        expression := term (('+' | '-') term)*
        term       := factor ('*' factor)*
        factor     := base ('^' non-negative-integer)?
        base       := integer | identifier | '(' expression ')'

    A single unary minus is allowed at the head of an expression.  Implicit
    multiplication ("2x") is rejected.  Parentheses may nest at most
    MAX_NESTING levels deep.  Errors carry the offending position.
    """
    parser = _Parser(_tokenize(text), variables)
    terms = parser.expression()
    kind, val, pos = parser.peek()
    if kind != "end":
        raise ParseError(f"unexpected token {val!r}", pos)
    return Polynomial._raw(parser.variables, terms)


class PolyMatrix:
    """Rectangular matrix of polynomials over a shared variable list."""

    __slots__ = ("rows", "cols", "variables", "entries")

    def __init__(self, entries):
        grid = tuple(tuple(row) for row in entries)
        if not grid or not grid[0]:
            raise ValueError("matrix must be non-empty")
        if len({len(row) for row in grid}) != 1:
            raise ValueError("matrix rows must have equal length")
        first = grid[0][0]
        if not isinstance(first, Polynomial):
            raise ValueError("matrix entries must be polynomials")
        for row in grid:
            for e in row:
                if not isinstance(e, Polynomial) or e.variables != first.variables:
                    raise ValueError("matrix entries must share one variable list")
        self.entries = grid
        self.rows = len(grid)
        self.cols = len(grid[0])
        self.variables = first.variables

    @classmethod
    def _raw(cls, entries):
        """A matrix of rows of polynomials already known to share one
        variable list, with no checks."""
        m = object.__new__(cls)
        m.entries, m.rows, m.cols = entries, len(entries), len(entries[0])
        m.variables = entries[0][0].variables
        return m

    @classmethod
    def from_strings(cls, grid, variables):
        return cls([[parse_polynomial(s, variables) for s in row] for row in grid])

    def evaluate(self, point):
        """Matrix of exact values at a rational point, a sequence of one
        coordinate per variable; each entry's `evaluate` checks it."""
        return [[e.evaluate(point) for e in row] for row in self.entries]

    def __eq__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __repr__(self):
        return f"PolyMatrix({self.rows}x{self.cols} over {self.variables})"


def _det_cofactor(grid, products):
    """Term map of the determinant, by cofactor expansion along the first row.

    The first signed product e * sub seeds the determinant's term map as a
    copy, and each later one adds its terms straight into it, so a 2 x 2
    grid [[a, b], [c, d]] is a*d - b*c.  Every product and sub-determinant
    is a plain term map; `minors` makes the coefficients exact once, when it
    builds the Polynomial.

    `products` memoizes the 2 x 2-level products e * sub by (e, sub), each
    as its term map: there both factors are matrix entries, whose hashes
    are cached, so minors that share a pair of entries form their product
    once.  A deeper sub is a fresh determinant, so deeper products are not
    memoized.
    """
    n = len(grid)
    if n == 1:
        return grid[0][0].terms
    terms = {}
    for j, e in enumerate(grid[0]):
        if not e:
            continue
        if n == 2:
            key = e, grid[1][1 - j]
            prod = products.get(key)
            if prod is None:
                prod = products[key] = _product(e.terms, key[1].terms)
        else:
            prod = _product(e.terms, _det_cofactor(
                [row[:j] + row[j + 1:] for row in grid[1:]], products))
        if terms:
            _add_into(terms, prod, j & 1)
        else:
            terms = {m: -c for m, c in prod.items()} if j & 1 else dict(prod)
    return terms


def minors(matrix, size, products=None):
    """All size x size minors, row index sets outer, column sets inner, lex order.

    Each minor is `_det_cofactor`'s term map, built into a Polynomial once
    by `_polynomial`.  `products` memoizes the products of pairs of entries
    that the cofactor expansions form; a caller charting many points of one
    model, as `detvar.classify` does, passes one dict for all of them.
    Without it each call uses a fresh dict.
    """
    if type(size) is not int or size < 1:
        raise ValueError("minor size must be a positive integer")
    if size > min(matrix.rows, matrix.cols):
        raise ValueError("minor size exceeds matrix dimensions")
    if products is None:
        products = {}
    entries, variables = matrix.entries, matrix.variables
    if size == matrix.rows == matrix.cols:
        # the matrix is its only minor
        return [_polynomial(variables, _det_cofactor(entries, products))]
    return [_polynomial(variables, _det_cofactor(
                [[entries[i][j] for j in cset] for i in rset], products))
            for rset in combinations(range(matrix.rows), size)
            for cset in combinations(range(matrix.cols), size)]


def rank_at_point(matrix, point):
    """Exact rank of the matrix evaluated at a rational point."""
    return len(_linalg.row_basis(matrix.evaluate(point)))
