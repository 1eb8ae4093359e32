"""Exact multivariate polynomial arithmetic over the rationals.

Everything is immutable and exact: coefficients are `fractions.Fraction`,
monomials are plain tuples of non-negative exponents aligned with an ordered
variable list, and terms are kept against a fixed graded reverse
lexicographic order so printing is deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb

from . import _linalg

# a monomial is an exponent vector, one entry per variable
Monomial = tuple


def _grevlex_key(exps):
    return (sum(exps), tuple(-e for e in reversed(exps)))


def _mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _mono_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _mono_divides(a, b):
    return all(x <= y for x, y in zip(a, b))


class ParseError(ValueError):
    """Rejected polynomial text; `position` is the 0-based offset."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class Polynomial:
    """Polynomial over an ordered variable list with Fraction coefficients.

    The `terms` map sends exponent tuples to nonzero coefficients.  Instances
    are value objects: arithmetic never mutates, equality and hashing follow
    the (variables, terms) content.
    """

    __slots__ = ("variables", "terms", "_hash")

    def __init__(self, variables, terms=None):
        self.variables = tuple(variables)
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("duplicate variable names")
        nv = len(self.variables)
        clean = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != nv:
                raise ValueError("exponent vector length mismatch")
            if any(e < 0 for e in exps):
                raise ValueError("negative exponent")
            c = Fraction(coeff)
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
    def zero(cls, variables):
        return cls(variables)

    @classmethod
    def constant(cls, variables, value):
        c = Fraction(value)
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
        return cls._raw(variables, {exps: Fraction(1)})

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
        for m, c in other.terms.items():
            s = res.get(m, 0) + c
            if s:
                res[m] = s
            else:
                res.pop(m, None)
        return Polynomial._raw(self.variables, res)

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
            c = Fraction(other)
            if not c:
                return Polynomial._raw(self.variables, {})
            return Polynomial._raw(self.variables, {m: c * v for m, v in self.terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        res = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                m = _mono_mul(ma, mb)
                s = res.get(m, 0) + ca * cb
                if s:
                    res[m] = s
                else:
                    res.pop(m, None)
        return Polynomial._raw(self.variables, res)

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = Polynomial.constant(self.variables, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

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

    def leading_monomial(self, key=None):
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=key or _grevlex_key)

    def coefficient(self, exps):
        return self.terms.get(tuple(exps), Fraction(0))

    def evaluate(self, point):
        """Exact value at a rational point (one coordinate per variable)."""
        point = [Fraction(x) for x in point]
        if len(point) != len(self.variables):
            raise ValueError(
                f"point has {len(point)} coordinates, expected {len(self.variables)}")
        total = Fraction(0)
        for exps, c in self.terms.items():
            v = c
            for x, e in zip(point, exps):
                if e:
                    v *= x ** e
            total += v
        return total

    def eliminate(self, assignments):
        """Substitute rational values for some variables and drop them.

        `assignments` maps variable indices to values; the result lives over
        the remaining variables, in their original order.
        """
        fixed = {int(i): Fraction(v) for i, v in assignments.items()}
        for i in fixed:
            if not 0 <= i < len(self.variables):
                raise IndexError("variable index out of range")
        keep = [i for i in range(len(self.variables)) if i not in fixed]
        new_vars = tuple(self.variables[i] for i in keep)
        res = {}
        for exps, c in self.terms.items():
            v = c
            for i, val in fixed.items():
                e = exps[i]
                if e:
                    v *= val ** e
            if not v:
                continue
            m = tuple(exps[i] for i in keep)
            s = res.get(m, 0) + v
            if s:
                res[m] = s
            else:
                res.pop(m, None)
        return Polynomial._raw(new_vars, res)

    def shift(self, offsets):
        """Translate coordinates: returns f(x0 + a0, x1 + a1, ...).

        Each term c*x^e is expanded by the binomial theorem,
        (x_i + a_i)^e_i = sum_k C(e_i, k) * a_i^(e_i - k) * x_i^k, in every
        variable whose offset is nonzero, straight into one term map.
        """
        offsets = [Fraction(a) for a in offsets]
        if len(offsets) != len(self.variables):
            raise ValueError("one offset per variable required")
        moved = [i for i, a in enumerate(offsets) if a]
        if not moved:
            return self
        res = {}
        for exps, c in self.terms.items():
            # the variables are expanded in turn; the monomials of `part`
            # differ in the exponents already expanded, so none collide
            part = {exps: c}
            for i in moved:
                e = exps[i]
                if not e:
                    continue
                a = offsets[i]
                binomial = [(k, comb(e, k) * a ** (e - k)) for k in range(e + 1)]
                part = {m[:i] + (k,) + m[i + 1:]: v * b
                        for m, v in part.items() for k, b in binomial}
            for m, v in part.items():
                s = res.get(m, 0) + v
                if s:
                    res[m] = s
                else:
                    res.pop(m, None)
        return Polynomial._raw(self.variables, res)

    def homogeneous_degree(self):
        """Common total degree of all terms, or None if mixed or zero."""
        degs = {sum(m) for m in self.terms}
        if len(degs) == 1:
            return degs.pop()
        return None

    def weight_components(self, weights):
        """Split into weighted-homogeneous parts, keyed by weighted degree."""
        weights = tuple(int(w) for w in weights)
        if len(weights) != len(self.variables):
            raise ValueError("one weight per variable required")
        parts = {}
        for exps, c in self.terms.items():
            d = sum(w * e for w, e in zip(weights, exps))
            parts.setdefault(d, {})[exps] = c
        return {d: Polynomial._raw(self.variables, t) for d, t in sorted(parts.items())}

    def is_weighted_homogeneous(self, weights):
        return len(self.weight_components(weights)) <= 1

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
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("int", int(text[i:j]), i))
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


class _Parser:
    def __init__(self, tokens, variables):
        self.tokens = tokens
        self.pos = 0
        self.variables = tuple(variables)
        self.index = {v: i for i, v in enumerate(self.variables)}
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def expression(self):
        negate = False
        if self.peek()[:2] == ("op", "-"):
            self.advance()
            negate = True
        result = self.term()
        if negate:
            result = -result
        while True:
            kind, val, _pos = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                t = self.term()
                result = result + t if val == "+" else result - t
            else:
                return result

    def term(self):
        result = self.factor()
        while self.peek()[:2] == ("op", "*"):
            self.advance()
            result = result * self.factor()
        return result

    def factor(self):
        base = self.base()
        if self.peek()[:2] == ("op", "^"):
            self.advance()
            kind, val, pos = self.advance()
            if kind != "int":
                raise ParseError("exponent must be a non-negative integer literal", pos)
            return base ** val
        return base

    def base(self):
        kind, val, pos = self.advance()
        if kind == "int":
            return Polynomial.constant(self.variables, val)
        if kind == "name":
            if val not in self.index:
                raise ParseError(f"unknown variable {val!r}", pos)
            return Polynomial.variable(self.variables, val)
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
        return self._fail(kind, val, pos)

    @staticmethod
    def _fail(kind, val, pos):
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
    result = parser.expression()
    kind, val, pos = parser.peek()
    if kind != "end":
        raise ParseError(f"unexpected token {val!r}", pos)
    return result


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
    def from_strings(cls, grid, variables):
        return cls([[parse_polynomial(s, variables) for s in row] for row in grid])

    def entry(self, i, j):
        return self.entries[i][j]

    def evaluate(self, point):
        """Matrix of exact values at a rational point."""
        point = [Fraction(x) for x in point]
        return [[e.evaluate(point) for e in row] for row in self.entries]

    def __eq__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __repr__(self):
        return f"PolyMatrix({self.rows}x{self.cols} over {self.variables})"


def _det_cofactor(grid):
    n = len(grid)
    if n == 1:
        return grid[0][0]
    variables = grid[0][0].variables
    total = Polynomial.zero(variables)
    rest = grid[1:]
    sign = 1
    for j in range(n):
        e = grid[0][j]
        if e:
            sub = [row[:j] + row[j + 1:] for row in rest]
            total = total + sign * e * _det_cofactor(sub)
        sign = -sign
    return total


def determinant(matrix):
    """Determinant of a square PolyMatrix, by cofactor expansion."""
    if matrix.rows != matrix.cols:
        raise ValueError("determinant requires a square matrix")
    return _det_cofactor(matrix.entries)


def minors(matrix, size):
    """All size x size minors, row index sets outer, column sets inner, lex order."""
    if not isinstance(size, int) or size < 1:
        raise ValueError("minor size must be a positive integer")
    if size > min(matrix.rows, matrix.cols):
        raise ValueError("minor size exceeds matrix dimensions")
    return [_det_cofactor([[matrix.entries[i][j] for j in cset] for i in rset])
            for rset in combinations(range(matrix.rows), size)
            for cset in combinations(range(matrix.cols), size)]


def rank_at_point(matrix, point):
    """Exact rank of the matrix evaluated at a rational point."""
    return _linalg.rational_rank(matrix.evaluate(point))
