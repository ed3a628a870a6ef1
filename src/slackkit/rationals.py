"""Exact rational scalars and dense rational matrices.

Scalars are ``fractions.Fraction`` (arbitrary precision, always reduced,
positive denominator).  Matrices are small and dense; everything is computed
by exact elimination, determinants by fraction-free (Bareiss) elimination on
an integer-scaled copy.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import lcm

from .errors import BadRationalError, NonSquareError, RaggedRowsError

Rational = Fraction


def parse_rational(token: str) -> Fraction:
    """Parse "p/q" or "p" into an exact Fraction."""
    try:
        return Fraction(token.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise BadRationalError(f"bad rational token: {token!r}") from exc


def format_rational(q: Fraction) -> str:
    """Render a Fraction as "p/q", or "p" when the denominator is 1."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def denominator_lcm(values) -> int:
    """Least common multiple of the denominators of the Fractions ``values``:
    the smallest positive integer that makes all of them integral."""
    return lcm(*(q.denominator for q in values))


class RationalMatrix:
    """Immutable dense matrix over the rationals."""

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, rows, ncols=None):
        rows = [[Fraction(x) for x in row] for row in rows]
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise RaggedRowsError("rows of unequal length")
        else:
            width = ncols or 0
        self.rows = rows
        self.nrows = len(rows)
        self.ncols = width

    @classmethod
    def zero(cls, nrows, ncols):
        return cls([[Fraction(0)] * ncols for _ in range(nrows)], ncols=ncols)

    @classmethod
    def identity(cls, n):
        return cls([[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)])

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other):
        return isinstance(other, RationalMatrix) and self.rows == other.rows

    def __hash__(self):
        return hash(tuple(tuple(r) for r in self.rows))

    def __repr__(self):
        return f"RationalMatrix({self.nrows}x{self.ncols})"

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix([[self.rows[i][j] for i in range(self.nrows)]
                               for j in range(self.ncols)])

    def submatrix(self, row_idx, col_idx) -> "RationalMatrix":
        return RationalMatrix([[self.rows[i][j] for j in col_idx] for i in row_idx])

    def column(self, j):
        return [self.rows[i][j] for i in range(self.nrows)]

    def rref(self):
        """Reduced row echelon form; returns (matrix, pivot column list)."""
        m = [row[:] for row in self.rows]
        pivots = []
        r = 0
        for c in range(self.ncols):
            if r == self.nrows:
                break
            pivot = next((i for i in range(r, self.nrows) if m[i][c] != 0), None)
            if pivot is None:
                continue
            m[r], m[pivot] = m[pivot], m[r]
            pv = m[r][c]
            m[r] = [x / pv for x in m[r]]
            for i in range(self.nrows):
                if i != r and m[i][c] != 0:
                    f = m[i][c]
                    m[i] = [a - f * b for a, b in zip(m[i], m[r])]
            pivots.append(c)
            r += 1
        return RationalMatrix(m), pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel_basis(self) -> "RationalMatrix":
        """Rows form a basis of the right kernel, normalized to RREF."""
        red, pivots = self.rref()
        free = [c for c in range(self.ncols) if c not in pivots]
        basis = []
        for fc in free:
            v = [Fraction(0)] * self.ncols
            v[fc] = Fraction(1)
            for r, pc in enumerate(pivots):
                v[pc] = -red.rows[r][fc]
            basis.append(v)
        if not basis:
            return RationalMatrix.zero(0, self.ncols)
        return RationalMatrix(basis).rref()[0]

    def det(self) -> Fraction:
        """Exact determinant via Bareiss elimination on an integer scaling."""
        if self.nrows != self.ncols:
            raise NonSquareError(f"det of {self.nrows}x{self.ncols} matrix")
        n = self.nrows
        if n == 0:
            return Fraction(1)
        scale = Fraction(1)
        m = []
        for row in self.rows:
            k = denominator_lcm(row)
            scale *= k
            m.append([int(x * k) for x in row])
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                pivot = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
                if pivot is None:
                    return Fraction(0)
                m[k], m[pivot] = m[pivot], m[k]
                sign = -sign
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
                m[i][k] = 0
            prev = m[k][k]
        return Fraction(sign * m[n - 1][n - 1], 1) / scale

    # -- serialization ------------------------------------------------------

    def to_lists(self):
        return [[format_rational(x) for x in row] for row in self.rows]

    def to_json(self) -> str:
        return json.dumps(self.to_lists())

    def to_text(self) -> str:
        return "\n".join(" ".join(format_rational(x) for x in row) for row in self.rows)

    @classmethod
    def from_lists(cls, lists) -> "RationalMatrix":
        return cls([[parse_rational(str(x)) for x in row] for row in lists])

    @classmethod
    def from_json(cls, text: str) -> "RationalMatrix":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise BadRationalError(f"bad JSON matrix: {exc}") from exc
        if not isinstance(data, list) or not all(isinstance(r, list) for r in data):
            raise RaggedRowsError("JSON matrix must be an array of arrays")
        return cls.from_lists(data)

    @classmethod
    def from_text(cls, text: str) -> "RationalMatrix":
        rows = [line.split() for line in text.splitlines() if line.strip()]
        return cls([[parse_rational(tok) for tok in row] for row in rows])
