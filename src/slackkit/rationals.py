"""Exact rational scalars and dense rational matrices.

Scalars are ``fractions.Fraction`` (arbitrary precision, always reduced,
positive denominator).  Matrices are small and dense.  Fractions are the
boundary, not the arithmetic: :func:`integer_row` scales a row once by the
lcm of its denominators, and all elimination runs on those integers.
:func:`int_rref` is fraction-free Gauss-Jordan elimination on primitive
integer rows and :func:`int_kernel` reads an integer kernel basis off it;
determinants use Bareiss elimination.  Fractions come back only in the
results of :meth:`RationalMatrix.rref` and
:meth:`RationalMatrix.kernel_basis`, where each pivot row is divided by its
pivot once; :meth:`RationalMatrix.rank` builds no Fraction at all.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd, lcm

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


def integer_row(row):
    """``(ints, k)``: the Fractions ``row`` times k, the lcm of their
    denominators, so that ``row[j] == ints[j] / k``."""
    k = denominator_lcm(row)
    return [q.numerator * (k // q.denominator) for q in row], k


def _primitive(row):
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def int_rref(rows, ncols):
    """Fraction-free Gauss-Jordan elimination of integer rows.

    Returns ``(red, pivots)``: the nonzero rows of an echelon form whose
    pivot columns are zero outside their pivot row, each row primitive (its
    entries have gcd 1) with a positive pivot.  Dividing row ``r`` by its
    pivot ``red[r][pivots[r]]`` gives the reduced row echelon form.  Row i is
    cleared in column c against the pivot row p as
    (p[c] * row_i - row_i[c] * p) / g, with g the gcd of the two entries, and
    then divided by its content, so entries stay as small as the rows allow.
    """
    m = [_primitive(row) for row in rows if any(row)]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == len(m):
            break
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        prow = m[r]
        a = prow[c]
        if a < 0:
            prow = m[r] = [-x for x in prow]
            a = -a
        for i, row in enumerate(m):
            b = row[c]
            if b and i != r:
                g = gcd(a, b)
                ka, kb = a // g, b // g
                m[i] = _primitive([ka * x - kb * y for x, y in zip(row, prow)])
        pivots.append(c)
    return m[:len(pivots)], pivots


def int_kernel(rows, ncols):
    """Integer rows spanning the right kernel of the integer ``rows``.

    One row per free column f of :func:`int_rref`: L at f, with L the lcm
    of the pivots, and -red[r][f] * L / pivot_r at each pivot column."""
    red, pivots = int_rref(rows, ncols)
    L = lcm(*(row[p] for row, p in zip(red, pivots)))
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[f] = L
        for row, p in zip(red, pivots):
            v[p] = -row[f] * (L // row[p])
        basis.append(v)
    return basis


def _divide_pivots(red, pivots):
    """The Fraction rows of ``int_rref``'s echelon form with pivots 1."""
    return [[Fraction(x, row[p]) for x in row] for row, p in zip(red, pivots)]


class RationalMatrix:
    """Immutable dense matrix over the rationals."""

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, rows, ncols=None):
        rows = [[x if isinstance(x, Fraction) else Fraction(x) for x in row]
                for row in rows]
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

    def _integer_rows(self):
        return [integer_row(row)[0] for row in self.rows]

    def rref(self):
        """Reduced row echelon form; returns (matrix, pivot column list)."""
        red, pivots = int_rref(self._integer_rows(), self.ncols)
        rows = _divide_pivots(red, pivots)
        rows += [[Fraction(0)] * self.ncols for _ in range(self.nrows - len(rows))]
        return RationalMatrix(rows, ncols=self.ncols), pivots

    def rank(self) -> int:
        return len(int_rref(self._integer_rows(), self.ncols)[1])

    def kernel_basis(self) -> "RationalMatrix":
        """Rows form a basis of the right kernel, normalized to RREF."""
        kernel = int_kernel(self._integer_rows(), self.ncols)
        return RationalMatrix(_divide_pivots(*int_rref(kernel, self.ncols)),
                              ncols=self.ncols)

    def det(self) -> Fraction:
        """Exact determinant via Bareiss elimination on an integer scaling."""
        if self.nrows != self.ncols:
            raise NonSquareError(f"det of {self.nrows}x{self.ncols} matrix")
        n = self.nrows
        if n == 0:
            return Fraction(1)
        scale = 1
        m = []
        for row in self.rows:
            ints, k = integer_row(row)
            scale *= k
            m.append(ints)
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
        return Fraction(sign * m[n - 1][n - 1], scale)

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
