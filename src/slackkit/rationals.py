"""Exact rational scalars and dense rational matrices.

Scalars are ``fractions.Fraction`` (arbitrary precision, always reduced,
positive denominator).  Matrices are small and dense.  Fractions are the
boundary, not the arithmetic: :func:`integer_row` scales a row once by the
lcm of its denominators, and all elimination runs on those integers.
:func:`int_rref` is fraction-free Gauss-Jordan elimination on primitive
integer rows and :func:`int_kernel` reads an integer kernel basis off it;
:func:`int_cofactors` walks row subsets by Bareiss steps and reads each
one's signed maximal minors off by Cramer's rule; a determinant is the last
row dotted with the cofactor vector of the rows before it.  Fractions come
back only in the results of :meth:`RationalMatrix.rref` and
:meth:`RationalMatrix.kernel_basis`, where each pivot row is divided by its
pivot once; :meth:`RationalMatrix.rank` builds no Fraction at all.  A slack
matrix is made from the hyperplane search's integers with one Fraction per
entry, in :func:`slackkit.slack.slack_matrix`, and a matrix prints each
entry as ``str`` of its Fraction, which is its :func:`format_rational` text.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd, lcm, prod
from operator import mul

from .errors import BadRationalError, NonSquareError, RaggedRowsError

Rational = Fraction


def parse_rational(token: str) -> Fraction:
    """Parse "p/q" or "p" into an exact Fraction."""
    try:
        return Fraction(token.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise BadRationalError(f"bad rational token: {token!r}") from exc


def format_rational(q: Fraction) -> str:
    """Render a Fraction (or an int) as "p/q", or "p" when the denominator
    is 1."""
    if not isinstance(q, Fraction):
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


def int_kernel(red, pivots, ncols):
    """Integer rows spanning the right kernel of rows whose echelon form
    ``(red, pivots)`` :func:`int_rref` returned.

    One row per free column f: L at f, with L the lcm of the pivots, and
    -red[r][f] * L / pivot_r at each pivot column."""
    L = lcm(*(row[p] for row, p in zip(red, pivots)))
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[f] = L
        for row, p in zip(red, pivots):
            v[p] = -row[f] * (L // row[p])
        basis.append(v)
    return basis


def int_cofactors(rows, cols):
    """Yield ``(subset, v)`` for every set of k - 1 of the integer ``rows``,
    k = len(cols), in lexicographic order, whose cofactor vector ``v`` over
    the columns ``cols`` is nonzero.  ``v[j]`` is the signed maximal minor
    (-1)^(k-1-j) * det(subset; cols without cols[j]), so for every row w,
    v . (w at cols) = det(subset + w; cols) with w appended last.  By
    Cramer's rule v spans the kernel of the subset's rows at ``cols``, and
    it is nonzero exactly when those rows have rank k - 1 there.

    One depth-first pass over row prefixes, carrying the prefix in Bareiss
    form: for rows s_1 < ... < s_t with pivot columns p_1, ..., p_t,
    echelon row i holds det(s_1..s_i; p_1..p_{i-1}, j) for every column j
    of ``cols``.  An appended row is brought to that form by t exact
    fraction-free steps, so subsets share their prefixes' work, and a row
    that vanishes there is dependent on the prefix, which is not extended
    through it.  At k - 1 rows Cramer's rule
    reads v off by back substitution: the free column f gets the pivot
    minor, every pivot column the minor with f in its place.

    The first descent takes the first row independent of the prefix at
    every depth.  If it ends short of k - 1 rows, every row it passed over
    depends on its prefix and too few rows are left to reach k - 1, so the
    rows have rank below k - 1 at ``cols`` and the walk stops there instead
    of trying every independent prefix."""
    k = len(cols)
    if k == 0:
        return
    sub = [[row[c] for c in cols] for row in rows]
    last = len(rows) - k + 1  # the deepest row the first pick can take
    found = False

    def walk(subset, echelon, pivots):
        nonlocal found
        depth = len(subset)
        if depth == k - 1:
            found = True
            yield subset, _cramer(echelon, pivots, k)
            return
        for i in range(subset[-1] + 1 if subset else 0, last + depth + 1):
            w, prev = sub[i], 1
            for row, p in zip(echelon, pivots):
                a, b = row[p], w[p]
                w = [(a * x - b * y) // prev for x, y in zip(w, row)]
                prev = a
            p = next((j for j, x in enumerate(w) if x), None)
            if p is not None:
                yield from walk(subset + (i,), echelon + [w], pivots + [p])
                if not found:
                    return

    yield from walk((), [], [])


def _cramer(echelon, pivots, k):
    """The cofactor vector of :func:`int_cofactors` from the Bareiss form of
    k - 1 rows of rank k - 1."""
    f = next(j for j in range(k) if j not in pivots)
    v = [0] * k
    # the last pivot entry is the minor on the pivot columns in pivot order
    v[f] = echelon[-1][pivots[-1]] if echelon else 1
    for row, p in zip(reversed(echelon), reversed(pivots)):
        v[p] = -sum(map(mul, row, v)) // row[p]
    # sorting the pivot columns and moving f to the end fix the sign
    swaps = k - 1 - f + sum(a > b for i, a in enumerate(pivots)
                            for b in pivots[i + 1:])
    return [-x for x in v] if swaps & 1 else v


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

    def integer_rows(self):
        """The rows, each scaled to integers by the lcm of its
        denominators."""
        return [integer_row(row)[0] for row in self.rows]

    def rref(self):
        """Reduced row echelon form; returns (matrix, pivot column list)."""
        red, pivots = int_rref(self.integer_rows(), self.ncols)
        rows = _divide_pivots(red, pivots)
        rows += [[Fraction(0)] * self.ncols for _ in range(self.nrows - len(rows))]
        return RationalMatrix(rows, ncols=self.ncols), pivots

    def rank(self) -> int:
        return len(int_rref(self.integer_rows(), self.ncols)[1])

    def kernel_basis(self) -> "RationalMatrix":
        """Rows form a basis of the right kernel, normalized to RREF."""
        kernel = int_kernel(*int_rref(self.integer_rows(), self.ncols),
                            self.ncols)
        return RationalMatrix(_divide_pivots(*int_rref(kernel, self.ncols)),
                              ncols=self.ncols)

    def det(self) -> Fraction:
        """Exact determinant: the cofactor vector of all rows but the last,
        from :func:`int_cofactors` on the integer scaling, dotted with the
        last row.  No cofactor vector means the other rows are dependent."""
        if self.nrows != self.ncols:
            raise NonSquareError(f"det of {self.nrows}x{self.ncols} matrix")
        if not self.rows:
            return Fraction(1)
        ints, scales = zip(*map(integer_row, self.rows))
        _, v = next(int_cofactors(ints[:-1], range(self.ncols)), (None, None))
        if v is None:
            return Fraction(0)
        return Fraction(sum(map(mul, v, ints[-1])), prod(scales))

    # -- serialization ------------------------------------------------------

    def to_lists(self):
        # str of a Fraction is its format_rational text
        return [list(map(str, row)) for row in self.rows]

    def to_json(self) -> str:
        return json.dumps(self.to_lists())

    def to_text(self) -> str:
        return "\n".join(" ".join(map(str, row)) for row in self.rows)

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
