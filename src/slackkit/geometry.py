"""Desk-scale exact polyhedral and matroid geometry.

Facets of a polytope, hyperplanes of a point configuration's matroid and
positive circuits of a Gale transform are found by one enumeration,
:func:`_hyperplanes`: for the rows of a matrix W of rank r it walks every
(r-1)-subset of rows that spans a hyperplane, reads the functional that
cuts it out off the subset's signed maximal minors, and records its values
on all rows.  Facets are the hyperplanes of [1|V] with one-signed values.
Circuits of the Gale columns are cocircuits (hyperplane complements) of the
dual configuration (Oxley, *Matroid Theory*, 2.1), and the positive ones
are the complements of facets (Ziegler, *Lectures on Polytopes*, ch. 6).
The search visits C(n, r-1) subsets; above ``MAX_HYPERPLANE_SUBSETS`` it
raises :class:`~slackkit.errors.TooManySubsetsError` before it starts.  At
d = 3, for facets of points on a paraboloid, a subset takes about 0.017 ms
among 8 points, 0.025 ms among 25, 0.036 ms among 60 and 0.052 ms among
120 (2 cores, Python 3.11): past the walk it costs one dot product per
point.  The largest search the bound allows at d = 3, among 182 points,
took 0.075 ms a subset in one run, so about 75 s.

The search runs on integer-scaled rows, so results are reproducible bit
for bit, and its integers are what the callers read:
:func:`integer_hyperplanes` hands on each hyperplane's integer functional,
divisor and values.  Fractions are made only for what is kept: a facet's
or a hyperplane's offset and normal (:func:`facets_from_vertices`,
:func:`matroid_hyperplanes`), a circuit's coefficients, and one per entry
of a slack matrix, in :func:`~slackkit.slack.slack_matrix`.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from operator import mul

from .errors import (BadPointConfigurationError, NonVertexPointError,
                     NotFullDimensionalError, SizeMismatchError,
                     TooManySubsetsError)
from .rationals import RationalMatrix, int_cofactors, int_kernel, int_rref
from .record import Record

MAX_HYPERPLANE_SUBSETS = 10**6


class PointConfiguration:
    """A list of n distinct points in Q^d."""

    def __init__(self, points):
        pts = [[x if isinstance(x, Fraction) else Fraction(x) for x in p]
               for p in points]
        if not pts:
            raise BadPointConfigurationError("empty point configuration")
        d = len(pts[0])
        if any(len(p) != d for p in pts):
            raise BadPointConfigurationError("points of mixed dimension")
        if len({tuple(p) for p in pts}) != len(pts):
            raise BadPointConfigurationError("duplicate points")
        self.points = pts
        self.dim = d
        self.n = len(pts)

    def homogenized(self) -> RationalMatrix:
        """The n x (d+1) matrix [1 | V]."""
        return RationalMatrix([[Fraction(1)] + p for p in self.points])

    def __repr__(self):
        return f"PointConfiguration(n={self.n}, d={self.dim})"


class AffineHyperplane(Record):
    """Hyperplane {x : b - a.x = 0} with its incident point indices."""

    _fields = ("offset", "normal", "incident")

    def __init__(self, offset: Fraction, normal: tuple,
                 incident: frozenset) -> None:
        self._set(offset, normal, incident)

    def slack(self, point) -> Fraction:
        return self.offset - sum(a * x for a, x in zip(self.normal, point))


class Circuit(Record):
    """Minimal positive dependence among Gale vectors: ``support`` holds
    the sorted point indices, ``coefficients`` their Fractions."""

    _fields = ("support", "coefficients")

    def __init__(self, support: tuple, coefficients: tuple) -> None:
        self._set(support, coefficients)


class GaleTransform:
    """(n-d-1) x n matrix whose rows span the kernel of [1|V]^T."""

    def __init__(self, matrix: RationalMatrix):
        self.matrix = matrix

    @property
    def n(self):
        return self.matrix.ncols

    def __repr__(self):
        return f"GaleTransform({self.matrix.nrows}x{self.matrix.ncols})"


def _hyperplanes(rows, pivots, one_signed=False):
    """The hyperplanes of the integer ``rows`` of a matrix W whose pivot
    columns (:func:`~slackkit.rationals.int_rref`) are P = ``pivots``, as
    {flat: (c, values)}; with ``one_signed`` only those whose values are all
    >= 0 or all <= 0.

    W has rank r = |P|.  For each (r-1)-subset S of rows that spans a
    rank-(r-1) space, c is its cofactor vector over P
    (:func:`~slackkit.rationals.int_cofactors`) placed at P and zero
    elsewhere, so c . w = det(S + w; P) for every row w.  It vanishes on the
    rows of S and, W being of full column rank r on P, not on all of W; so
    ``values`` = W @ c, integers, vanish exactly on the flat spanned by S.
    Two subsets of one flat give proportional c; only the first counts, and
    only flats that are kept are recorded: a rejected flat is rejected again
    on any later subset.  The subsets are walked in lexicographic order and
    share their prefixes' fraction-free steps, so a subset costs the steps
    for its last row and a dot product per row.
    """
    r = len(pivots)
    if r == 0:
        return {}
    count = comb(len(rows), r - 1)
    if count > MAX_HYPERPLANE_SUBSETS:
        raise TooManySubsetsError(
            f"{count} subsets of {r - 1} among {len(rows)} points to search; "
            f"the bound is {MAX_HYPERPLANE_SUBSETS}")
    at_pivots = [[row[p] for p in pivots] for row in rows]
    out = {}
    for _, v in int_cofactors(rows, pivots):
        values = [sum(map(mul, v, w)) for w in at_pivots]
        if one_signed and min(values) < 0 < max(values):
            continue
        flat = frozenset(i for i, s in enumerate(values) if s == 0)
        if flat not in out:
            c = [0] * len(rows[0])
            for p, x in zip(pivots, v):
                c[p] = x
            out[flat] = (c, values)
    return out


def _kernel_row(c, kernel):
    """The first row of the reduced row echelon basis of ker(W_S) that is
    nonzero on W, for a functional c of :func:`_hyperplanes`, as integers
    and the denominator they share.

    ``kernel`` is :func:`~slackkit.rationals.int_rref` of ker(W), and
    ker(W_S) is ker(W) plus the line of c.  Reduced by ``kernel``, c becomes
    c' with leading index q, so the basis rows are those of ``kernel``, the
    ones with pivot below q cleared at q by c', and c' / c'[q].  The rows of
    ``kernel`` vanish on W, so the first row nonzero on W is the first one
    with pivot below q and a nonzero entry at q, cleared, or else c' / c'[q].
    With W of full column rank ``kernel`` is empty and the row is c / c[q].
    """
    red, pivots = kernel
    for row, p in zip(red, pivots):
        if c[p]:
            a, b = row[p], c[p]
            c = [a * x - b * y for x, y in zip(c, row)]
    q = next(j for j, x in enumerate(c) if x)
    for row, p in zip(red, pivots):
        if p > q:
            break
        if row[q]:
            return [c[q] * x - row[q] * y for x, y in zip(row, c)], row[p] * c[q]
    return c, c[q]


def _affine(vec, den, flat):
    """The affine hyperplane of the kernel vector vec / den of [1|V], vec
    integers."""
    return AffineHyperplane(offset=Fraction(vec[0], den),
                            normal=tuple(Fraction(-x, den) for x in vec[1:]),
                            incident=flat)


def integer_hyperplanes(V: PointConfiguration, object="polytope"):
    """``(rows, hyperplanes)``: the facets of conv(V) (``object`` =
    "polytope") or the matroid hyperplanes of [1|V] ("matroid"), all on
    integers.

    ``rows`` are the rows of [1|V], row i scaled by the lcm k_i of its
    point's denominators, so that ``rows[i][0]`` is k_i.  ``hyperplanes``
    holds each hyperplane in flat order as ``(flat, c, den, values)``: the
    integer functional c, the positive divisor den with c / den the kernel
    row :func:`facets_from_vertices` or :func:`matroid_hyperplanes` reports,
    and values[i] = c . rows[i], so the slack of point i is
    values[i] / (den * k_i).

    The facets are the hyperplanes whose values are one-signed; the points
    must be the vertices of a full-dimensional polytope.  [1|V] then has
    full column rank, so a flat's kernel row is the search's functional
    over its leading entry (:func:`_kernel_row`); c is that functional,
    negated when its values are nonpositive, and den the leading entry's
    absolute value, which keeps the slacks nonnegative.  A matroid
    hyperplane's c / den is :func:`_kernel_row`'s, with den made positive.
    Where [1|V] has full column rank its c and values are the search's too;
    otherwise c differs and its values are its own dot products.
    """
    rows = V.homogenized().integer_rows()
    ncols = V.dim + 1
    red, pivots = int_rref(rows, ncols)
    if object == "polytope":
        if len(pivots) != ncols:
            raise NotFullDimensionalError(
                f"points span affine dimension {len(pivots) - 1}, "
                f"expected {V.dim}")
        flats = _hyperplanes(rows, pivots, one_signed=True)
        check_vertices(flats, V.n, V.dim)
    elif object == "matroid":
        flats = _hyperplanes(rows, pivots)
        kernel = int_rref(int_kernel(red, pivots, ncols), ncols)
    else:
        raise ValueError(f"unknown object {object!r}")
    out = []
    for flat in sorted(flats, key=sorted):
        c, values = flats[flat]
        if object == "polytope":
            den = abs(next(x for x in c if x))
            flip = min(values) < 0
        else:
            c, den = _kernel_row(c, kernel)
            if kernel[0]:  # ker(W) is not zero, so c is not the search's
                values = [sum(map(mul, c, w)) for w in rows]
            flip = den < 0
            den = abs(den)
        if flip:
            c, values = [-x for x in c], [-x for x in values]
        out.append((flat, c, den, values))
    return rows, out


def facets_from_vertices(V: PointConfiguration):
    """All facet hyperplanes of conv(V), slack-nonnegative, sorted by their
    incidence sets (:func:`integer_hyperplanes`).  Inputs must be
    full-dimensional vertex sets."""
    return [_affine(c, den, flat)
            for flat, c, den, _ in integer_hyperplanes(V)[1]]


def check_vertices(incidences, n, d):
    """Raise :class:`~slackkit.errors.NonVertexPointError` unless the n
    points are the vertices of the d-polytope whose facets hold the point
    sets ``incidences``.

    For d >= 1 a vertex lies on at least d facets, and no other point of the
    polytope lies on all of them.  Any other point lies inside a face of
    dimension at least 1, so every facet through it also holds that face's
    vertices: its facets are a subset of a vertex's, and two copies of a
    point have equal sets.  For d = 0 the incidences tell nothing apart: the
    one facet, the empty face, holds no point.
    """
    if d < 1:
        return
    on = [set() for _ in range(n)]
    for j, inc in enumerate(incidences):
        for i in inc:
            on[i].add(j)
    bad = [i for i in range(n)
           if len(on[i]) < d or any(k != i and on[i] <= on[k] for k in range(n))]
    if bad:
        raise NonVertexPointError(f"points {bad} are not vertices of the hull")


def check_columns(col_indices, ncols):
    """The column indices as a list, each checked to lie in 0..ncols-1."""
    col_indices = list(col_indices)
    for j in col_indices:
        if not 0 <= j < ncols:
            raise SizeMismatchError(f"column {j} outside 0..{ncols - 1}")
    return col_indices


def matroid_hyperplanes(V: PointConfiguration):
    """All hyperplanes (rank r-1 flats) of the matroid of homogenized points,
    sorted by their incidence sets.

    Normals are the kernel rows of :func:`_kernel_row`, with a leading 1 and
    no canonical sign otherwise (:func:`integer_hyperplanes`).  A single
    point has one hyperplane, the empty flat.
    """
    return [_affine(c, den, flat)
            for flat, c, den, _ in integer_hyperplanes(V, "matroid")[1]]


def gale_transform(V: PointConfiguration) -> GaleTransform:
    """Kernel basis of [1|V]^T with columns indexed by the points."""
    if V.n < V.dim + 1:
        raise NotFullDimensionalError("need at least d+1 points")
    homT = V.homogenized().transpose()
    return GaleTransform(homT.kernel_basis())


def positive_circuits(G: GaleTransform):
    """All circuits of the Gale columns with strictly positive coefficients,
    normalized so the smallest support index has coefficient 1.

    The circuits of the columns of G are the cocircuits (hyperplane
    complements) of the rows of K^T, where the rows of K span the kernel of
    G: the values of a hyperplane's functional form a dependence of minimal
    support.  Any integer basis K does: another basis changes K^T by an
    invertible map of its columns, which keeps the flats and the values.  A
    0-row transform (simplex) yields all singleton circuits.
    """
    n = G.n
    K = int_kernel(*int_rref(G.matrix.integer_rows(), n), n)
    rows = [[v[i] for v in K] for i in range(n)]
    circuits = []
    for _, values in _hyperplanes(rows, int_rref(rows, len(K))[1],
                                  one_signed=True).values():
        support = tuple(i for i, s in enumerate(values) if s != 0)
        first = values[support[0]]
        circuits.append(Circuit(
            support=support,
            coefficients=tuple(Fraction(values[i], first) for i in support)))
    circuits.sort(key=lambda c: c.support)
    return circuits


def pluecker(M: RationalMatrix, col_subset) -> Fraction:
    """Determinant of the column submatrix in the given column order."""
    col_subset = check_columns(col_subset, M.ncols)
    if len(col_subset) != M.nrows:
        raise SizeMismatchError(
            f"need {M.nrows} columns, got {len(col_subset)}")
    return M.submatrix(range(M.nrows), col_subset).det()
