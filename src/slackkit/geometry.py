"""Desk-scale exact polyhedral and matroid geometry.

Facets of a polytope, hyperplanes of a point configuration's matroid and
positive circuits of a Gale transform are found by one enumeration,
:func:`_hyperplanes`: for the rows of a matrix W of rank r it takes the
kernel of every (r-1)-subset of rows that spans a hyperplane, and records
the values of one kernel vector on all rows.  Facets are the hyperplanes of
[1|V] with one-signed values.  Circuits of the Gale columns are cocircuits
(hyperplane complements) of the dual configuration (Oxley, *Matroid Theory*,
2.1), and the positive ones are the complements of facets (Ziegler,
*Lectures on Polytopes*, ch. 6).  The search visits C(n, r-1) subsets;
above ``MAX_HYPERPLANE_SUBSETS`` it raises
:class:`~slackkit.errors.TooManySubsetsError` before it starts.  At d = 3 a
subset takes 0.08 ms among 8 points and 0.12 ms among 25 (2 cores, Python
3.11), so the bound is 1.5 to 2 minutes of search.  The search runs on
integer-scaled rows and returns exact rationals, so results are
reproducible bit for bit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from operator import mul

from .errors import (BadPointConfigurationError, NonVertexPointError,
                     NotFullDimensionalError, SizeMismatchError,
                     TooManySubsetsError)
from .rationals import RationalMatrix, int_kernel, int_rref, integer_row

MAX_HYPERPLANE_SUBSETS = 10**6


class PointConfiguration:
    """A list of n distinct points in Q^d."""

    def __init__(self, points):
        pts = [[Fraction(x) for x in p] for p in points]
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


@dataclass(frozen=True)
class AffineHyperplane:
    """Hyperplane {x : b - a.x = 0} with its incident point indices."""

    offset: Fraction
    normal: tuple
    incident: frozenset

    def slack(self, point) -> Fraction:
        return self.offset - sum(a * x for a, x in zip(self.normal, point))


@dataclass(frozen=True)
class Circuit:
    """Minimal positive dependence among Gale vectors."""

    support: tuple  # sorted point indices
    coefficients: tuple  # Fractions, parallel to support


class GaleTransform:
    """(n-d-1) x n matrix whose rows span the kernel of [1|V]^T."""

    def __init__(self, matrix: RationalMatrix):
        self.matrix = matrix

    @property
    def n(self):
        return self.matrix.ncols

    def __repr__(self):
        return f"GaleTransform({self.matrix.nrows}x{self.matrix.ncols})"


def _hyperplanes(W: RationalMatrix):
    """The hyperplanes of the rows of W, as {flat: (vec, values)}.

    W has rank r.  Each (r-1)-subset of rows that spans a rank-(r-1) space
    has a kernel of dimension ncols - r + 1; ``vec`` is its first RREF basis
    row that is nonzero on some row of W, ``values`` is W @ vec, and the flat
    is the zero set of ``values``.  The RREF basis of a subspace is unique,
    so every spanning subset of a flat yields the same ``vec``; only the
    first is kept.

    The search runs on W's rows scaled to integers: with row i scaled by
    k_i and ``iv`` the integer kernel row with pivot iv[p], the values are
    the integer dot products W_i . iv / (k_i * iv[p]), so Fractions are built
    only for a flat's first subset.
    """
    scaled = [integer_row(row) for row in W.rows]
    rows = [ints for ints, _ in scaled]
    r = len(int_rref(rows, W.ncols)[1])
    if r == 0:
        return {}
    count = comb(W.nrows, r - 1)
    if count > MAX_HYPERPLANE_SUBSETS:
        raise TooManySubsetsError(
            f"{count} subsets of {r - 1} among {W.nrows} points to search; "
            f"the bound is {MAX_HYPERPLANE_SUBSETS}")
    out = {}
    for subset in itertools.combinations(range(W.nrows), r - 1):
        kernel = int_kernel([rows[i] for i in subset], W.ncols)
        if len(kernel) != W.ncols - r + 1:
            continue
        # the kernel is one dimension larger than the annihilator of W's
        # rows, so some basis row is nonzero on a row of W; it then vanishes
        # exactly on the flat spanned by the subset
        for iv, p in zip(*int_rref(kernel, W.ncols)):
            ints = [sum(map(mul, iv, row)) for row in rows]
            if any(ints):
                break
        flat = frozenset(i for i, s in enumerate(ints) if s == 0)
        if flat not in out:
            q = iv[p]
            out[flat] = ([Fraction(x, q) for x in iv],
                         [Fraction(s, k * q) for s, (_, k) in zip(ints, scaled)])
    return out


def _affine(vec, flat):
    """The affine hyperplane of a kernel vector of [1|V]."""
    return AffineHyperplane(offset=vec[0], normal=tuple(-x for x in vec[1:]),
                            incident=flat)


def facets_from_vertices(V: PointConfiguration):
    """All facet hyperplanes of conv(V), slack-nonnegative, sorted by their
    incidence sets.  Inputs must be full-dimensional vertex sets.

    The facets are the hyperplanes of [1|V] whose values on the points are
    one-signed; a negative one is flipped.
    """
    d = V.dim
    hom = V.homogenized()
    if hom.rank() != d + 1:
        raise NotFullDimensionalError(
            f"points span affine dimension {hom.rank() - 1}, expected {d}")
    facets = {}
    for flat, (vec, values) in _hyperplanes(hom).items():
        if all(s >= 0 for s in values):
            facets[flat] = _affine(vec, flat)
        elif all(s <= 0 for s in values):
            facets[flat] = _affine([-x for x in vec], flat)
    check_vertices(facets, V.n, d)
    return [facets[inc] for inc in sorted(facets, key=sorted)]


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


def matroid_hyperplanes(V: PointConfiguration):
    """All hyperplanes (rank r-1 flats) of the matroid of homogenized points,
    sorted by their incidence sets.

    Normals come from kernel vectors and carry no canonical sign.  A single
    point has one hyperplane, the empty flat.
    """
    flats = _hyperplanes(V.homogenized())
    return [_affine(flats[flat][0], flat) for flat in sorted(flats, key=sorted)]


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
    support.  A 0-row transform (simplex) yields all singleton circuits.
    """
    K = G.matrix.kernel_basis()
    circuits = []
    for _, values in _hyperplanes(K.transpose()).values():
        if all(s >= 0 for s in values) or all(s <= 0 for s in values):
            support = tuple(i for i, s in enumerate(values) if s != 0)
            scale = 1 / values[support[0]]
            circuits.append(Circuit(
                support=support,
                coefficients=tuple(values[i] * scale for i in support)))
    circuits.sort(key=lambda c: c.support)
    return circuits


def pluecker(M: RationalMatrix, col_subset) -> Fraction:
    """Determinant of the column submatrix in the given column order."""
    col_subset = list(col_subset)
    if len(col_subset) != M.nrows:
        raise SizeMismatchError(
            f"need {M.nrows} columns, got {len(col_subset)}")
    return M.submatrix(range(M.nrows), col_subset).det()
