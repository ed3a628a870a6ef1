"""Facet enumeration, matroid hyperplanes, Gale transforms, circuits."""

import itertools
import re
import time
import tracemalloc
from fractions import Fraction

from slackkit import (GaleTransform, PointConfiguration, RationalMatrix,
                      facets_from_vertices, gale_transform, matroid_hyperplanes,
                      pluecker, positive_circuits, slack_from_gale_plucker,
                      slack_matrix)
from slackkit import geometry, rationals
from slackkit.errors import (BadPointConfigurationError, NonVertexPointError,
                             NotFullDimensionalError, SizeMismatchError,
                             SlackkitError, TooManySubsetsError)
from slackkit.geometry import AffineHyperplane, Circuit
from conftest import PRISM_VERTICES, SQUARE_VERTICES
from test_rationals import sympy_det

import pytest
from hypothesis import assume, example, given, settings, strategies as st


def unit_simplex(d):
    pts = [tuple(0 for _ in range(d))]
    for i in range(d):
        pts.append(tuple(1 if j == i else 0 for j in range(d)))
    return pts


def test_square_has_four_edges():
    facets = facets_from_vertices(PointConfiguration(SQUARE_VERTICES))
    assert len(facets) == 4
    for f in facets:
        assert len(f.incident) == 2


def test_simplex_facet_count():
    for d in (2, 3, 4):
        facets = facets_from_vertices(PointConfiguration(unit_simplex(d)))
        assert len(facets) == d + 1


def test_prism_has_five_facets():
    facets = facets_from_vertices(PointConfiguration(PRISM_VERTICES))
    assert len(facets) == 5


def test_facet_slacks_nonnegative_and_incidence_exact():
    V = PointConfiguration(PRISM_VERTICES)
    for f in facets_from_vertices(V):
        for i, p in enumerate(V.points):
            s = f.slack(p)
            assert s >= 0
            assert (s == 0) == (i in f.incident)


def test_facet_incident_span():
    V = PointConfiguration(PRISM_VERTICES)
    for f in facets_from_vertices(V):
        assert len(f.incident) >= 3
        rows = [[Fraction(1)] + list(V.points[i]) for i in f.incident]
        assert RationalMatrix(rows).rank() == 3


def test_not_full_dimensional_rejected():
    with pytest.raises(NotFullDimensionalError):
        facets_from_vertices(PointConfiguration([(0, 0), (1, 1), (2, 2)]))


def test_interior_point_rejected():
    pts = SQUARE_VERTICES + [(Fraction(1, 2), Fraction(1, 2))]
    with pytest.raises(NonVertexPointError):
        facets_from_vertices(PointConfiguration(pts))


def test_matroid_hyperplanes_of_square():
    hyps = matroid_hyperplanes(PointConfiguration(SQUARE_VERTICES))
    assert len(hyps) == 6
    assert sorted(tuple(sorted(h.incident)) for h in hyps) == \
        sorted(itertools.combinations(range(4), 2))


def test_matroid_hyperplanes_three_collinear_points():
    hyps = matroid_hyperplanes(PointConfiguration([(0,), (1,), (2,)]))
    assert sorted(tuple(sorted(h.incident)) for h in hyps) == [(0,), (1,), (2,)]


def test_matroid_hyperplanes_with_collinear_triple():
    # points (0,0),(1,0),(2,0) collinear plus an apex
    hyps = matroid_hyperplanes(PointConfiguration([(0, 0), (1, 0), (2, 0), (0, 1)]))
    incidences = sorted(tuple(sorted(h.incident)) for h in hyps)
    assert incidences == [(0, 1, 2), (0, 3), (1, 3), (2, 3)]


def test_gale_of_simplex_is_empty():
    G = gale_transform(PointConfiguration(unit_simplex(3)))
    assert G.matrix.nrows == 0
    assert G.n == 4


def test_gale_of_square():
    G = gale_transform(PointConfiguration(SQUARE_VERTICES))
    assert G.matrix.nrows == 1
    row = [G.matrix[0, j] for j in range(4)]
    scale = row[0]
    assert [x / scale for x in row] == [1, -1, 1, -1]


def test_gale_of_prism_shape():
    G = gale_transform(PointConfiguration(PRISM_VERTICES))
    assert (G.matrix.nrows, G.matrix.ncols) == (2, 6)


def test_gale_rows_annihilate_homogenized_points():
    V = PointConfiguration(PRISM_VERTICES)
    G = gale_transform(V)
    H = V.homogenized()
    for i in range(G.matrix.nrows):
        for k in range(H.ncols):
            assert sum(G.matrix[i, j] * H[j, k] for j in range(6)) == 0


def test_no_positive_circuits_in_positive_column():
    G = GaleTransform(RationalMatrix([[1]]))
    assert positive_circuits(G) == []


def test_single_positive_circuit():
    G = GaleTransform(RationalMatrix([[1, -1]]))
    circuits = positive_circuits(G)
    assert len(circuits) == 1
    assert circuits[0].support == (0, 1)
    assert circuits[0].coefficients == (1, 1)


def test_square_gale_circuits():
    G = GaleTransform(RationalMatrix([[1, -1, 1, -1]]))
    circuits = positive_circuits(G)
    assert [c.support for c in circuits] == [(0, 1), (0, 3), (1, 2), (2, 3)]
    assert all(c.coefficients == (1, 1) for c in circuits)


def test_facet_complements_support_circuits():
    # Gale duality: each facet's complement supports a positive circuit
    for pts in (SQUARE_VERTICES, PRISM_VERTICES):
        V = PointConfiguration(pts)
        circuits = positive_circuits(gale_transform(V))
        supports = {c.support for c in circuits}
        for f in facets_from_vertices(V):
            comp = tuple(sorted(set(range(len(pts))) - f.incident))
            assert comp in supports


def test_pluecker_identity_and_sign():
    M = RationalMatrix.identity(3)
    assert pluecker(M, [0, 1, 2]) == 1
    assert pluecker(M, [1, 0, 2]) == -1


def test_pluecker_1x1():
    G = RationalMatrix([[1, -1, 1, -1]])
    assert pluecker(G, [1]) == -1


def test_pluecker_size_mismatch():
    with pytest.raises(SizeMismatchError):
        pluecker(RationalMatrix.identity(3), [0, 1])


# -- the per-object subset searches the shared enumeration replaced ----------
#
# Kept verbatim as oracles: a kernel per d-subset for facets, a rank-closure
# loop and a separating-vector search for matroid hyperplanes, and a kernel
# per column subset of size 1..r+1 for circuits.


def _hyperplane_from_kernel_vector(vec, points):
    """Build an AffineHyperplane from a kernel vector of homogenized points."""
    b = vec[0]
    alpha = tuple(-x for x in vec[1:])
    incident = frozenset(
        i for i, p in enumerate(points)
        if b - sum(a * x for a, x in zip(alpha, p)) == 0)
    return AffineHyperplane(offset=b, normal=alpha, incident=incident)


def reference_facets_from_vertices(V: PointConfiguration):
    """All facet hyperplanes of conv(V), slack-nonnegative, sorted by their
    incidence sets.  Inputs must be full-dimensional vertex sets."""
    d = V.dim
    hom = V.homogenized()
    if hom.rank() != d + 1:
        raise NotFullDimensionalError(
            f"points span affine dimension {hom.rank() - 1}, expected {d}")
    facets = {}
    for subset in itertools.combinations(range(V.n), d):
        sub = hom.submatrix(subset, range(d + 1))
        kernel = sub.kernel_basis()
        if kernel.nrows != 1:  # points not affinely independent
            continue
        hp = _hyperplane_from_kernel_vector(kernel.rows[0], V.points)
        slacks = [hp.slack(p) for p in V.points]
        if all(s >= 0 for s in slacks):
            pass
        elif all(s <= 0 for s in slacks):
            hp = AffineHyperplane(offset=-hp.offset,
                                  normal=tuple(-a for a in hp.normal),
                                  incident=hp.incident)
        else:
            continue
        facets[hp.incident] = hp
    # every input point must be a vertex: a vertex of a d-polytope lies on
    # at least d facets, interior/edge points on fewer
    counts = [0] * V.n
    for inc in facets:
        for i in inc:
            counts[i] += 1
    bad = [i for i, c in enumerate(counts) if c < d]
    if bad:
        raise NonVertexPointError(f"points {bad} are not vertices of the hull")
    return [facets[inc] for inc in sorted(facets, key=sorted)]


def reference_matroid_hyperplanes(V: PointConfiguration):
    """All hyperplanes (rank r-1 flats) of the matroid of homogenized points.

    Normals come from kernel vectors and carry no canonical sign.
    """
    hom = V.homogenized()
    r = hom.rank()
    n = V.n
    flats = set()
    for subset in itertools.combinations(range(n), r - 1):
        if hom.submatrix(subset, range(hom.ncols)).rank() != r - 1:
            continue
        closure = set(subset)
        for k in range(n):
            if k in closure:
                continue
            if hom.submatrix(sorted(closure | {k}), range(hom.ncols)).rank() == r - 1:
                closure.add(k)
        flats.add(frozenset(closure))
    out = []
    for flat in sorted(flats, key=sorted):
        rows = hom.submatrix(sorted(flat), range(hom.ncols))
        kernel = rows.kernel_basis()
        vec = _pick_separating_kernel_vector(kernel, hom, flat)
        hp = _hyperplane_from_kernel_vector(vec, V.points)
        out.append(AffineHyperplane(offset=hp.offset, normal=hp.normal,
                                    incident=frozenset(flat)))
    return out


def _pick_separating_kernel_vector(kernel, hom, flat):
    """A kernel vector giving nonzero slack on every point off the flat."""
    off = [i for i in range(hom.nrows) if i not in flat]

    def ok(vec):
        return all(sum(v * x for v, x in zip(vec, hom.rows[i])) != 0 for i in off)

    for row in kernel.rows:
        if ok(row):
            return row
    # rank-deficient configuration: try small integer combinations
    for coeffs in itertools.product(range(-3, 4), repeat=kernel.nrows):
        if all(c == 0 for c in coeffs):
            continue
        vec = [sum(c * row[j] for c, row in zip(coeffs, kernel.rows))
               for j in range(kernel.ncols)]
        if ok(vec):
            return vec
    raise NonVertexPointError("no separating hyperplane normal found for flat")


def reference_positive_circuits(G: GaleTransform):
    """All circuits of the Gale columns with strictly positive coefficients,
    normalized so the smallest support index has coefficient 1.

    A 0-row transform (simplex) yields all singleton circuits.
    """
    M = G.matrix
    n = M.ncols
    if M.nrows == 0:
        return [Circuit(support=(i,), coefficients=(Fraction(1),)) for i in range(n)]
    r = M.rank()
    circuits = []
    for size in range(1, r + 2):
        for subset in itertools.combinations(range(n), size):
            sub = M.submatrix(range(M.nrows), subset)
            kernel = sub.kernel_basis()
            if kernel.nrows != 1:
                continue
            vec = kernel.rows[0]
            if any(x == 0 for x in vec):
                continue  # dependence not supported on the whole subset
            if all(x > 0 for x in vec) or all(x < 0 for x in vec):
                scale = Fraction(1) / vec[0]
                circuits.append(Circuit(
                    support=tuple(subset),
                    coefficients=tuple(x * scale for x in vec)))
    circuits.sort(key=lambda c: c.support)
    return circuits


def outcome(f, *args):
    """The return value of f, or the class of the domain error it raised."""
    try:
        return f(*args)
    except SlackkitError as exc:
        return type(exc)


def assert_same_geometry(points):
    V = PointConfiguration(points)
    assert outcome(facets_from_vertices, V) == \
        outcome(reference_facets_from_vertices, V)
    assert outcome(matroid_hyperplanes, V) == \
        outcome(reference_matroid_hyperplanes, V)


def affine_rank(points):
    return RationalMatrix([[1] + list(p) for p in points]).rank() - 1


coords = st.integers(-4, 4)


@st.composite
def full_dimensional(draw):
    """Random lattice points, or lattice points lifted to a paraboloid (all
    of them vertices), spanning Q^d."""
    d = draw(st.integers(1, 4))
    n = draw(st.integers(d + 1, 8))
    if d == 1 or draw(st.booleans()):
        pts = draw(st.lists(st.tuples(*[coords] * d), min_size=n, max_size=n,
                            unique=True))
    else:
        base = draw(st.lists(st.tuples(*[coords] * (d - 1)), min_size=n,
                             max_size=n, unique=True))
        pts = [p + (sum(x * x for x in p),) for p in base]
    assume(affine_rank(pts) == d)
    return pts


@st.composite
def lower_dimensional(draw):
    """Points b + A t in Q^d for distinct t in Z^k, A of rank k < d."""
    d = draw(st.integers(2, 4))
    k = draw(st.integers(1, d - 1))
    A = draw(st.lists(st.lists(st.integers(-2, 2), min_size=k, max_size=k),
                      min_size=d, max_size=d))
    assume(RationalMatrix(A).rank() == k)
    b = draw(st.lists(coords, min_size=d, max_size=d))
    params = draw(st.lists(st.tuples(*[coords] * k), min_size=2, max_size=8,
                           unique=True))
    return [tuple(b[i] + sum(A[i][j] * t[j] for j in range(k))
                  for i in range(d)) for t in params]


@st.composite
def degenerate_matrices(draw):
    """Small matrices, some with a zero column, a parallel pair of columns
    or a dependent row."""
    nrows = draw(st.integers(0, 4))
    ncols = draw(st.integers(0, 7))
    rows = draw(st.lists(st.lists(st.integers(-2, 2), min_size=ncols,
                                  max_size=ncols),
                         min_size=nrows, max_size=nrows))
    if ncols and draw(st.booleans()):
        j = draw(st.integers(0, ncols - 1))
        for row in rows:
            row[j] = 0
    if ncols >= 2 and draw(st.booleans()):
        j, k = draw(st.lists(st.integers(0, ncols - 1), min_size=2, max_size=2,
                             unique=True))
        s = draw(st.sampled_from([-2, -1, 1, 3]))
        for row in rows:
            row[k] = s * row[j]
    if nrows >= 2 and draw(st.booleans()):
        rows[1] = [x + 2 * y for x, y in zip(rows[0], rows[1])]
    return RationalMatrix(rows, ncols=ncols)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(full_dimensional())
def test_full_dimensional_matches_subset_searches(points):
    assert_same_geometry(points)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(lower_dimensional())
def test_lower_dimensional_matches_subset_searches(points):
    assert affine_rank(points) < len(points[0])
    assert_same_geometry(points)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.one_of(full_dimensional(), lower_dimensional()))
def test_gale_circuits_match_subset_search(points):
    V = PointConfiguration(points)
    assume(V.n >= V.dim + 1)
    G = gale_transform(V)
    assert positive_circuits(G) == reference_positive_circuits(G)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(degenerate_matrices())
def test_circuits_of_degenerate_matrices_match_subset_search(M):
    G = GaleTransform(M)
    assert positive_circuits(G) == reference_positive_circuits(G)


def test_first_kernel_row_that_does_not_separate():
    # on the line x = 0 the first kernel row of the flat {0}, (0, 1, 0), is
    # zero on every point; the second one, (0, 0, 1), cuts out the flat
    points = [(0, 0), (0, 1), (0, 2)]
    V = PointConfiguration(points)
    kernel = V.homogenized().submatrix([0], range(3)).kernel_basis()
    assert kernel.rows[0] == [0, 1, 0]
    assert matroid_hyperplanes(V) == reference_matroid_hyperplanes(V) == [
        AffineHyperplane(0, (0, -1), frozenset({0})),
        AffineHyperplane(1, (0, 1), frozenset({1})),
        AffineHyperplane(1, (0, Fraction(1, 2)), frozenset({2}))]


def test_one_point_has_the_empty_hyperplane():
    # the rank-1 matroid of one point has one hyperplane, the empty flat;
    # the subset searches lost the column count of the empty row set and
    # found none (the matroid search then raised)
    V = PointConfiguration([(2, 3)])
    assert matroid_hyperplanes(V) == [AffineHyperplane(1, (0, 0), frozenset())]
    assert outcome(reference_matroid_hyperplanes, V) is NonVertexPointError
    assert slack_matrix([(2, 3)], object="matroid").entries.to_lists() == [["1"]]
    # a 0-polytope (one point in Q^0) likewise has the empty facet
    P = PointConfiguration([()])
    assert facets_from_vertices(P) == [AffineHyperplane(1, (), frozenset())]
    assert reference_facets_from_vertices(P) == []


small_rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))


@st.composite
def rational_paraboloid(draw):
    """Points (x, |x|^2) for distinct rational x in Q^(d-1), all of them
    vertices of a d-polytope."""
    d = draw(st.integers(2, 4))
    n = draw(st.integers(d + 1, 8))
    base = draw(st.lists(st.tuples(*[small_rationals] * (d - 1)), min_size=n,
                         max_size=n, unique=True))
    pts = [p + (sum(x * x for x in p),) for p in base]
    assume(affine_rank(pts) == d)
    return pts


@st.composite
def four_coplanar(draw):
    """A quadrilateral o + s u + t v of a random plane in Q^3, and one to
    three rational points anywhere, in a random order."""
    o = draw(st.tuples(coords, coords, coords))
    u, v = draw(st.lists(st.tuples(coords, coords, coords), min_size=2,
                         max_size=2))
    s, t = draw(st.lists(small_rationals.filter(bool), min_size=2,
                         max_size=2))
    quad = [(0, 0), (s, 0), (s, t), (0, t)]
    plane = [tuple(o[i] + a * u[i] + b * v[i] for i in range(3))
             for a, b in quad]
    off = draw(st.lists(st.tuples(*[small_rationals] * 3), min_size=1,
                        max_size=3))
    pts = draw(st.permutations(plane + off))
    assume(len(set(pts)) == len(pts) and affine_rank(pts) == 3)
    return pts


@st.composite
def rational_lower_dimensional(draw):
    """:func:`lower_dimensional` with coordinate i divided by q_i: an affine
    image that spans a proper affine subspace, with denominators."""
    pts = draw(lower_dimensional())
    q = draw(st.lists(st.integers(1, 5), min_size=len(pts[0]),
                      max_size=len(pts[0])))
    return [tuple(Fraction(x, k) for x, k in zip(p, q)) for p in pts]


def slacks_of_hyperplanes(V, object):
    """The slack matrix read off the public hyperplane lists, as its rows
    and its column incidences: entry (i, j) is the slack of point i in
    hyperplane j (:meth:`AffineHyperplane.slack`)."""
    hyperplanes = (facets_from_vertices(V) if object == "polytope"
                   else matroid_hyperplanes(V))
    return ([[hp.slack(p) for hp in hyperplanes] for p in V.points],
            [hp.incident for hp in hyperplanes])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(rational_paraboloid(), four_coplanar(),
                 rational_lower_dimensional()),
       st.sampled_from(["polytope", "matroid"]))
@example([(0, 0), (0, 1), (0, 2)], "matroid")  # ker [1|V] != 0
@example([(0, 0, 0), (3, 0, 0), (3, 2, 0), (0, 2, 0), (Fraction(3, 2), 1, 2)],
         "polytope")  # a pyramid: four coplanar vertices on one facet
def test_slack_matrix_is_the_slacks_of_the_public_hyperplanes(points, object):
    # the integer route of slack_matrix against the Fraction route through
    # facets_from_vertices / matroid_hyperplanes: same entries, column
    # order, incidences and source, or the same error
    V = PointConfiguration(points)
    expected = outcome(slacks_of_hyperplanes, V, object)
    S = outcome(slack_matrix, V, object)
    if isinstance(expected, type):
        assert S is expected
        return
    rows, incidence = expected
    assert S.entries.rows == rows
    assert all(type(x) is Fraction for row in S.entries.rows for x in row)
    assert (S.entries.nrows, S.entries.ncols) == (V.n, len(incidence))
    assert S.incidence == incidence
    assert S.source == object


def test_point_inside_an_edge_on_d_facets_is_not_a_vertex():
    # in the pyramid over an octahedron the edge from the apex to an
    # octahedron vertex lies on 4 facets, and so does its midpoint, which
    # passes a count of facets per point; its facets are a subset of the
    # octahedron vertex's
    octahedron = [tuple(s if k == i else 0 for k in range(4))
                  for i in range(3) for s in (1, -1)]
    midpoint = (Fraction(1, 2), 0, 0, Fraction(1, 2))
    V = PointConfiguration(octahedron + [(0, 0, 0, 1), midpoint])
    with pytest.raises(NonVertexPointError, match=r"points \[7\] "):
        facets_from_vertices(V)
    assert len(reference_facets_from_vertices(V)) == 9


MOMENT_CURVE_40 = [tuple(t ** k for k in range(1, 7)) for t in range(40)]


@pytest.mark.parametrize("search", [
    facets_from_vertices,
    matroid_hyperplanes,
    lambda V: positive_circuits(gale_transform(V)),
], ids=["facets", "matroid", "circuits"])
def test_subset_bound_fails_fast(search):
    # C(40, 6) = 3,838,380 subsets would take over half an hour; the bound
    # is checked before the first one
    V = PointConfiguration(MOMENT_CURVE_40)
    start = time.perf_counter()
    with pytest.raises(TooManySubsetsError, match="3838380 subsets.*1000000"):
        search(V)
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize("points", [[], [(0, 0), (1,)], [(0, 0), (1, 0), (0, 0)]],
                         ids=["empty", "mixed", "duplicate"])
def test_bad_point_configuration(points):
    with pytest.raises(BadPointConfigurationError):
        PointConfiguration(points)


def first_spanning_rows(M, cols):
    """The lexicographically first len(cols) - 1 rows of M that have rank
    len(cols) - 1 on the columns cols."""
    sub = M.submatrix(range(M.nrows), cols)
    return next(r for r in itertools.combinations(range(M.nrows), len(cols) - 1)
                if sub.submatrix(r, range(len(cols))).rank() == len(cols) - 1)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.one_of(full_dimensional(), lower_dimensional()))
def test_plucker_slack_entries_are_pluecker_coordinates(points):
    # oracle: by Cramer's rule entry i of a cofacet's column is
    # (-1)^(position of i) det(rows; C minus i), up to one sign per column,
    # with sympy's determinants of the first spanning rows; with
    # k = rank + 1 those rows are all of G and the entries are
    # +-pluecker(G, C minus i).  A point in every cofacet lies on no facet,
    # so it is no vertex and the fill must name it instead
    def minor(M, cols):
        return sympy_det(M.submatrix(range(M.nrows), cols).rows)

    V = PointConfiguration(points)
    assume(V.n >= V.dim + 1)
    G = gale_transform(V)
    cofacets = [c.support for c in positive_circuits(G)]
    assume(cofacets)
    inside = [i for i in range(V.n) if all(i in c for c in cofacets)]
    if inside:
        with pytest.raises(NonVertexPointError,
                           match=fr"^points {re.escape(str(inside))} are not"):
            slack_from_gale_plucker(G, cofacets)
        return
    S = slack_from_gale_plucker(G, cofacets)
    M = G.matrix
    for cofacet in cofacets:
        j = S.incidence.index(frozenset(range(V.n)) - set(cofacet))
        rows = M.submatrix(first_spanning_rows(M, cofacet), range(V.n))
        column = [S.entries[i, j] for i in range(V.n)]
        minors = [(-1) ** pos * minor(rows, [c for c in cofacet if c != i])
                  for pos, i in enumerate(cofacet)]
        sign = 1 if minors[0] * column[cofacet[0]] > 0 else -1
        assert [column[i] for i in cofacet] == [sign * x for x in minors]
        assert all(x > 0 for x in minors) or all(x < 0 for x in minors)
        assert all(column[i] == 0 for i in range(V.n) if i not in cofacet)
        if len(cofacet) == M.nrows + 1:
            assert [abs(column[i]) for i in cofacet] == \
                [abs(minor(M, [c for c in cofacet if c != i])) for i in cofacet]


def paraboloid(n):
    """n points (x, y, x^2 + y^2) on a grid, all vertices of their hull."""
    grid = [(x, y) for x in range(-2, 3) for y in range(-2, 3)]
    return [(x, y, x * x + y * y) for x, y in grid[:n]]


@pytest.mark.parametrize("search, eliminations", [
    (facets_from_vertices, 1),
    (matroid_hyperplanes, 2),
    (lambda V: positive_circuits(gale_transform(V)), 4),
], ids=["facets", "matroid", "circuits"])
def test_hyperplane_search_eliminations_do_not_grow_with_subsets(
        monkeypatch, search, eliminations):
    # each search eliminates a fixed number of times, not once or twice per
    # (r-1)-subset (C(12, 3) = 220 subsets among 12 points).  Every
    # int_rref is counted, in either module, rank's included; int_kernel
    # reads its basis off an echelon form and eliminates nothing.  The facet
    # search reads its dimension check off the elimination that finds the
    # pivot columns, and the matroid search reads its kernel off it too;
    # the circuits take two for the Gale transform and two for the search
    calls = []

    def counted(f):
        def wrapper(*args):
            calls.append(f)
            return f(*args)
        return wrapper

    monkeypatch.setattr(geometry, "int_rref", counted(geometry.int_rref))
    monkeypatch.setattr(rationals, "int_rref", counted(rationals.int_rref))
    counts = []
    for n in (6, 12):
        V = PointConfiguration(paraboloid(n))
        calls.clear()
        search(V)
        counts.append(len(calls))
    assert counts == [eliminations] * 2


def test_facet_search_memory_stays_with_the_facets():
    # only kept flats are recorded: among the 25 grid points the 2,300
    # subsets of 3 span 1,029 flats, 21 of them facets.  The search peaks
    # at about 43 kB; recording every flat it meets took 0.31 MB
    V = PointConfiguration(paraboloid(25))
    tracemalloc.start()
    try:
        facets = facets_from_vertices(V)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(facets) == 21
    assert peak < 150_000
