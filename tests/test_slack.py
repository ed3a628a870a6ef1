"""Slack matrices, slack ideals, Gale constructions, graphic ideals."""

import hashlib
import itertools
import math
import random
import time
from fractions import Fraction

from slackkit import (GaleTransform, Ideal, PointConfiguration, Polynomial,
                      RationalMatrix, ScaledSlackMatrix, SymbolicSlackMatrix,
                      count_minors, gale_transform,
                      graphic_ideal, ideal_equals, saturate_by_variables,
                      slack_from_gale_circuits, slack_from_gale_plucker,
                      slack_ideal, slack_matrix, specific_slack_matrix,
                      symbolic_slack_matrix)
from slackkit import engine, slack
from slackkit.engine import Ring, normalize
from slackkit.errors import (DegeneratePatternError, NoCircuitsError,
                             NotACofacetError, UnknownNameError)
from slackkit.rationals import denominator_lcm
from slackkit.scaling import dehomogenized_ideal, set_ones, set_ones_forest
from slackkit.slack import (ONE, _nonzero_minors, _unit_triangle,
                            minor_ideal_generators, pattern_minor,
                            unit_triangle_ideal)
from conftest import (PERLES_ONES, PRISM_VERTICES, SQUARE_VERTICES, evaluate,
                      is_multihomogeneous)
from test_geometry import unit_simplex

from hypothesis import example, given, settings, strategies as st
import pytest


def zero_pattern(M: RationalMatrix):
    return [[M[i, j] == 0 for j in range(M.ncols)] for i in range(M.nrows)]


def test_square_slack_matrix_shape():
    S = slack_matrix(SQUARE_VERTICES)
    assert (S.nrows, S.ncols) == (4, 4)
    assert S.rank() == 3
    assert all(sum(1 for i in range(4) if S.entries[i, j] == 0) == 2
               for j in range(4))


def test_square_matroid_slack_matrix():
    S = slack_matrix(SQUARE_VERTICES, object="matroid")
    assert (S.nrows, S.ncols) == (4, 6)
    # each matroid hyperplane of 4 general-position points has 2 zeros
    assert all(len(inc) == 2 for inc in S.incidence)


def test_simplex_slack_matrix_is_diagonal_pattern():
    S = slack_matrix(unit_simplex(3))
    assert (S.nrows, S.ncols) == (4, 4)
    for j in range(4):
        assert sum(1 for i in range(4) if S.entries[i, j] == 0) == 3


def test_symbolic_variables_row_major():
    sym = symbolic_slack_matrix(slack_matrix(SQUARE_VERTICES))
    assert sym.nvars == 8
    cells = sorted(sym.var_at)
    assert [sym.var_at[c] for c in cells] == list(range(8))


def test_symbolic_prism_has_twelve_variables():
    sym = symbolic_slack_matrix(specific_slack_matrix("prism"))
    assert sym.nvars == 12


def test_symbolic_full_pattern():
    sym = symbolic_slack_matrix([[1, 1], [1, 1]])
    assert sym.nvars == 4


def test_symbolic_rejects_zero_row():
    with pytest.raises(DegeneratePatternError):
        symbolic_slack_matrix([[0, 0], [1, 1]])


def test_square_slack_ideal_golden():
    I = slack_ideal(2, slack_matrix(SQUARE_VERTICES))
    assert I.to_strings() == ["x0*x3*x5*x6 - x1*x2*x4*x7"]


@pytest.mark.parametrize("obj", ["polytope", "matroid"])
def test_slack_ideal_of_points_equals_ideal_of_their_matrix(obj):
    expected = slack_ideal(2, slack_matrix(SQUARE_VERTICES, object=obj))
    for points in (list(SQUARE_VERTICES), PointConfiguration(SQUARE_VERTICES)):
        assert slack_ideal(2, points, object=obj).to_strings() == \
            expected.to_strings()


def test_simplex_slack_ideal_is_zero():
    I = slack_ideal(3, slack_matrix(unit_simplex(3)))
    assert I.is_zero()


PRISM_SLACK_BINOMIALS = {
    "x4*x7*x9*x10 - x5*x6*x8*x11",
    "x0*x3*x9*x10 - x1*x2*x8*x11",
    "x0*x3*x5*x6 - x1*x2*x4*x7",
}


def test_prism_slack_ideal():
    I = slack_ideal(3, specific_slack_matrix("prism"))
    assert {g.to_string() for g in I.groebner_basis()} == PRISM_SLACK_BINOMIALS


def test_slack_ideal_generators_multihomogeneous():
    sym = symbolic_slack_matrix(specific_slack_matrix("prism"))
    I = slack_ideal(3, sym)
    assert all(is_multihomogeneous(p, sym) for p in I.generators)


def test_numeric_slack_matrix_lies_on_slack_variety():
    S = slack_matrix(PRISM_VERTICES)
    sym = symbolic_slack_matrix(S)
    values = {v: S.entries[i, j] for (i, j), v in sym.var_at.items()}
    I = slack_ideal(3, S)
    assert all(evaluate(p, values) == 0 for p in I.generators)


def test_gale_circuit_slack_of_square():
    G = GaleTransform(RationalMatrix([[1, -1, 1, -1]]))
    S = slack_from_gale_circuits(G)
    expected = slack_matrix(SQUARE_VERTICES)
    assert zero_pattern(S.entries) == zero_pattern(expected.entries)
    assert all(S.entries[i, j] in (0, 1) for i in range(4) for j in range(4))


def test_gale_circuit_slack_of_simplex():
    G = gale_transform(PointConfiguration(unit_simplex(2)))
    S = slack_from_gale_circuits(G)
    assert (S.nrows, S.ncols) == (3, 3)
    for j in range(3):
        assert sum(1 for i in range(3) if S.entries[i, j] == 0) == 2


def test_gale_circuit_slack_single_column():
    G = GaleTransform(RationalMatrix([[1, -1]]))
    S = slack_from_gale_circuits(G)
    assert S.entries.to_lists() == [["1"], ["1"]]


def test_gale_circuit_slack_without_a_positive_circuit():
    # [1, 1] has no positive circuit: no polytope has this Gale transform
    G = GaleTransform(RationalMatrix([[1, 1]]))
    with pytest.raises(NoCircuitsError,
                       match="^no positive circuit: not a polytope Gale"):
        slack_from_gale_circuits(G)


def test_plucker_slack_matches_circuits():
    for pts in (SQUARE_VERTICES, PRISM_VERTICES):
        G = gale_transform(PointConfiguration(pts))
        circuits = slack_from_gale_circuits(G)
        cofacets = [tuple(sorted(set(range(len(pts))) - inc))
                    for inc in circuits.incidence]
        plucker = slack_from_gale_plucker(G, cofacets)
        assert zero_pattern(plucker.entries) == zero_pattern(circuits.entries)
        # columns agree up to positive scaling
        for j in range(circuits.ncols):
            rows = [i for i in range(circuits.nrows)
                    if circuits.entries[i, j] != 0]
            ratio = plucker.entries[rows[0], j] / circuits.entries[rows[0], j]
            assert ratio > 0
            for i in rows:
                assert plucker.entries[i, j] == ratio * circuits.entries[i, j]


def test_plucker_rejects_non_cofacet():
    G = GaleTransform(RationalMatrix([[1, -1, 1, -1]]))
    with pytest.raises(NotACofacetError):
        slack_from_gale_plucker(G, [(0, 2)])


PLUCKER_GALE = [[1, 2, -3, 0, 0], [0, 0, 0, 1, -1]]


@pytest.mark.parametrize("cofacet, message", [
    ([], "[] does not support a circuit"),
    ([0, 0], "[0, 0] does not support a circuit"),
    ([0, 3], "[0, 3] does not support a circuit"),  # independent columns
    ([0, 1, 2], "[0, 1, 2] does not support a circuit"),  # rank 1 < k - 1
    ([0, 1], "[0, 1] has no positive dependence"),
    ([0, 1, 2, 3], "cofacet [0, 1, 2, 3] has size 4, expected at most 3"),
    ([0, 5], "[0, 5] has a point outside 0..4"),
], ids=["empty", "duplicate", "independent", "low-rank", "not-positive",
        "too-large", "outside"])
def test_plucker_rejects_non_cofacets_by_name(cofacet, message):
    G = GaleTransform(RationalMatrix(PLUCKER_GALE))
    with pytest.raises(NotACofacetError) as info:
        slack_from_gale_plucker(G, [cofacet])
    assert str(info.value) == message


@pytest.mark.parametrize("first", [[2.0, 3], [True, 3]], ids=["float", "bool"])
def test_plucker_rejects_a_point_that_is_not_an_int(first):
    # 2.0 and True pass 0 <= i < n: a float once indexed no list, and True
    # was read as point 1
    G = gale_transform(PointConfiguration(SQUARE_VERTICES))
    assert slack_from_gale_plucker(G, [[2, 3], [1, 2], [0, 3], [0, 1]]).nrows == 4
    with pytest.raises(NotACofacetError) as info:
        slack_from_gale_plucker(G, [first, [1, 2], [0, 3], [0, 1]])
    assert str(info.value) == f"{first} has a point that is not an int"


def test_plucker_column_below_full_size():
    # columns 0 and 2, (1, 0) and (-3, 0), are parallel: a cofacet of size 2
    # in a rank-2 Gale, whose column is the cofactor vector of the first row
    G = GaleTransform(RationalMatrix(PLUCKER_GALE))
    S = slack_from_gale_plucker(G, [(2, 0), (4, 3)])
    assert S.entries.to_lists() == [["0", "3"], ["0", "0"], ["0", "1"],
                                    ["1", "0"], ["1", "0"]]


def test_plucker_rejects_a_low_rank_cofacet_fast():
    # 30 rows of rank 10 on 16 columns: a walk through every independent
    # prefix would visit millions of row sets before finding no 15
    # independent ones
    rng = random.Random(0)
    base = [[rng.randint(-3, 3) for _ in range(16)] for _ in range(10)]
    rows = []
    for _ in range(30):
        coeffs = [rng.randint(-2, 2) for _ in base]
        rows.append([sum(c * b[j] for c, b in zip(coeffs, base))
                     for j in range(16)])
    G = GaleTransform(RationalMatrix(rows))
    start = time.perf_counter()
    with pytest.raises(NotACofacetError, match="does not support a circuit"):
        slack_from_gale_plucker(G, [range(16)])
    assert time.perf_counter() - start < 5


def test_plucker_simplex_singletons():
    # singleton cofacets give one 1 per column (canonical incidence order)
    G = GaleTransform(RationalMatrix.zero(0, 3))
    S = slack_from_gale_plucker(G, [(0,), (1,), (2,)])
    pattern = zero_pattern(S.entries)
    assert sorted(pattern) == [
        [False, True, True],
        [True, False, True],
        [True, True, False]]


def test_plucker_singletons_of_a_tetrahedron():
    # a tetrahedron's Gale transform has no rows: each singleton cofacet
    # has the empty row set and cofactor vector (1), so its column is one 1
    G = gale_transform(PointConfiguration(unit_simplex(3)))
    assert G.matrix.nrows == 0
    S = slack_from_gale_plucker(G, [[i] for i in range(4)])
    assert S.entries.to_lists() == [["0", "0", "0", "1"], ["0", "0", "1", "0"],
                                    ["0", "1", "0", "0"], ["1", "0", "0", "0"]]
    with pytest.raises(NotACofacetError, match=r"^\[\] does not support a circuit$"):
        slack_from_gale_plucker(G, [[]])
    with pytest.raises(NotACofacetError,
                       match=r"^cofacet \[0, 1\] has size 2, expected at most 1$"):
        slack_from_gale_plucker(G, [[0, 1]])


def test_graphic_ideal_of_square():
    I = graphic_ideal(symbolic_slack_matrix(slack_matrix(SQUARE_VERTICES)))
    assert I.to_strings() == ["x0*x3*x5*x6 - x1*x2*x4*x7"]


def test_graphic_ideal_of_simplex_is_zero():
    # a simplex's non-incidence graph is a perfect matching: no cycles
    I = graphic_ideal(symbolic_slack_matrix(slack_matrix(unit_simplex(2))))
    assert I.is_zero()


def test_graphic_ideal_binomials_multihomogeneous():
    sym = symbolic_slack_matrix(specific_slack_matrix("prism"))
    I = graphic_ideal(sym)
    for p in I.generators:
        assert is_multihomogeneous(p, sym)
        assert sorted(p.terms.values()) == [Fraction(-1), Fraction(1)]


def test_graphic_ideal_of_prism_equals_slack_ideal():
    sym = symbolic_slack_matrix(specific_slack_matrix("prism"))
    assert ideal_equals(graphic_ideal(sym), slack_ideal(3, sym))


def lattice_graphic_ideal(sym):
    """The toric ideal by the lattice route: one binomial x^(u+) - x^(u-)
    per vector u of an integer basis of the kernel of the node-edge
    incidence matrix (the RREF kernel basis of this totally unimodular
    matrix is one), saturated by every variable."""
    rows = [[0] * sym.nvars for _ in range(sym.nrows + sym.ncols)]
    for (i, j), v in sym.var_at.items():
        rows[i][v] = rows[sym.nrows + j][v] = 1
    gens = []
    for vec in RationalMatrix(rows).kernel_basis().rows:
        scale = denominator_lcm(vec)
        ints = [int(x * scale) for x in vec]
        u = [c // math.gcd(*ints) for c in ints]
        gens.append(Polynomial.monomial(tuple(max(c, 0) for c in u), sym.nvars)
                    - Polynomial.monomial(tuple(max(-c, 0) for c in u), sym.nvars))
    if not gens:
        return Ideal([], nvars=sym.nvars)
    return saturate_by_variables(Ideal(gens, nvars=sym.nvars), range(sym.nvars))


patterns = st.integers(2, 5).flatmap(lambda r: st.integers(2, 6).flatmap(
    lambda c: st.lists(st.lists(st.booleans(), min_size=c, max_size=c),
                       min_size=r, max_size=r))).filter(
    lambda rows: all(map(any, rows)) and all(map(any, zip(*rows))))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(patterns)
@example([[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 1, 1]])
@example([[1, 1, 0, 0, 0], [1, 1, 0, 0, 0], [0, 0, 1, 1, 1], [0, 0, 1, 1, 1],
          [0, 0, 1, 0, 1]])
@example([[1, 0, 1, 1, 0], [0, 1, 1, 0, 1], [1, 1, 0, 1, 1], [1, 0, 1, 0, 1],
          [0, 1, 1, 1, 0]])
def test_graphic_ideal_matches_lattice_route(rows):
    # the examples: two 4-cycles apart, a 4-cycle beside a K_{3,3} minus an
    # edge (disconnected graphs), and a connected graph of cycle rank 7
    sym = symbolic_slack_matrix(rows)
    assert graphic_ideal(sym).to_strings() == lattice_graphic_ideal(sym).to_strings()


def test_perles_graphic_ideal_golden():
    # the stdout of `slackkit graphic-ideal --builtin perles-reduced`, which
    # the lattice route above takes minutes to reproduce
    lines = graphic_ideal(specific_slack_matrix("perles-reduced")).to_strings()
    assert len(lines) == 266
    assert hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest() == \
        "2e38d18e1a2126970c717fd8149753b23cd6c7d5056ba933dffb7c7049172a4f"


def test_sphere1963_slack_ideal_is_unit():
    # the paper's second application: the slack ideal of the reduced slack
    # matrix of sphere #1963 (d = 4) is the unit ideal, so the sphere is not
    # realizable as a polytope
    I = slack_ideal(4, specific_slack_matrix("sphere1963-reduced"))
    assert I.to_strings() == ["1"]


def test_builtin_shapes():
    square = specific_slack_matrix("square")
    assert (square.nrows, square.ncols) == (4, 4)
    assert sum(len(row) - row.count(False) for row in square.support()) == 8
    perles = specific_slack_matrix("perles-reduced")
    assert (perles.nrows, perles.ncols) == (12, 13)
    assert perles.nvars == 36
    sphere = specific_slack_matrix("sphere1963-reduced")
    assert (sphere.nrows, sphere.ncols) == (14, 6)
    assert isinstance(sphere, ScaledSlackMatrix)


def test_builtin_unknown_name():
    with pytest.raises(UnknownNameError):
        specific_slack_matrix("dodecahedron")


def test_count_minors_values():
    assert count_minors(8, nrows=12, ncols=34) == 8654457240
    assert count_minors(8, nrows=12, ncols=13) == 18876
    assert count_minors(2, nrows=4, ncols=4) == 1
    assert count_minors(5, nrows=4, ncols=4) == 0


# -- minor enumeration -------------------------------------------------------


def numbered(cells):
    """The entry grid of a pattern given as rows of "0"/"1"/"x" cells, each
    "1" a variable scaled to one."""
    sym = SymbolicSlackMatrix([[c != "0" for c in row] for row in cells])
    # built directly: the drawn "1" cells may close a cycle, which a
    # ScaledSlackMatrix rejects, and minor enumeration does not care
    grid = [[ONE if c == "1" else v for c, v in zip(row, cells_of_row)]
            for row, cells_of_row in zip(cells, sym.grid)]
    return grid, sym.nvars


def enumerated(grid, nvars, k):
    """_nonzero_minors' output with each determinant unpacked to
    {exponent tuple: int}."""
    ring = Ring(nvars, [range(nvars)])
    return [(rows, cols, {ring.unpack(m): a for m, a in f.items()})
            for rows, cols, f in _nonzero_minors(grid, k, ring)]


grids = st.integers(1, 6).flatmap(lambda r: st.integers(1, 7).flatmap(
    lambda c: st.lists(st.lists(st.sampled_from("01x"), min_size=c, max_size=c),
                       min_size=r, max_size=r)))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(grids)
@example(["x1x0x1x", "0xx1x0x", "1x0xx1x", "xx1x0xx", "0x1xx1x", "x0xx1x1"])
def test_nonzero_minors_match_pattern_minor(cells):
    # pattern_minor is the independent oracle: exact signed determinants, the
    # same lexicographic (rows, cols) order, and exactly the zero minors left out
    grid, nvars = numbered(cells)
    nrows, ncols = len(grid), len(grid[0])
    for k in range(1, min(nrows, ncols) + 1):
        expected = []
        for rows in itertools.combinations(range(nrows), k):
            for cols in itertools.combinations(range(ncols), k):
                p = pattern_minor(grid, rows, cols, nvars)
                if not p.is_zero():
                    expected.append((rows, cols, p.terms))
        assert enumerated(grid, nvars, k) == expected


def test_nonzero_minors_match_sympy_determinants():
    sympy = pytest.importorskip("sympy")
    cases = [numbered(["xx1", "x0x", "1xx"]),
             numbered(["x1x0", "0xx1", "1x0x", "xx1x"]),
             numbered(["x1x0x", "0xx1x", "1x0xx", "xx1x0", "0x1xx"])]
    Y = set_ones(specific_slack_matrix("prism"), [0, 2, 4, 6, 7])
    cases.append((Y.grid, Y.nvars))
    for grid, nvars in cases:
        syms = sympy.symbols(f"x0:{nvars}") if nvars else ()
        entry = [[0 if v is None else 1 if v == ONE else syms[v] for v in row]
                 for row in grid]
        k = min(len(grid), len(grid[0]))
        found = enumerated(grid, nvars, k)
        assert found
        for rows, cols, terms in found:
            det = sympy.Matrix([[entry[r][c] for c in cols] for r in rows]).det()
            ours = sum(a * sympy.Mul(*[s ** e for s, e in zip(syms, m)])
                       for m, a in terms.items())
            assert sympy.expand(det - ours) == 0


def test_perles_minor_work_counts(monkeypatch):
    # deterministic counts that catch an algorithmic regression timing hides:
    # of the 18,876 10-minors, 16,497 are nonzero, 7,325 distinct up to sign
    # and content, and they interreduce to 15 generators.  Their terms hold
    # 791 distinct monomials; the interreduction runs the heap reduction
    # once per distinct minor
    Y = set_ones(specific_slack_matrix("perles-reduced"), PERLES_ONES)
    ring = Ring(Y.nvars, [range(Y.nvars)])
    minors = [f for _, _, f in _nonzero_minors(Y.grid, 10, ring)]
    assert count_minors(8, Y) == 18876
    assert len(minors) == 16497
    distinct = {tuple(normalize(sorted(f.items(), reverse=True)))
                for f in minors}
    assert len(distinct) == 7325
    assert len({m for f in distinct for m, _ in f}) == 791
    reduce = engine.Reducer.reduce
    calls = []

    def counted(self, *args):
        calls.append(None)
        return reduce(self, *args)

    monkeypatch.setattr(engine.Reducer, "reduce", counted)
    assert len(minor_ideal_generators(8, Y)) == 15
    assert len(calls) == 7325


# -- unit triangles ----------------------------------------------------------


@st.composite
def scaled_patterns(draw):
    """A support pattern of at most 6 x 7 cells with ones on a random forest
    of its non-incidence graph, and a minor size k in 2..5."""
    nrows, ncols = draw(st.integers(1, 6)), draw(st.integers(1, 7))
    sym = SymbolicSlackMatrix(draw(st.lists(
        st.lists(st.booleans(), min_size=ncols, max_size=ncols),
        min_size=nrows, max_size=nrows)))
    parent = {}

    def find(x):
        while parent.get(x, x) != x:
            x = parent[x]
        return x

    ones = []
    for v in draw(st.permutations(range(sym.nvars))):
        i, j = sym.cell_of[v]
        a, b = find(("r", i)), find(("c", j))
        if a != b and draw(st.booleans()):
            parent[a] = b
            ones.append(v)
    return ScaledSlackMatrix(sym, ones), draw(st.integers(2, 5))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(scaled_patterns())
def test_unit_triangle_is_a_monomial_minor(case):
    Y, k = case
    grid, nvars = Y.grid, Y.nvars
    rows, cols = _unit_triangle(grid, k)
    assert len(rows) == len(cols) <= k - 1
    for i, r in enumerate(rows):
        assert grid[r][cols[i]] is not None
        assert all(grid[r][c] is None for c in cols[i + 1:])
    det = pattern_minor(grid, sorted(rows), sorted(cols), nvars)
    assert [abs(c) for c in det.terms.values()] == [1]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(scaled_patterns(), st.data())
def test_restricted_minors_are_the_containing_subset(case, data):
    # the pruned pass yields exactly the unrestricted minors whose rows and
    # columns contain rows0 and cols0, in the same order; for the unit
    # triangle and for arbitrary subsets of at most k - 1 rows and columns
    Y, k = case
    grid, nvars = Y.grid, Y.nvars
    ring = Ring(nvars, [range(nvars)])
    nrows, ncols = len(grid), len(grid[0])
    full = list(_nonzero_minors(grid, k, ring))
    subsets = [_unit_triangle(grid, k), (
        data.draw(st.sets(st.integers(0, nrows - 1), max_size=min(k - 1, nrows))),
        data.draw(st.sets(st.integers(0, ncols - 1), max_size=min(k - 1, ncols))))]
    for rows0, cols0 in subsets:
        expected = [(rows, cols, f) for rows, cols, f in full
                    if set(rows0) <= set(rows) and set(cols0) <= set(cols)]
        assert list(_nonzero_minors(grid, k, ring, rows0, cols0)) == expected


def saturated_basis(ideal, Y):
    return saturate_by_variables(ideal, Y.surviving_variables()).groebner_basis()


PENTAGON = [(0, 0), (2, 0), (3, 2), (1, 4), (-1, 2)]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(scaled_patterns())
@example((set_ones_forest(slack_matrix(PENTAGON))[0], 4))
@example((set_ones_forest(slack_matrix(PRISM_VERTICES))[0], 5))
@example((set_ones_forest(slack_matrix(PENTAGON, object="matroid"))[0], 3))
@example((set_ones(specific_slack_matrix("perles-reduced"), PERLES_ONES), 10))
@example((specific_slack_matrix("sphere1963-reduced"), 6))
def test_unit_triangle_minors_saturate_like_all_minors(case):
    # Sylvester's identity: once the triangle's monomial is a unit, the minors
    # through it generate the ideal all minors generate.  The Perles and
    # sphere examples are the paper's instances, past the drawn sizes
    Y, k = case
    all_minors = Ideal(minor_ideal_generators(k - 2, Y), nvars=Y.nvars)
    assert (saturated_basis(unit_triangle_ideal(k - 2, Y), Y)
            == saturated_basis(all_minors, Y)
            == dehomogenized_ideal(k - 2, Y).groebner_basis())


def test_unit_triangle_work_counts(monkeypatch):
    # deterministic counts of the saturated path: Perles gets a 9-row unit
    # triangle, so 3 x 4 = 12 of its 10-minors are enumerated instead of
    # 16,497; sphere #1963 gets 9.  Every heap reduction of the Perles
    # dehomogenized ideal (interreduction and the one elimination of t that
    # saturates by the surviving variables) is counted too
    Y = set_ones(specific_slack_matrix("perles-reduced"), PERLES_ONES)
    rows0, cols0 = _unit_triangle(Y.grid, 10)
    assert len(rows0) == len(cols0) == 9
    assert len(unit_triangle_ideal(8, Y).generators) == 12
    nonzero_minors = slack._nonzero_minors
    enumerated = []

    def counted_minors(*args):
        for minor in nonzero_minors(*args):
            enumerated.append(minor)
            yield minor

    reduce = engine.Reducer.reduce
    calls = []

    def counted_reduce(self, *args):
        calls.append(None)
        return reduce(self, *args)

    monkeypatch.setattr(slack, "_nonzero_minors", counted_minors)
    monkeypatch.setattr(engine.Reducer, "reduce", counted_reduce)
    assert len(dehomogenized_ideal(8, Y).groebner_basis()) == 12
    assert len(enumerated) == 12
    assert len(calls) == 266
    enumerated.clear()
    sphere = specific_slack_matrix("sphere1963-reduced")
    unit = [Polynomial.constant(1, sphere.nvars)]
    assert dehomogenized_ideal(4, sphere).groebner_basis() == unit
    assert len(enumerated) == 9
