"""Forest scaling, dehomogenization, rehomogenization, reduction,
certificates."""

import functools
import itertools
import random
import time
from fractions import Fraction

from slackkit import (BUILTIN_NAMES, Ideal, NonIncidenceGraph, Polynomial,
                      RationalMatrix, ScaledSlackMatrix, SymbolicSlackMatrix,
                      contains_flag, count_minors, dehomogenized_ideal,
                      forest_from_ones, graphic_ideal, ideal_equals,
                      irrationality_certificate, minor_ideal_generators,
                      non_incidence_graph, pluecker, rational_roots,
                      reduced_slack_matrix, rehomogenize_ideal,
                      rehomogenize_poly, set_ones, set_ones_forest,
                      slack_ideal, slack_matrix, specific_slack_matrix,
                      symbolic_slack_matrix)
from slackkit.errors import (NeedsNumericDataError, NeedsScaledMatrixError,
                             NotAForestError, SlackkitError,
                             UniverseMismatchError)
from slackkit.scaling import forest_weights
from slackkit.slack import ONE, pattern_minor, unit_triangle_ideal
from conftest import (PERLES_ONES, PRISM_VERTICES, SQUARE_VERTICES,
                      is_multihomogeneous, poly)
from test_geometry import unit_simplex

import pytest
from hypothesis import example, given, settings, strategies as st

# spanning forest of the prism's non-incidence graph used throughout:
# every variable except x7 and x11
PRISM_FOREST_ONES = (0, 1, 2, 3, 4, 5, 6, 8, 9, 10)


def prism_sym():
    return symbolic_slack_matrix(specific_slack_matrix("prism"))


def test_non_incidence_graph_square_is_cycle():
    g = non_incidence_graph(symbolic_slack_matrix(slack_matrix(SQUARE_VERTICES)))
    assert len(g.nodes) == 8
    assert len(g.edges) == 8
    assert all(len(g.adjacency[n]) == 2 for n in g.nodes)


def test_non_incidence_graph_prism():
    g = non_incidence_graph(prism_sym())
    assert len(g.nodes) == 11
    assert len(g.edges) == 12


def test_set_ones_forest_survivor_counts():
    for name, expected in ((prism_sym(), 2),
                           (symbolic_slack_matrix(slack_matrix(SQUARE_VERTICES)), 1)):
        scaled, forest = set_ones_forest(name)
        assert len(scaled.surviving_variables()) == expected
        assert len(forest.edges) == name.nvars - expected


def test_set_ones_forest_single_cell():
    scaled, forest = set_ones_forest(symbolic_slack_matrix([[1]]))
    assert scaled.surviving_variables() == []
    assert len(forest.edges) == 1


def test_forest_size_matches_components():
    for sym in (prism_sym(), specific_slack_matrix("perles-reduced")):
        g = non_incidence_graph(sym)
        _, forest = set_ones_forest(sym)
        components = len(forest.roots)
        assert len(forest.edges) == len(g.nodes) - components


PENTAGON = [(0, 0), (2, 0), (3, 2), (1, 4), (-1, 2)]


@st.composite
def support_patterns(draw):
    """A 0/1 pattern of at most 7 x 7 cells."""
    nrows, ncols = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    return SymbolicSlackMatrix(draw(st.lists(
        st.lists(st.booleans(), min_size=ncols, max_size=ncols),
        min_size=nrows, max_size=nrows)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(support_patterns())
@example(prism_sym())
@example(specific_slack_matrix("perles-reduced"))
@example(symbolic_slack_matrix(slack_matrix(SQUARE_VERTICES)))
@example(symbolic_slack_matrix(slack_matrix(PENTAGON)))
@example(symbolic_slack_matrix(slack_matrix(PENTAGON, object="matroid")))
def test_bfs_forest_is_the_forest_of_its_ones(sym):
    # rehomogenize_ideal walks the forest a scaled matrix builds from its
    # ones, so the slack ideal walks the BFS forest that set_ones_forest scaled
    Y, F = set_ones_forest(sym)
    assert forest_from_ones(Y) == F == non_incidence_graph(sym).spanning_forest()


def test_set_ones_accepts_spanning_tree():
    scaled = set_ones(specific_slack_matrix("perles-reduced"), PERLES_ONES)
    assert len(scaled.ones_at) == 24  # 25 graph nodes - 1
    assert len(scaled.surviving_variables()) == 12


def test_set_ones_rejects_cycle():
    sym = symbolic_slack_matrix(slack_matrix(SQUARE_VERTICES))
    with pytest.raises(NotAForestError):
        set_ones(sym, range(8))  # the whole 8-cycle


def test_set_ones_rejects_a_float_index():
    # 0.0 in range(8) holds, and set_ones once read 0.0 as x0
    sym = symbolic_slack_matrix(slack_matrix(SQUARE_VERTICES))
    with pytest.raises(UniverseMismatchError,
                       match=r"^variable index 0\.0 is not an int$"):
        set_ones(sym, [0.0])


def test_scaled_matrix_rejects_a_cycle_of_ones():
    # the constructor itself checks the forest: all 8 cells of the square
    # close its 8-cycle, which once gave the zero ideal instead of an error
    sym = symbolic_slack_matrix(specific_slack_matrix("square"))
    with pytest.raises(NotAForestError, match="^variable x4 closes a cycle$"):
        ScaledSlackMatrix(sym, range(8))


def test_forest_from_ones_is_the_forest_the_matrix_carries():
    Y = set_ones(prism_sym(), PRISM_FOREST_ONES)
    assert forest_from_ones(Y) is Y.forest
    assert Y.forest.variables == Y.ones_at


def test_a_numeric_matrix_gives_its_pattern_and_no_ones():
    # the minors read a numeric matrix's pattern; the ideals of a scaled
    # matrix need its ones, and say how to get them
    S = slack_matrix(SQUARE_VERTICES)
    sym = symbolic_slack_matrix(S)
    assert minor_ideal_generators(2, S) == minor_ideal_generators(2, sym)
    assert (unit_triangle_ideal(2, S).generators
            == unit_triangle_ideal(2, sym).generators)
    for build in (dehomogenized_ideal, rehomogenize_ideal):
        for M in (S, sym):
            with pytest.raises(NeedsScaledMatrixError,
                               match="set_ones or set_ones_forest"):
                build(2, M)


def test_a_pattern_carries_its_grid_and_graph():
    # a cell is None for a zero, else its variable; a scaled matrix puts ONE
    # at its ones and runs its forest on the pattern's own graph
    sym = symbolic_slack_matrix(specific_slack_matrix("square"))
    assert sym.grid == [[None, 0, None, 1], [2, None, None, 3],
                        [None, 4, 5, None], [6, None, 7, None]]
    assert non_incidence_graph(sym) is sym.graph
    Y = set_ones(sym, [0, 1, 2, 3, 5, 6, 7])
    assert Y.grid == [[None, ONE, None, ONE], [ONE, None, None, ONE],
                      [None, 4, ONE, None], [ONE, None, ONE, None]]
    assert Y.forest == sym.graph.spanning_forest(Y.ones_at)


@pytest.mark.parametrize("build", [functools.partial(slack_ideal, 2),
                                   graphic_ideal])
def test_an_ideal_of_a_pattern_builds_its_graph_once(monkeypatch, build):
    # the pattern builds its non-incidence graph, and the BFS forest, the
    # scaled matrix's forest check and the edge weights all read that one
    init = NonIncidenceGraph.__init__
    built = []

    def counted(self, sym):
        built.append(sym)
        init(self, sym)

    monkeypatch.setattr(NonIncidenceGraph, "__init__", counted)
    build(slack_matrix(PENTAGON))
    assert len(built) == 1


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_every_builtin_constructs(name):
    assert specific_slack_matrix(name).nrows > 0


def test_sphere1963_ones_are_a_spanning_tree():
    Y = specific_slack_matrix("sphere1963-reduced")
    assert len(Y.ones_at) == 19 == Y.nrows + Y.ncols - 1
    assert Y.forest.variables == Y.ones_at
    assert len(Y.forest.roots) == 1


def test_set_ones_empty_set():
    sym = prism_sym()
    scaled = set_ones(sym, ())
    assert scaled.surviving_variables() == list(range(12))


def test_prism_dehomogenized_ideal():
    Y = set_ones(prism_sym(), PRISM_FOREST_ONES)
    I = dehomogenized_ideal(3, Y)
    assert {g.to_string() for g in I.groebner_basis()} == {"x7 - 1", "x11 - 1"}


def test_simplex_dehomogenized_ideal_is_zero():
    sym = symbolic_slack_matrix(slack_matrix(unit_simplex(3)))
    Y, _ = set_ones_forest(sym)
    assert dehomogenized_ideal(3, Y).is_zero()


PERLES_DEHOMOGENIZED = {
    "x35^2 + x35 - 1",
    "x33 - x35 - 1",
    "x24 - x35",
    "x23 - x35",
    "x22 - 1",
    "x19 - x35",
    "x18 - x35",
    "x13 - x35 - 1",
    "x11 - x35",
    "x10 - 1",
    "x2 - 1",
    "x1 - x35 - 1",
}


def test_perles_dehomogenized_ideal():
    Y = set_ones(specific_slack_matrix("perles-reduced"), PERLES_ONES)
    I = dehomogenized_ideal(8, Y)
    assert {g.to_string() for g in I.groebner_basis()} == PERLES_DEHOMOGENIZED


def test_rehomogenize_leaf_trace():
    Y = set_ones(prism_sym(), PRISM_FOREST_ONES)
    F = forest_from_ones(Y)
    p = poly(12, (1, {7: 1}), (-1, {11: 1}))  # x7 - x11
    assert rehomogenize_poly(p, Y, F).to_string() == \
        "x4*x7*x9*x10 - x5*x6*x8*x11"


def test_rehomogenize_constant_term():
    Y = set_ones(prism_sym(), PRISM_FOREST_ONES)
    F = forest_from_ones(Y)
    p = poly(12, (1, {7: 1}), (-1, {}))  # x7 - 1
    expected = poly(12, (1, {1: 1, 2: 1, 4: 1, 7: 1}),
                    (-1, {0: 1, 3: 1, 5: 1, 6: 1}))
    assert rehomogenize_poly(p, Y, F) == expected


def test_rehomogenize_fixes_multihomogeneous_input():
    Y = set_ones(prism_sym(), PRISM_FOREST_ONES)
    F = forest_from_ones(Y)
    p = poly(12, (1, {0: 1, 3: 1, 5: 1, 6: 1}), (-1, {1: 1, 2: 1, 4: 1, 7: 1}))
    assert rehomogenize_poly(p, Y, F) == p


def test_rehomogenized_polys_multihomogeneous():
    sym = prism_sym()
    Y = set_ones(sym, PRISM_FOREST_ONES)
    F = forest_from_ones(Y)
    for g in dehomogenized_ideal(3, Y).groebner_basis():
        assert is_multihomogeneous(rehomogenize_poly(g, Y, F), sym)


PRISM_SLACK_BINOMIALS = {
    "x4*x7*x9*x10 - x5*x6*x8*x11",
    "x0*x3*x9*x10 - x1*x2*x8*x11",
    "x0*x3*x5*x6 - x1*x2*x4*x7",
}


def test_prism_rehomogenized_ideal():
    Y = set_ones(prism_sym(), PRISM_FOREST_ONES)
    H = rehomogenize_ideal(3, Y)
    assert {g.to_string() for g in H.groebner_basis()} == PRISM_SLACK_BINOMIALS


def test_prism_rehomogenized_equals_slack_ideal():
    Y = set_ones(prism_sym(), PRISM_FOREST_ONES)
    assert ideal_equals(rehomogenize_ideal(3, Y),
                        slack_ideal(3, specific_slack_matrix("prism")))


def test_square_rehomogenized_equals_slack_ideal():
    sym = symbolic_slack_matrix(slack_matrix(SQUARE_VERTICES))
    Y, _ = set_ones_forest(sym)
    assert ideal_equals(rehomogenize_ideal(2, Y), slack_ideal(2, sym))


def test_simplex_rehomogenized_ideal_is_zero():
    sym = symbolic_slack_matrix(slack_matrix(unit_simplex(3)))
    Y, _ = set_ones_forest(sym)
    assert rehomogenize_ideal(3, Y).is_zero()


def divide_by_common_forest_factor(p, forest_vars, order=None):
    """Divide p by the product of forest variables dividing every term."""
    common = None
    for mono in p.terms:
        masked = tuple(e if i in forest_vars else 0
                       for i, e in enumerate(mono))
        if common is None:
            common = masked
        else:
            common = tuple(min(a, b) for a, b in zip(common, masked))
    return Polynomial(p.nvars, {tuple(a - b for a, b in zip(m, common)): c
                                for m, c in p.terms.items()})


def test_rehomogenize_inverts_dehomogenize_on_prism_minors():
    # every 5x5 minor of the prism: H(p^F) = p / common forest factor
    sym = prism_sym()
    Y = set_ones(sym, PRISM_FOREST_ONES)
    F = forest_from_ones(Y)
    forest_vars = set(PRISM_FOREST_ONES)
    for rows in itertools.combinations(range(6), 5):
        p = pattern_minor(sym.grid, rows, range(5), sym.nvars)
        if p.is_zero():
            continue
        dehom = p.substitute_ones(forest_vars)
        assert rehomogenize_poly(dehom, Y, F) == \
            divide_by_common_forest_factor(p, forest_vars)


def test_rehomogenize_inverts_dehomogenize_on_perles_minors():
    # criterion 5 at Perles scale: 50 seeded nonzero 10-minors
    sym = specific_slack_matrix("perles-reduced")
    Y = set_ones(sym, PERLES_ONES)
    F = forest_from_ones(Y)
    forest_vars = set(PERLES_ONES)
    rng = random.Random(0)
    checked = 0
    while checked < 50:
        rows = sorted(rng.sample(range(sym.nrows), 10))
        cols = sorted(rng.sample(range(sym.ncols), 10))
        p = pattern_minor(sym.grid, rows, cols, sym.nvars)
        if p.is_zero():
            continue
        dehom = p.substitute_ones(forest_vars)
        assert rehomogenize_poly(dehom, Y, F) == \
            divide_by_common_forest_factor(p, forest_vars)
        assert rehomogenize_poly(p, Y, F) == p  # a minor is multihomogeneous
        checked += 1


def test_rehomogenize_rejects_a_polynomial_of_another_ring():
    Y = set_ones(specific_slack_matrix("perles-reduced"), PERLES_ONES)
    F = forest_from_ones(Y)
    p = poly(5, (1, {0: 1}), (-1, {4: 2}))
    with pytest.raises(UniverseMismatchError):
        rehomogenize_poly(p, Y, F)


def test_rehomogenize_poly_needs_a_scaled_matrix():
    S = slack_matrix(SQUARE_VERTICES)
    F = set_ones_forest(S)[1]
    p = Polynomial.variable(0, 8)
    for M in (S, symbolic_slack_matrix(S)):
        with pytest.raises(NeedsScaledMatrixError,
                           match="set_ones or set_ones_forest"):
            rehomogenize_poly(p, M, F)
        with pytest.raises(NeedsScaledMatrixError):
            forest_from_ones(M)


def test_rehomogenize_poly_rejects_another_forest():
    # the prism's forest names lines the square does not have; the BFS
    # forest of the Perles pattern fits it but is not the forest of the
    # paper's ones, and would step the wrong edges without a word
    square = set_ones_forest(slack_matrix(SQUARE_VERTICES))[0]
    prism_forest = set_ones_forest(prism_sym())[1]
    perles = specific_slack_matrix("perles-reduced")
    paper = set_ones(perles, PERLES_ONES)
    bfs_forest = set_ones_forest(perles)[1]
    assert bfs_forest.variables != paper.forest.variables
    for Y, F in [(square, prism_forest), (paper, bfs_forest)]:
        with pytest.raises(NotAForestError, match=r"forest_from_ones\(Y\)"):
            rehomogenize_poly(Polynomial.variable(0, Y.nvars), Y, F)
    # an equal forest built again is accepted
    again = set_ones(perles, PERLES_ONES).forest
    assert again is not paper.forest
    p = Polynomial.variable(0, paper.nvars)
    assert rehomogenize_poly(p, paper, again) == \
        rehomogenize_poly(p, paper, paper.forest)


@pytest.mark.parametrize("call", [
    lambda: pluecker(RationalMatrix([[1, 2], [3, 4]]), [-1, 0]),
    lambda: pluecker(RationalMatrix([[1, 2], [3, 4]]), [0, 5]),
    lambda: rational_roots(poly(2, (1, {1: 1}), (-3, {})), -1),
    lambda: rational_roots(poly(1, (1, {0: 1}), (-1, {})), 5),
    lambda: rational_roots(poly(2, (1, {1: 1}), (-3, {})), 1.0),
    lambda: count_minors(2),
    lambda: count_minors(2, nrows=4),
], ids=["pluecker-negative", "pluecker-beyond", "roots-negative",
        "roots-beyond", "roots-float", "count-minors-no-size",
        "count-minors-one-size"])
def test_an_index_out_of_range_is_a_domain_error(call):
    # each of these read the wrong data or raised a bare Python error
    with pytest.raises(SlackkitError):
        call()


# -- oracle: the edge-by-edge loop that rehomogenize_poly replaces -------------


def reference_forest_weights(sym, F):
    """Each edge leaf to root with the variables of the line it enters, found
    by scanning every cell."""
    edges = []
    for variable, kind, idx, _ in reversed(F.edges):
        axis = 0 if kind == "r" else 1
        edges.append((variable,
                      [v for v, cell in sym.cell_of.items() if cell[axis] == idx]))
    return edges


def reference_rehomogenize_poly(p, Y, F):
    """One new Polynomial per edge, each line degree summed afresh."""
    for v, weight in reference_forest_weights(Y.base, F):
        if p.is_zero():
            break
        degs = {m: sum(m[w] for w in weight) for m in p.terms}
        D = max(degs.values())
        if all(e == D for e in degs.values()):
            continue
        terms = {}
        for m, c in p.terms.items():
            gap = D - degs[m]
            if gap:
                m = m[:v] + (m[v] + gap,) + m[v + 1:]
            terms[m] = terms.get(m, 0) + c
        p = Polynomial(p.nvars, terms)
    return p


@functools.cache
def scaled(name):
    """(Y, F) for the prism and Perles forests used throughout."""
    if name == "prism":
        Y = set_ones(prism_sym(), PRISM_FOREST_ONES)
    else:
        Y = set_ones(specific_slack_matrix("perles-reduced"), PERLES_ONES)
    return Y, forest_from_ones(Y)


def _polynomial(nvars, forest, terms, twins):
    """Sum of the terms, plus for each twin a term and a copy with a forest
    variable's exponent raised, whose coefficient cancels or not: the two
    agree outside that variable, so rehomogenizing merges them."""
    out = [(c, dict(e)) for c, e in terms]
    for (c, e), k, raise_by, cancel in twins:
        v = forest[k % len(forest)]
        e = dict(e)
        out.append((c, e))
        out.append((-c if cancel else c + 1, {**e, v: e.get(v, 0) + raise_by}))
    return poly(nvars, *out)


@st.composite
def scaled_polynomial(draw):
    name = draw(st.sampled_from(["prism", "perles"]))
    Y, F = scaled(name)
    n = Y.base.nvars
    exponents = st.dictionaries(st.integers(0, n - 1), st.integers(1, 3),
                                max_size=4)
    term = st.tuples(st.integers(-3, 3).filter(bool), exponents)
    twin = st.tuples(term, st.integers(0, 99), st.integers(1, 2),
                     st.booleans())
    p = _polynomial(n, sorted(F.variables), draw(st.lists(term, max_size=5)),
                    draw(st.lists(twin, max_size=3)))
    if draw(st.booleans()):
        p = p.substitute_ones(F.variables)  # a dehomogenized input
    return name, p


@settings(max_examples=200, deadline=None, derandomize=True)
@given(scaled_polynomial())
def test_rehomogenize_poly_matches_edge_by_edge_loop(case):
    name, p = case
    Y, F = scaled(name)
    expected = reference_rehomogenize_poly(p, Y, F)
    got = rehomogenize_poly(p, Y, F)
    assert got == expected
    assert all(isinstance(c, Fraction) and c for c in got.terms.values())
    # the result is multihomogeneous on the forest's lines: a fixed point
    assert rehomogenize_poly(got, Y, F) == \
        reference_rehomogenize_poly(got, Y, F) == got


@pytest.mark.parametrize("name", ["prism", "perles"])
def test_rehomogenize_zero_polynomial(name):
    Y, F = scaled(name)
    zero = Polynomial.zero(Y.base.nvars)
    assert rehomogenize_poly(zero, Y, F) == zero


def test_rehomogenize_drops_a_merged_term_that_cancels():
    # x7 and -x4*x7 agree outside the forest variable x4, so its edge merges
    # them and they cancel; the edges after it see only the x11 term
    Y, F = scaled("prism")
    p = poly(12, (1, {7: 1}), (-1, {4: 1, 7: 1}), (1, {11: 1}))
    got = rehomogenize_poly(p, Y, F)
    assert got == reference_rehomogenize_poly(p, Y, F)
    assert got.to_string() == "x5*x8*x11"


@pytest.mark.parametrize("name", ["square", "prism", "perles-reduced"])
def test_forest_weights_match_the_cell_scan(name):
    sym = symbolic_slack_matrix(specific_slack_matrix(name))
    scalings = [set_ones_forest(sym)[0]]
    if name == "perles-reduced":
        scalings.append(set_ones(sym, PERLES_ONES))
    for Y in scalings:
        F = Y.forest
        expected = reference_forest_weights(sym, F)
        assert forest_weights(Y) == expected
        # each edge record, leaf to root, enters the line whose variables
        # the cell scan finds, from the other line through its cell
        assert [v for v, *_ in reversed(F.edges)] == [v for v, _ in expected]
        for (v, kind, n, s), (_, line) in zip(reversed(F.edges), expected):
            axis = "rc".index(kind)
            assert [w for w, cell in sym.cell_of.items()
                    if cell[axis] == n] == line
            assert sym.cell_of[v] == ((n, s) if kind == "r" else (s, n))


def test_prism_contains_flag():
    S = slack_matrix(PRISM_VERTICES)
    assert contains_flag([0, 1, 2], S)
    assert not contains_flag([2, 3], S)


def test_square_opposite_edges_contain_no_flag():
    S = slack_matrix(SQUARE_VERTICES)
    disjoint = [j for j in range(4) if not (S.incidence[0] & S.incidence[j])]
    assert not contains_flag([0, disjoint[0]], S)


def test_simplex_contains_flag():
    S = slack_matrix(unit_simplex(3))
    assert contains_flag(range(4), S)


def test_contains_flag_needs_numeric_data():
    with pytest.raises(NeedsNumericDataError):
        contains_flag([0, 1], specific_slack_matrix("perles-reduced"))


def test_reduced_slack_matrix_of_square():
    # all square facets are simplicial; greedy search keeps a 2-column flag
    S = slack_matrix(SQUARE_VERTICES)
    R = reduced_slack_matrix(2, S)
    assert R.ncols == 2


def test_reduced_slack_matrix_of_simplex():
    S = slack_matrix(unit_simplex(3))
    R = reduced_slack_matrix(3, S)
    assert R.ncols == 3


def test_reduced_slack_matrix_keeps_non_simplicial():
    S = slack_matrix(PRISM_VERTICES)
    R = reduced_slack_matrix(3, S)
    # the prism's two triangle facets are simplicial, the three squares not
    non_simplicial = sum(1 for inc in S.incidence if len(inc) != 3)
    assert R.ncols >= non_simplicial


def test_reduced_slack_matrix_rejects_flagless_columns():
    from slackkit.errors import NoFlagFoundError
    S = slack_matrix(SQUARE_VERTICES)
    disjoint = [j for j in range(4) if not (S.incidence[0] & S.incidence[j])]
    with pytest.raises(NoFlagFoundError):
        reduced_slack_matrix(2, S, flag_indices=[0, disjoint[0]])


def test_rational_roots_include_zero():
    # x^3 - x^2 = x^2 (x - 1): zero is a root through the factor x^2
    assert rational_roots(poly(1, (1, {0: 3}), (-1, {0: 2})), 0) == \
        [Fraction(0), Fraction(1)]


@pytest.mark.parametrize("p, other", [
    (poly(2, (1, {0: 1, 1: 1}), (-2, {0: 1}), (2, {})), 1),  # x0*x1 - 2*x0 + 2
    (poly(2, (1, {0: 1}), (1, {1: 1})), 1),  # x0 + x1
    (poly(3, (1, {2: 2}), (-1, {})), 2),  # no term in x0 at all
], ids=["shared-exponent", "linear", "other-variable-only"])
def test_rational_roots_of_a_polynomial_in_another_variable_raise(p, other):
    # the terms were keyed by the exponent of x0 alone, so x0*x1 - 2*x0 + 2
    # read as -2*x0 + 2 and gave [1], and x0 + x1 gave [-1]
    with pytest.raises(UniverseMismatchError, match=f"variable {other} occurs"):
        rational_roots(p, 0)


def test_rational_roots_quadratic():
    assert rational_roots(poly(1, (1, {0: 2}), (-1, {})), 0) == \
        [Fraction(-1), Fraction(1)]
    assert rational_roots(poly(1, (1, {0: 2}), (-2, {})), 0) == []


SEMIPRIME = 999999937 * 1000000007  # two primes near 10^9


@pytest.mark.parametrize("coeffs", [
    (1, 0, -(10**14 + 37)),  # x^2 - N, no rational root
    (1, 0, -10**14),  # x^2 - (10^7)^2
    (1, 0, -SEMIPRIME),
    (1, -(999999937 + 1000000007), SEMIPRIME),  # roots the two primes
    (999999937, 999999937 - 1000000007, -1000000007, 0),  # 0, -1, a ratio
], ids=["1e14", "1e14-square", "semiprime", "semiprime-roots", "ratio"])
def test_rational_roots_of_large_constants_match_sympy(coeffs):
    # the candidates come from factoring the constant term, not from trial
    # division up to its square root, which took a second at 10^14
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    degree = len(coeffs) - 1
    expected = sympy.roots(sum(c * x ** (degree - k) for k, c in enumerate(coeffs)),
                           x, filter="Q")
    p = poly(1, *[(c, {0: degree - k}) for k, c in enumerate(coeffs) if c])
    start = time.perf_counter()
    got = rational_roots(p, 0)
    assert time.perf_counter() - start < 5
    assert got == sorted(Fraction(int(r.p), int(r.q)) for r in expected)


def test_certificate_rational_root_is_inconclusive():
    I = Ideal([poly(1, (1, {0: 1}), (-1, {}))])  # x0 - 1
    cert = irrationality_certificate(I, 0)
    assert cert.kind == "inconclusive"
    assert cert.rational_roots == (Fraction(1),)


def test_certificate_sqrt2_is_irrational():
    I = Ideal([poly(1, (1, {0: 2}), (-2, {}))])  # x0^2 - 2
    cert = irrationality_certificate(I, 0)
    assert cert.kind == "irrational"
    assert cert.rational_roots == ()


def test_certificate_of_the_unit_ideal_is_irrational():
    # <1> has no point at all, so in particular no rational one
    cert = irrationality_certificate(Ideal([Polynomial.constant(1, 2)]), 0)
    assert cert.kind == "irrational"
    assert cert.minimal_polynomial.to_string() == "1"
    assert cert.rational_roots == ()


def test_perles_certificate():
    Y = set_ones(specific_slack_matrix("perles-reduced"), PERLES_ONES)
    I = dehomogenized_ideal(8, Y)
    cert = irrationality_certificate(I, 35)
    assert cert.kind == "irrational"
    assert cert.minimal_polynomial.to_string() == "x35^2 + x35 - 1"
    assert cert.rational_roots == ()
