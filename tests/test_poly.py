"""Sparse polynomials, monomial orders, row and column degrees."""

import itertools
import random
from fractions import Fraction

from slackkit import (GRevLex, Lex, Polynomial, slack_matrix,
                      symbolic_slack_matrix)
from slackkit.errors import UniverseMismatchError
from conftest import (PRISM_VERTICES, SQUARE_VERTICES, compare, evaluate,
                      is_multihomogeneous, line_degrees, poly)

import pytest
from hypothesis import given, settings, strategies as st


def test_lex_lower_index_is_larger():
    order = Lex()
    x0 = (1, 0)
    x1 = (0, 1)
    assert compare(order, x0, x1) > 0


def test_grevlex_same_degree_tiebreak():
    # x0*x2 < x1^2 under graded reverse lex
    order = GRevLex()
    x0x2 = (1, 0, 1)
    x1sq = (0, 2, 0)
    assert compare(order, x0x2, x1sq) < 0


def test_compare_reflexive():
    for order in (Lex(), GRevLex()):
        m = (2, 0, 1)
        assert compare(order, m, m) == 0


def test_order_compatible_with_multiplication():
    rng = random.Random(3)
    for order in (Lex(), GRevLex()):
        for _ in range(50):
            a = tuple(rng.randint(0, 3) for _ in range(4))
            b = tuple(rng.randint(0, 3) for _ in range(4))
            m = tuple(rng.randint(0, 3) for _ in range(4))
            if compare(order, a, b) < 0:
                am = tuple(x + y for x, y in zip(a, m))
                bm = tuple(x + y for x, y in zip(b, m))
                assert compare(order, am, bm) < 0


def test_difference_of_squares():
    x0 = Polynomial.variable(0, 1)
    one = Polynomial.constant(1, 1)
    assert (x0 + one) * (x0 - one) == x0 * x0 - one


def test_multiply_by_zero():
    p = poly(2, (3, {0: 1}), (-2, {1: 2}))
    assert (p * Polynomial.zero(2)).is_zero()


def test_binomial_square_expansion():
    x0 = Polynomial.variable(0, 2)
    x1 = Polynomial.variable(1, 2)
    expected = poly(2, (1, {0: 2}), (2, {0: 1, 1: 1}), (1, {1: 2}))
    assert (x0 + x1) * (x0 + x1) == expected


def test_multiply_associative_commutative():
    rng = random.Random(5)
    def rand_poly():
        return poly(3, *[(rng.randint(-3, 3),
                          {i: rng.randint(0, 2) for i in range(3)})
                         for _ in range(3)])
    for _ in range(20):
        p, q, r = rand_poly(), rand_poly(), rand_poly()
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)


def test_to_string_canonical():
    p = poly(8, (1, {0: 1, 3: 1, 5: 1, 6: 1}), (-1, {1: 1, 2: 1, 4: 1, 7: 1}))
    assert p.to_string() == "x0*x3*x5*x6 - x1*x2*x4*x7"


def test_to_string_constants_and_powers():
    assert Polynomial.zero(2).to_string() == "0"
    p = poly(2, (1, {0: 2}), (1, {0: 1}), (-1, {}))
    assert p.to_string() == "x0^2 + x0 - 1"


def test_to_string_non_unit_coefficients():
    p = poly(2, (2, {0: 1}), (Fraction(1, 2), {1: 2}))
    assert p.to_string() == "1/2*x1^2 + 2*x0"
    assert (-p).to_string() == "-1/2*x1^2 - 2*x0"


def test_constants_on_the_left():
    p = poly(2, (1, {0: 1}), (-3, {}))
    assert (1 - p).to_string() == "-x0 + 4"
    assert (2 + p).to_string() == "x0 - 1"


def test_a_variable_of_a_ring_without_variables_raises():
    with pytest.raises(UniverseMismatchError) as info:
        Polynomial.variable(0, 0)
    assert str(info.value) == "variable index 0 in a ring without variables"


@pytest.mark.parametrize("call", [
    lambda: Polynomial.variable(1.0, 3),
    lambda: Polynomial.variable(0, 3).substitute_ones([1.0]),
], ids=["variable", "substitute-ones"])
def test_a_float_variable_index_raises_naming_it(call):
    # 1.0 in range(3) holds, but 1.0 indexes no exponent list
    with pytest.raises(UniverseMismatchError) as info:
        call()
    assert str(info.value) == "variable index 1.0 is not an int"


def test_square_binomial_multihomogeneous():
    sym = symbolic_slack_matrix(slack_matrix(SQUARE_VERTICES))
    p = poly(8, (1, {0: 1, 3: 1, 5: 1, 6: 1}), (-1, {1: 1, 2: 1, 4: 1, 7: 1}))
    for m in p.terms:
        rows, cols = line_degrees(m, sym)
        assert [d for _, d in rows] == [1] * 4
        assert [d for _, d in cols] == [1] * 4
    assert is_multihomogeneous(p, sym)


def test_prism_dehomogenized_generator_not_homogeneous():
    from slackkit import specific_slack_matrix
    sym = symbolic_slack_matrix(specific_slack_matrix("prism"))
    p = poly(12, (1, {7: 1}), (-1, {}))  # x7 - 1
    i, j = sym.cell_of[7]
    x7 = tuple(int(v == 7) for v in range(12))
    assert line_degrees(x7, sym) == (((i, 1),), ((j, 1),))
    assert line_degrees((0,) * 12, sym) == ((), ())
    assert not is_multihomogeneous(p, sym)


def test_minors_are_multilinear_per_row_and_column():
    from slackkit.slack import pattern_minor
    sym = symbolic_slack_matrix(slack_matrix(PRISM_VERTICES))
    for rows in itertools.combinations(range(6), 5):
        for cols in itertools.combinations(range(5), 5):
            p = pattern_minor(sym.grid, rows, cols, sym.nvars)
            if p.is_zero():
                continue
            for m in p.terms:
                row_deg, col_deg = line_degrees(m, sym)
                assert {d for _, d in row_deg} == {1} == {d for _, d in col_deg}
            assert is_multihomogeneous(p, sym)


def test_substitute_ones_and_evaluate():
    p = poly(3, (2, {0: 1, 1: 1}), (1, {2: 2}))
    q = p.substitute_ones({1})
    assert q == poly(3, (2, {0: 1}), (1, {2: 2}))
    assert evaluate(p, {0: Fraction(1), 1: Fraction(2), 2: Fraction(3)}) == 13


def test_substitute_ones_merges_and_cancels():
    # 2*x0*x1 - 2*x0*x2 + x1^2 + x2 at x1 = x2 = 1: 2*x0 - 2*x0 + 1 + 1
    p = poly(3, (2, {0: 1, 1: 1}), (-2, {0: 1, 2: 1}), (1, {1: 2}), (1, {2: 1}))
    q = p.substitute_ones([1, 2])
    assert q.terms == {(0, 0, 0): Fraction(2)}
    assert type(q.terms[(0, 0, 0)]) is Fraction
    assert poly(3, (1, {1: 1}), (-1, {2: 1})).substitute_ones({1, 2}).is_zero()


def reference_substitute_ones(p, var_indices):
    """Rebuild every monomial, one set lookup per exponent."""
    idx = set(var_indices)
    terms = {}
    for m, c in p.terms.items():
        m2 = tuple(0 if i in idx else e for i, e in enumerate(m))
        s = terms.get(m2, 0) + c
        if s:
            terms[m2] = s
        else:
            terms.pop(m2, None)
    return Polynomial(p.nvars, terms)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.integers(-3, 3).filter(bool),
                          st.tuples(*[st.integers(0, 2)] * 4)), max_size=6),
       st.lists(st.integers(0, 3), max_size=5))
def test_substitute_ones_matches_the_exponent_scan(terms, ones):
    p = poly(4, *[(c, dict(enumerate(m))) for c, m in terms])
    q = p.substitute_ones(ones)
    assert q == reference_substitute_ones(p, ones)
    assert all(type(c) is Fraction and c for c in q.terms.values())


@pytest.mark.parametrize("ones", [[99], [-1], [0, 4], [1.0]])
def test_substitute_ones_outside_the_ring_raises(ones):
    with pytest.raises(UniverseMismatchError):
        poly(4, (1, {0: 1, 3: 2})).substitute_ones(ones)


@pytest.mark.parametrize("mono", [(-1, 1), (0, 0, 1), (1,), ()])
def test_a_monomial_outside_the_ring_raises(mono):
    # the packed engine would read a negative exponent as a carry into the
    # next field, and printing indexes every exponent by its variable
    with pytest.raises(UniverseMismatchError):
        Polynomial(2, {mono: 1})
    with pytest.raises(UniverseMismatchError):
        Polynomial(2, {(1, 0): 1, mono: 0})
