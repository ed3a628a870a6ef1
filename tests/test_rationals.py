"""Exact rational matrices: rank, kernel, determinant, serialization."""

import itertools
import json
import random
from fractions import Fraction

from slackkit import RationalMatrix, format_rational, parse_rational
from slackkit.rationals import int_cofactors
from slackkit.errors import BadRationalError, NonSquareError, RaggedRowsError

import pytest
from hypothesis import example, given, settings, strategies as st


def test_parse_and_format_roundtrip():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-5") == Fraction(-5)
    assert format_rational(Fraction(3, 4)) == "3/4"
    assert format_rational(Fraction(7)) == "7"
    assert format_rational(-2) == "-2"


def test_parse_rejects_garbage():
    with pytest.raises(BadRationalError):
        parse_rational("1.5x")


def test_rank_identity():
    assert RationalMatrix.identity(3).rank() == 3


def test_rank_zero_matrix():
    assert RationalMatrix.zero(2, 5).rank() == 0


def test_rank_square_slack_matrix():
    # slack matrix of the unit square has rank d+1 = 3
    S = RationalMatrix.from_lists([
        [0, 1, 1, 0],
        [0, 0, 1, 1],
        [1, 0, 0, 1],
        [1, 1, 0, 0]])
    assert S.rank() == 3


def test_kernel_of_identity_is_empty():
    assert RationalMatrix.identity(3).kernel_basis().nrows == 0


def test_kernel_of_row_of_ones():
    K = RationalMatrix.from_lists([[1, 1]]).kernel_basis()
    assert K.nrows == 1
    row = [K[0, j] for j in range(2)]
    assert row[0] * 1 + row[1] * 1 == 0
    assert row == [Fraction(1), Fraction(-1)] or row == [Fraction(-1), Fraction(1)]


def test_kernel_of_homogenized_square():
    M = RationalMatrix.from_lists([
        [1, 1, 1, 1],
        [0, 1, 1, 0],
        [0, 0, 1, 1]])
    K = M.kernel_basis()
    assert K.nrows == 1
    row = [K[0, j] for j in range(4)]
    scale = row[0]
    assert [x / scale for x in row] == [Fraction(1), Fraction(-1), Fraction(1), Fraction(-1)]


def test_det_identity():
    assert RationalMatrix.identity(4).det() == 1


def test_det_repeated_row_is_zero():
    M = RationalMatrix.from_lists([[1, 2], [1, 2]])
    assert M.det() == 0


def test_det_2x2():
    assert RationalMatrix.from_lists([[1, 2], [3, 4]]).det() == -2


def test_det_requires_square():
    with pytest.raises(NonSquareError):
        RationalMatrix.from_lists([[1, 2, 3], [4, 5, 6]]).det()


def test_det_transpose_and_row_swap():
    rng = random.Random(7)
    for _ in range(10):
        rows = [[Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                 for _ in range(4)] for _ in range(4)]
        M = RationalMatrix.from_lists(rows)
        assert M.det() == M.transpose().det()
        swapped = RationalMatrix.from_lists([rows[1], rows[0]] + rows[2:])
        assert swapped.det() == -M.det()


def test_rank_plus_kernel_dimension():
    rng = random.Random(11)
    for _ in range(10):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        M = RationalMatrix.from_lists(
            [[rng.randint(-3, 3) for _ in range(nc)] for _ in range(nr)])
        assert M.rank() + M.kernel_basis().nrows == nc


def test_kernel_rows_annihilated():
    M = RationalMatrix.from_lists([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    K = M.kernel_basis()
    for i in range(K.nrows):
        for r in range(M.nrows):
            assert sum(M[r, j] * K[i, j] for j in range(M.ncols)) == 0


def test_text_roundtrip():
    M = RationalMatrix.from_text("0 1\n1 0")
    assert (M.nrows, M.ncols) == (2, 2)
    assert RationalMatrix.from_text(M.to_text()).to_lists() == M.to_lists()


def test_json_roundtrip_with_fractions():
    M = RationalMatrix.from_json('[["1/2","0"],["0","1/3"]]')
    assert M[0, 0] == Fraction(1, 2)
    assert M[1, 1] == Fraction(1, 3)
    assert RationalMatrix.from_json(M.to_json()).to_lists() == M.to_lists()


def test_ragged_rows_rejected():
    with pytest.raises(RaggedRowsError):
        RationalMatrix.from_text("1 2\n3")


BIG = 10**30
printed_entries = st.one_of(
    st.just(Fraction(0)),
    st.integers(-9, 9).map(Fraction),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)),
    st.integers(-BIG, BIG).map(Fraction),
    st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(0, 4).flatmap(lambda ncols: st.tuples(
    st.just(ncols),
    st.lists(st.lists(printed_entries, min_size=ncols, max_size=ncols),
             max_size=4))))
def test_printing_is_format_rational_per_entry(case):
    # zero, negative, integral and 30-digit entries print as format_rational
    ncols, rows = case
    M = RationalMatrix(rows, ncols=ncols)
    lists = [[format_rational(x) for x in row] for row in rows]
    assert M.to_lists() == lists
    assert M.to_json() == json.dumps(lists)
    assert M.to_text() == "\n".join(" ".join(row) for row in lists)


entries = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 1, 2, 3, 4, 7]))


@st.composite
def rational_matrices(draw):
    """(rows, ncols) up to 6 x 7 with mixed denominators and negative
    entries, some with a zero column or rows that are combinations of
    others."""
    nrows, ncols = draw(st.integers(0, 6)), draw(st.integers(0, 7))
    rows = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    if ncols and draw(st.booleans()):
        j = draw(st.integers(0, ncols - 1))
        for row in rows:
            row[j] = Fraction(0)
    if nrows >= 2 and draw(st.booleans()):
        i, k = draw(st.lists(st.integers(0, nrows - 1), min_size=2, max_size=2,
                             unique=True))
        a, b = draw(entries), draw(entries)
        rows[k] = [a * x + b * y for x, y in zip(rows[i], rows[nrows - 1 - i])]
    return rows, ncols


def from_sympy(S):
    return [[Fraction(int(x.p), int(x.q)) for x in S.row(i)] for i in range(S.rows)]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(rational_matrices())
def test_elimination_matches_sympy(matrix):
    # an oracle that does not share the integer elimination: sympy's rref,
    # and the RREF of its nullspace
    sympy = pytest.importorskip("sympy")
    rows, ncols = matrix
    M = RationalMatrix(rows, ncols=ncols)
    S = sympy.Matrix(len(rows), ncols,
                     [sympy.Rational(x.numerator, x.denominator)
                      for row in rows for x in row])
    ref, ref_pivots = S.rref()
    red, pivots = M.rref()
    assert pivots == list(ref_pivots)
    assert (red.nrows, red.ncols) == (len(rows), ncols)
    assert red.rows == from_sympy(ref)
    assert M.rank() == len(ref_pivots)
    null = S.nullspace()
    K = M.kernel_basis()
    assert (K.nrows, K.ncols) == (len(null), ncols)
    if null:
        assert K.rows == from_sympy(sympy.Matrix.hstack(*null).T.rref()[0])


@st.composite
def cofactor_cases(draw):
    """Small integer matrices, often with zero or repeated rows, and a
    sorted set of k of their columns."""
    ncols = draw(st.integers(1, 6))
    k = draw(st.integers(1, ncols))
    entries = st.sampled_from([0, 0, 0, 1, -1, 2, -3, 7])
    rows = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                         max_size=7))
    if len(rows) >= 2 and draw(st.booleans()):
        rows[-1] = list(rows[0])
    cols = sorted(draw(st.lists(st.integers(0, ncols - 1), min_size=k,
                                max_size=k, unique=True)))
    return rows, cols


@settings(max_examples=300, deadline=None, derandomize=True)
@given(cofactor_cases())
def test_int_cofactors_are_signed_maximal_minors(case):
    # oracle: sympy's determinant per (subset, column), every subset
    sympy = pytest.importorskip("sympy")
    rows, cols = case
    k = len(cols)
    want = []
    for subset in itertools.combinations(range(len(rows)), k - 1):
        v = [(-1) ** (k - 1 - j) * int(sympy.Matrix(
                [[rows[s][c] for c in cols if c != cols[j]] for s in subset]
            ).det()) for j in range(k)]
        if any(v):
            want.append((subset, v))
    assert list(int_cofactors(rows, cols)) == want
    # v . w is the determinant with w appended, also for w outside rows
    for subset, v in want:
        w = [5, -2, 3, 1, -4, 6][:k]
        M = sympy.Matrix([[rows[s][c] for c in cols] for s in subset] + [w])
        assert sum(x * y for x, y in zip(v, w)) == M.det()


@st.composite
def square_matrices(draw):
    """Square rational matrices up to 5x5: any, singular (one row a
    combination of others), or with the first n - 1 rows dependent and the
    last row drawn freely, so that no cofactor vector exists."""
    n = draw(st.integers(0, 5))
    entries = st.sampled_from([Fraction(x) for x in
                               (0, 0, 0, 1, -1, 2, "-3/2", "5/7")])
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                         min_size=n, max_size=n))
    kind = draw(st.sampled_from(["any", "singular", "dependent prefix"]))
    if kind == "singular" and n >= 2:
        k = draw(st.integers(0, n - 1))
        i, j = (draw(st.sampled_from([r for r in range(n) if r != k]))
                for _ in range(2))
        a, b = draw(entries), draw(entries)
        rows[k] = [a * x + b * y for x, y in zip(rows[i], rows[j])]
    elif kind == "dependent prefix" and n >= 2:
        t = draw(st.integers(0, n - 2))
        rows[t] = [sum((draw(entries) * rows[i][c] for i in range(n - 1)
                        if i != t), Fraction(0)) for c in range(n)]
    return rows


def sympy_det(rows):
    """The determinant of a square list of Fraction rows by sympy, an
    oracle that shares no elimination with slackkit."""
    sympy = pytest.importorskip("sympy")
    n = len(rows)
    det = sympy.Matrix(n, n, [sympy.Rational(x.numerator, x.denominator)
                              for row in rows for x in row]).det()
    return Fraction(int(det.p), int(det.q))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(square_matrices())
@example([])
@example([[Fraction(0)]])
@example([[Fraction(-5, 3)]])
@example([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]])
@example([[Fraction(0), Fraction(0)], [Fraction(3), Fraction(1)]])
def test_det_matches_sympy(rows):
    # an oracle that does not share int_cofactors
    assert RationalMatrix(rows, ncols=len(rows)).det() == sympy_det(rows)
