"""Shared fixtures: small vertex sets, a tiny polynomial builder and
polynomial checks that the library does not need."""

from fractions import Fraction

import pytest

from slackkit import Polynomial
from slackkit.builtins import PERLES_ONES  # noqa: F401 (re-exported)

SQUARE_VERTICES = [(0, 0), (1, 0), (1, 1), (0, 1)]
PRISM_VERTICES = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 1), (1, 1, 0)]


def poly(nvars, *terms):
    """Build a polynomial from (coeff, {var: exp}) pairs."""
    p = Polynomial.zero(nvars)
    for coeff, exps in terms:
        mono = tuple(exps.get(i, 0) for i in range(nvars))
        p = p + Polynomial.monomial(mono, nvars, Fraction(coeff))
    return p


def evaluate(p, values):
    """p at the point whose coordinate i is values[i]."""
    total = Fraction(0)
    for m, c in p.terms.items():
        for i, e in enumerate(m):
            if e:
                c *= values[i] ** e
        total += c
    return total


def compare(order, a, b):
    """-1, 0 or 1 as the monomial a is smaller than, equal to or larger
    than b in the order."""
    ka, kb = order.key(a), order.key(b)
    return (ka > kb) - (ka < kb)


def line_degrees(m, sym):
    """The degrees of the monomial m in each row and each column of the
    symbolic matrix sym, as two sorted tuples of (line, degree) pairs."""
    rows, cols = {}, {}
    for v, e in enumerate(m):
        if e:
            i, j = sym.cell_of[v]
            rows[i] = rows.get(i, 0) + e
            cols[j] = cols.get(j, 0) + e
    return tuple(sorted(rows.items())), tuple(sorted(cols.items()))


def is_multihomogeneous(p, sym):
    """True iff every term of p has the same degree in each row and in each
    column of sym."""
    return len({line_degrees(m, sym) for m in p.terms}) <= 1


@pytest.fixture
def square_vertices():
    return SQUARE_VERTICES


@pytest.fixture
def prism_vertices():
    return PRISM_VERTICES


def pytest_terminal_summary(terminalreporter):
    """Echo the acceptance criteria pass/fail lines after the run."""
    try:
        from test_acceptance import RESULTS
    except ImportError:
        return
    if RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in sorted(RESULTS):
            terminalreporter.write_line(line)
