"""Sparse multivariate polynomials over Q with pluggable monomial orders.

Monomials are dense exponent tuples (length = number of ring variables);
variables print as x0, x1, ... with the convention x0 > x1 > ... in every
order.  Polynomials are immutable dicts from exponent tuple to nonzero
Fraction.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import UngradedVariableError, UniverseMismatchError


def mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def mono_div(a, b):
    """a / b, assuming b divides a."""
    return tuple(x - y for x, y in zip(a, b))


# -- monomial orders ---------------------------------------------------------


class MonomialOrder:
    """Total order on monomials, defined by its block layout.

    ``blocks(nvars)`` lists the variables block by block, most significant
    block first.  Blocks compare by degree, then reverse lexicographically.
    The packed engine (:meth:`slackkit.engine.Ring.for_order`) reads the same
    layout, so printed and computed bases agree."""

    def blocks(self, nvars):
        raise NotImplementedError

    def key(self, m):
        """Sort key, larger for larger monomials: per block, the degree,
        then the negated exponents in reverse."""
        k = []
        for block in self.blocks(len(m)):
            neg = [-m[v] for v in reversed(block)]
            k.append(-sum(neg))
            k.extend(neg)
        return k

    def compare(self, a, b) -> int:
        """-1, 0 or 1 as a <, =, > b."""
        if a == b:
            return 0
        return 1 if self.key(a) > self.key(b) else -1


class Lex(MonomialOrder):
    """Lexicographic with x0 > x1 > ..."""

    def blocks(self, nvars):
        return [[v] for v in range(nvars)]

    def __repr__(self):
        return "lex"


class GRevLex(MonomialOrder):
    """Graded reverse lexicographic with x0 > x1 > ..."""

    def blocks(self, nvars):
        return [range(nvars)]

    def __repr__(self):
        return "grevlex"


# -- polynomials -------------------------------------------------------------


class Polynomial:
    """Immutable sparse polynomial over Q in a ring of `nvars` variables."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        clean = {}
        if terms:
            for mono, coeff in terms.items():
                coeff = Fraction(coeff)
                if coeff != 0:
                    clean[tuple(mono)] = coeff
        self.nvars = nvars
        self.terms = clean

    # constructors ----------------------------------------------------------

    @classmethod
    def zero(cls, nvars):
        return cls(nvars)

    @classmethod
    def constant(cls, c, nvars):
        return cls(nvars, {(0,) * nvars: Fraction(c)})

    @classmethod
    def variable(cls, i, nvars):
        if not 0 <= i < nvars:
            raise UniverseMismatchError(f"variable x{i} outside universe of {nvars}")
        e = [0] * nvars
        e[i] = 1
        return cls(nvars, {tuple(e): Fraction(1)})

    @classmethod
    def monomial(cls, mono, nvars, coeff=1):
        return cls(nvars, {tuple(mono): Fraction(coeff)})

    # predicates / views -----------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(sum(m) == 0 for m in self.terms)

    def variables(self):
        used = set()
        for m in self.terms:
            used.update(i for i, e in enumerate(m) if e)
        return used

    def total_degree(self):
        return max((sum(m) for m in self.terms), default=0)

    def leading_term(self, order):
        """(monomial, coefficient) of the largest term; zero poly is an error."""
        m = max(self.terms, key=order.key)
        return m, self.terms[m]

    def coefficient(self, mono):
        return self.terms.get(tuple(mono), Fraction(0))

    # arithmetic -------------------------------------------------------------

    def _check(self, other):
        if self.nvars != other.nvars:
            raise UniverseMismatchError(
                f"operands in rings of {self.nvars} and {other.nvars} variables")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other, self.nvars)
        self._check(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            s = terms.get(m, 0) + c
            if s:
                terms[m] = s
            else:
                terms.pop(m, None)
        return Polynomial(self.nvars, terms)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return Polynomial(self.nvars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other, self.nvars)
        return self.__add__(-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return Polynomial(self.nvars, {m: c * v for m, v in self.terms.items()})
        self._check(other)
        terms = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                s = terms.get(m, 0) + c1 * c2
                if s:
                    terms[m] = s
                else:
                    terms.pop(m, None)
        return Polynomial(self.nvars, terms)

    def __rmul__(self, other):
        return self.__mul__(other)

    def term_mul(self, mono, coeff=1):
        """Multiply by a single term coeff * x^mono."""
        mono = tuple(mono)
        c = Fraction(coeff)
        return Polynomial(self.nvars,
                          {mono_mul(m, mono): c * v for m, v in self.terms.items()})

    def __eq__(self, other):
        return (isinstance(other, Polynomial) and self.nvars == other.nvars
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    # ring moves -------------------------------------------------------------

    def extended(self, new_nvars):
        """Same polynomial viewed in a larger ring (new variables appended)."""
        if new_nvars < self.nvars:
            raise UniverseMismatchError("cannot shrink with extended()")
        pad = (0,) * (new_nvars - self.nvars)
        return Polynomial(new_nvars, {m + pad: c for m, c in self.terms.items()})

    def substitute_ones(self, var_indices):
        """Set the given variables to 1: zero their exponents, merge the terms
        that become equal and drop those that cancel.  Indices outside the
        ring are ignored."""
        idx = [i for i in set(var_indices) if 0 <= i < self.nvars]
        terms = {}
        for m, c in self.terms.items():
            e = list(m)
            for i in idx:
                e[i] = 0
            m = tuple(e)
            terms[m] = terms[m] + c if m in terms else c
        # sums of the Fraction coefficients stay Fractions: skip __init__
        out = Polynomial.__new__(Polynomial)
        out.nvars = self.nvars
        out.terms = {m: c for m, c in terms.items() if c}
        return out

    def evaluate(self, values):
        """Full evaluation at a point (list of Fractions, one per variable)."""
        total = Fraction(0)
        for m, c in self.terms.items():
            v = c
            for i, e in enumerate(m):
                if e:
                    v *= values[i] ** e
            total += v
        return total

    # printing ---------------------------------------------------------------

    def to_string(self, order=None):
        """Canonical text form: terms descending in the given order."""
        if not self.terms:
            return "0"
        order = order or GRevLex()
        parts = []
        for m in sorted(self.terms, key=order.key, reverse=True):
            c = self.terms[m]
            factors = [f"x{i}" if e == 1 else f"x{i}^{e}"
                       for i, e in enumerate(m) if e]
            if not factors:
                body = _fmt_frac(abs(c))
            elif abs(c) == 1:
                body = "*".join(factors)
            else:
                body = _fmt_frac(abs(c)) + "*" + "*".join(factors)
            if not parts:
                parts.append(("-" if c < 0 else "") + body)
            else:
                parts.append((" - " if c < 0 else " + ") + body)
        return "".join(parts)

    def __repr__(self):
        return f"Polynomial({self.to_string()})"


def _fmt_frac(q):
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


# -- multigrading ------------------------------------------------------------


class Multigrading:
    """Assignment of each variable to a (row, column) of a symbolic matrix."""

    def __init__(self, row_of, col_of):
        self.row_of = dict(row_of)
        self.col_of = dict(col_of)

    def _axis_degree(self, mono, axis_of):
        deg = {}
        for i, e in enumerate(mono):
            if e:
                try:
                    k = axis_of[i]
                except KeyError:
                    raise UngradedVariableError(f"variable x{i} has no grading")
                deg[k] = deg.get(k, 0) + e
        return deg


def multidegree(p: Polynomial, g: Multigrading):
    """Per-row and per-column maximal degrees of p, with homogeneity flags.

    Returns (row_degrees, col_degrees, row_homogeneous, col_homogeneous),
    the first two as dicts index -> max degree over terms, the last two as
    dicts index -> bool (every term attains the max).
    """
    row_deg, col_deg = {}, {}
    per_term = []
    for m in p.terms:
        rd = g._axis_degree(m, g.row_of)
        cd = g._axis_degree(m, g.col_of)
        per_term.append((rd, cd))
        for k, v in rd.items():
            row_deg[k] = max(row_deg.get(k, 0), v)
        for k, v in cd.items():
            col_deg[k] = max(col_deg.get(k, 0), v)
    row_homog = {k: all(rd.get(k, 0) == v for rd, _ in per_term)
                 for k, v in row_deg.items()}
    col_homog = {k: all(cd.get(k, 0) == v for _, cd in per_term)
                 for k, v in col_deg.items()}
    return row_deg, col_deg, row_homog, col_homog


def is_multihomogeneous(p: Polynomial, g: Multigrading) -> bool:
    _, _, rh, ch = multidegree(p, g)
    return all(rh.values()) and all(ch.values())
