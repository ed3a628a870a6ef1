"""Sparse multivariate polynomials over Q with pluggable monomial orders.

Monomials are dense exponent tuples (length = number of ring variables);
variables print as x0, x1, ... with the convention x0 > x1 > ... in every
order.  Polynomials are immutable dicts from exponent tuple to nonzero
Fraction.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import UniverseMismatchError, check_variables
from .rationals import format_rational


def mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


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
    """Immutable sparse polynomial over Q in a ring of `nvars` variables.
    A monomial that is not `nvars` non-negative exponents raises
    :class:`UniverseMismatchError`."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        clean = {}
        if terms:
            for mono, coeff in terms.items():
                mono = tuple(mono)
                if len(mono) != nvars or min(mono, default=0) < 0:
                    raise UniverseMismatchError(
                        f"{mono} is not a monomial in {nvars} variables")
                if type(coeff) is not Fraction:
                    coeff = Fraction(coeff)
                if coeff:
                    clean[mono] = coeff
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
        check_variables([i], nvars)
        e = [0] * nvars
        e[i] = 1
        return cls(nvars, {tuple(e): Fraction(1)})

    @classmethod
    def monomial(cls, mono, nvars, coeff=1):
        return cls(nvars, {tuple(mono): Fraction(coeff)})

    # predicates -------------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(sum(m) == 0 for m in self.terms)

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

    def __eq__(self, other):
        return (isinstance(other, Polynomial) and self.nvars == other.nvars
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    # substitution -----------------------------------------------------------

    def substitute_ones(self, var_indices):
        """Set the given variables to 1: zero their exponents, merge the terms
        that become equal and drop those that cancel.  An index outside
        0..nvars-1 raises :class:`UniverseMismatchError`."""
        idx = set(var_indices)
        check_variables(idx, self.nvars)
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
                body = format_rational(abs(c))
            elif abs(c) == 1:
                body = "*".join(factors)
            else:
                body = format_rational(abs(c)) + "*" + "*".join(factors)
            if not parts:
                parts.append(("-" if c < 0 else "") + body)
            else:
                parts.append((" - " if c < 0 else " + ") + body)
        return "".join(parts)

    def __repr__(self):
        return f"Polynomial({self.to_string()})"
