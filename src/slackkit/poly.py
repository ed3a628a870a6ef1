"""Sparse multivariate polynomials over Q with pluggable monomial orders.

Monomials are dense exponent tuples (length = number of ring variables);
variables print as x0, x1, ... with the convention x0 > x1 > ... in every
order.  Polynomials are immutable dicts from exponent tuple to nonzero
Fraction.

This module is the Fraction side of the integer engine: it holds the
conversions :func:`pack_polys` and :func:`to_polynomial`, and the trusted
constructor :meth:`Polynomial._of` of the results this module computes.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import UniverseMismatchError, check_ring, check_variables
from .rationals import format_rational, integer_row


def mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


# -- monomial orders ---------------------------------------------------------


class MonomialOrder:
    """Total order on monomials, defined by its block layout.

    ``blocks(nvars)`` lists the variables block by block, most significant
    block first.  Blocks compare by degree, then reverse lexicographically.
    The packed engine (:meth:`slackkit.engine.Ring.for_order`) reads the same
    layout, so printed and computed bases agree.  The class fixes the layout
    for every ``nvars``, so two orders of one class are equal."""

    def blocks(self, nvars):
        raise NotImplementedError

    def __eq__(self, other):
        return type(self) is type(other)

    def __hash__(self):
        return hash(type(self))

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
    A monomial that is not `nvars` non-negative int exponents raises
    :class:`UniverseMismatchError`."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        clean = {}
        if terms:
            for mono, coeff in terms.items():
                mono = tuple(mono)
                if (len(mono) != nvars or not {int}.issuperset(map(type, mono))
                        or min(mono, default=0) < 0):
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
    def _of(cls, nvars, terms):
        """The polynomial of ``terms`` as they are, unchecked: nonzero
        Fractions on monomials of ``nvars`` non-negative ints."""
        out = cls.__new__(cls)
        out.nvars = nvars
        out.terms = terms
        return out

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

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other, self.nvars)
        check_ring(self.nvars, [other])
        terms = dict(self.terms)
        for m, c in other.terms.items():
            s = terms.get(m, 0) + c
            if s:
                terms[m] = s
            else:
                terms.pop(m, None)
        return Polynomial._of(self.nvars, terms)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        return self.__add__(-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            terms = {m: c * v for m, v in self.terms.items()} if c else {}
            return Polynomial._of(self.nvars, terms)
        check_ring(self.nvars, [other])
        terms = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                s = terms.get(m, 0) + c1 * c2
                if s:
                    terms[m] = s
                else:
                    terms.pop(m, None)
        return Polynomial._of(self.nvars, terms)

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
        out = {}
        for m, c in self.terms.items():
            e = list(m)
            for i in idx:
                e[i] = 0
            m = tuple(e)
            out[m] = out[m] + c if m in out else c
        return Polynomial._of(self.nvars, {m: c for m, c in out.items() if c})

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


def pack_polys(polys, ring):
    """Packed integer multiples of Fraction polynomials, in ``ring``."""
    out = []
    for p in polys:
        ints, _ = integer_row(p.terms.values())
        out.append(ring.from_terms(dict(zip(p.terms, ints))))
    return out


def to_polynomial(f, ring, den=None):
    """The Fraction :class:`Polynomial` of the polynomial ``f`` packed in
    ``ring``, divided by ``den``: by default its leading coefficient, which
    makes it monic."""
    if den is None:
        den = f[0][1] if f else 1
    return Polynomial._of(ring.nvars,
                          {ring.unpack(m): Fraction(c, den) for m, c in f})
