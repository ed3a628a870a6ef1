"""Buchberger-based ideal arithmetic: normal forms, reduced Groebner bases,
elimination, saturation, containment and radical membership.

The public API works with Fraction-coefficient :class:`Polynomial` values.
An :class:`Ideal` holds packed polynomials only, for the integer engine of
:mod:`slackkit.engine`: its generators, packed once when it is built, and
then its reduced basis.  Every operation on ideals follows one pattern: it
reads its input packed (:meth:`Ideal.packed`), makes its engine calls there
(under :func:`~slackkit.engine.widening`, so that a degree overflow reruns
the whole operation with wider fields) and returns an ideal that holds the
packed result.  Fractions come back only when a basis is asked for; the
conversions are :func:`~slackkit.poly.pack_polys` and its inverse.

Every order but grevlex is reached by converting the reduced grevlex basis
(:func:`convert_basis`); a lex run from raw generators can stall on growing
coefficients.  The one exception, measured faster, is :func:`saturate`.

Saturation takes one path: a fresh variable t is eliminated from
I + <1 - t*f>.  Saturating by a product of variables is saturating by that
one monomial, and f lies in the radical of I exactly when I : f^infinity
is <1>, so radical membership is a saturation too.  Only
:func:`homogenize_by_edges`, which saturates a slack ideal by its forest
variables, reads a saturation off a homogenization instead.
"""

from __future__ import annotations

from .engine import FieldOverflow, Reducer, Ring, groebner, widening
from .errors import (UniverseMismatchError, ZeroDivisorPolynomialError,
                     check_ring, check_variables)
from .poly import GRevLex, Polynomial, pack_polys, to_polynomial
from .rationals import integer_row


# -- normal forms ------------------------------------------------------------

# (elements of G, order, number of variables, engine Reducer) for the last
# basis normal_form divided by: callers reduce many polynomials by one basis,
# and the Reducer keeps the divisor it found for every monomial it has met
_last_divisors = None


def normal_form(f: Polynomial, G, order) -> Polynomial:
    """Remainder of multivariate division of f by the list G (the first
    divisor in list order is used at each step)."""
    global _last_divisors
    items = tuple(G)
    memo = _last_divisors
    if memo is not None and memo[:3] != (items, order, f.nvars):
        memo = None
    if memo is None:  # a memoized G was checked when it was stored
        check_ring(f.nvars, items)
    if f.is_zero():
        return f
    ints, scale = integer_row(f.terms.values())

    def run(ring):
        if memo is not None and memo[3].ring is ring:
            red = memo[3]
        else:
            red = Reducer(ring)
            for g in pack_polys([g for g in items if not g.is_zero()], ring):
                red.add(g)
        return (red, *red.reduce({ring.pack(m): c
                                  for m, c in zip(f.terms, ints)}))

    start = memo[3].ring if memo is not None else Ring.for_order(order, f.nvars)
    red, out, factor = widening(run, start)
    _last_divisors = (items, order, f.nvars, red)
    return to_polynomial(out, red.ring, scale * factor)


def buchberger(gens, order) -> list:
    """The unique reduced (monic) Groebner basis, leading terms descending:
    the reduced grevlex basis converted to ``order``."""
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return []
    source, basis = Ideal(gens)._reduced_basis()

    def run(ring):
        return ring, convert_basis(basis, source, ring)

    ring, out = widening(run, Ring.for_order(order, gens[0].nvars))
    return [to_polynomial(f, ring) for f in out]


def convert_basis(basis, source, target):
    """The reduced basis in the order of the ring ``target`` of the ideal
    whose reduced basis in some order of ``source`` is ``basis``, packed in
    ``source``, each element with its leading term first.

    A reduced Groebner basis is the reduced basis of every order that keeps
    all of its leading monomials (Mora & Robbiano, *The Groebner fan of an
    ideal*, JSC 1988): the initial ideal they generate lies in the new one,
    and two initial ideals of one ideal never lie one strictly inside the
    other.  So when every element keeps the leading exponent it had in
    ``source``, the converted elements, sorted by leading monomial,
    descending, are returned as they are: primitive, with the same positive
    leading coefficient, they are what :func:`groebner` would return.
    Otherwise :func:`groebner` runs once on them.  The unit and zero ideals,
    ``[[(0, 1)]]`` and ``[]``, pass through unchanged."""
    polys = target.convert(basis, source)
    repack = target.repack(source)
    if all(repack(f[0][0]) == g[0][0] for f, g in zip(basis, polys)):
        polys.sort(key=lambda f: f[0][0], reverse=True)
        return polys
    return groebner(polys, target)


class Ideal:
    """A finite generator list plus a memoized reduced grevlex basis.

    The ideal holds its polynomials packed for the engine, with the grevlex
    :class:`Ring` they are packed in: Fraction generators are packed once,
    when the ideal is built, and replaced by the reduced basis once that is
    computed.  ``generators`` are the Fraction polynomials the ideal was
    built from.  The operations of this module return ideals that hold only
    their reduced basis: their ``generators`` are that basis.  Other
    Fraction views are built from the packed polynomials when they are
    asked for."""

    order = GRevLex()

    def __init__(self, generators, nvars=None):
        generators = list(generators)
        if nvars is None:
            if not generators:
                raise ValueError("empty ideal needs an explicit nvars")
            nvars = generators[0].nvars
        check_ring(nvars, generators)
        nonzero = [g for g in generators if not g.is_zero()]

        def run(ring):
            return ring, pack_polys(nonzero, ring)

        self._hold(*widening(run, Ring.for_order(self.order, nvars)), False)
        self._generators = generators

    @classmethod
    def of_packed(cls, ring, polys, reduced=True):
        """The ideal of the nonzero engine polynomials ``polys``, packed in
        the grevlex :class:`~slackkit.engine.Ring` ``ring``, with no Fraction
        polynomial built; ``reduced`` tells that they are its reduced
        basis."""
        out = cls.__new__(cls)
        out._hold(ring, polys, reduced)
        return out

    def _hold(self, ring, polys, reduced):
        self.nvars = ring.nvars
        self._ring, self._packed, self._reduced = ring, polys, reduced
        self._generators = self._basis = None

    @property
    def generators(self):
        if self._generators is None:
            self._generators = (self.groebner_basis() if self._reduced else
                                [to_polynomial(f, self._ring) for f in self._packed])
        return self._generators

    def packed(self, ring):
        """The reduced basis once computed, else the generators, packed in
        ``ring``: any ring whose variables include those of the ideal, at
        any field width."""
        return ring.convert(self._packed, self._ring)

    def _reduced_basis(self):
        """The ring and the packed reduced grevlex basis, computed once."""
        if not self._reduced:
            self.generators  # made from the packed ones the basis replaces

            def run(ring):
                return ring, groebner(self.packed(ring), ring)

            self._ring, self._packed = widening(run, self._ring)
            self._reduced = True
        return self._ring, self._packed

    def groebner_basis(self):
        if self._basis is None:
            ring, basis = self._reduced_basis()
            self._basis = [to_polynomial(f, ring) for f in basis]
        return self._basis

    def contains(self, f: Polynomial) -> bool:
        check_ring(self.nvars, [f])
        return normal_form(f, self.groebner_basis(), self.order).is_zero()

    def is_zero(self):
        return not self.groebner_basis()

    def __repr__(self):
        gens = ", ".join(g.to_string(self.order) for g in self.generators[:4])
        more = "" if len(self.generators) <= 4 else ", ..."
        return f"Ideal({gens}{more})"

    def to_strings(self):
        return [g.to_string(self.order) for g in self.groebner_basis()]


def _variables(I: Ideal, *polys):
    """The set of variables that occur in I or in one of ``polys``."""
    acc = 0  # a field of the OR is nonzero iff the variable occurs
    for f in I._packed:
        for m, _ in f:
            acc |= m
    used = {v for v, e in enumerate(I._ring.unpack(acc)) if e}
    for p in polys:
        for m in p.terms:
            used.update(v for v, e in enumerate(m) if e)
    return used


def ideal_equals(I: Ideal, J: Ideal) -> bool:
    """True iff the reduced grevlex bases coincide."""
    return I.nvars == J.nvars and I.groebner_basis() == J.groebner_basis()


def _rabinowitsch(f, ring):
    """1 - t*f packed in ``ring``, t being its last variable and f a
    polynomial in the variables before it."""
    ints, scale = integer_row(f.terms.values())
    terms = {m + (1,): -c for m, c in zip(f.terms, ints)}
    terms[(0,) * ring.nvars] = scale
    return ring.from_terms(terms)


def _eliminate(basis, front, rest, nvars):
    """An ideal intersected with the subring free of the variables
    ``front``: an ideal in the variables ``rest`` of a universe of
    ``nvars``.  ``basis(ring)`` is the ideal's reduced basis in the block
    order "grevlex on ``front``, then grevlex on ``rest``" of the ring
    given; the ideal uses only variables of ``front`` and ``rest``, and
    those from ``nvars`` on must lie in ``front``.  The elements of that
    basis free of ``front`` form the reduced grevlex basis of the
    intersection."""
    front, rest = sorted(front), sorted(rest)
    size = max([nvars, *(v + 1 for v in front)])

    def run(block):
        mask = block.mask(front)
        final = Ring(nvars, [rest], bits=block.bits)
        return final, final.convert(
            [f for f in basis(block) if not f[0][0] & mask], block)

    return Ideal.of_packed(*widening(run, Ring(size, [front, rest])))


def saturate(I: Ideal, f: Polynomial) -> Ideal:
    """I : f^infinity via the extra-variable (Rabinowitsch) trick: a fresh
    last variable t is eliminated from I + <1 - t*f> (Cox, Little &
    O'Shea, *Ideals, Varieties, and Algorithms*, ch. 4 sec. 4).  This is
    the one saturation path; :func:`saturate_by_variables` takes it too.
    Its rings carry t and the variables of I and f only.
    Its block run starts from I + <1 - t*f>, not from a grevlex basis of
    it: on the Perles certificate that made two engine runs, not one, and
    was about 5 % slower."""
    if f.is_zero():
        raise ZeroDivisorPolynomialError("cannot saturate by the zero polynomial")
    check_ring(I.nvars, [f])
    n = I.nvars
    return _eliminate(
        lambda ring: groebner(I.packed(ring) + [_rabinowitsch(f, ring)], ring),
        {n}, _variables(I, f), n)


def saturate_by_variables(I: Ideal, var_indices) -> Ideal:
    """I : (prod x_i)^infinity over the variables x_i, i in ``var_indices``.

    Saturating by each x_i in turn is saturating by their product, one
    monomial, so this is :func:`saturate` by that monomial: a single
    elimination of t from I + <1 - t*prod x_i>.  No variable gives the
    reduced basis of I.

    Slack ideals avoid this for most of their variables: saturating the raw
    minors, or a rehomogenized ideal, passes through bases far larger than
    the result.  When the variables are the edges of a spanning forest of
    the non-incidence graph, :func:`homogenize_by_edges` saturates by them
    one edge at a time instead, and :func:`~slackkit.scaling.slack_ideal`
    uses I_P = H_F(I_P^F) so that only the surviving variables are
    saturated here, in the small dehomogenized ring.
    """
    var_indices = set(var_indices)
    check_variables(var_indices, I.nvars)
    return saturate(I, Polynomial.monomial(
        [int(v in var_indices) for v in range(I.nvars)], I.nvars))


def homogenize_by_edges(I: Ideal, edges) -> Ideal:
    """Reintroduce scaled-away variables one at a time; the result is the
    homogenization of I, saturated by each reintroduced variable.

    ``edges`` is a sequence of (variable, weight variables) pairs.  For each,
    the reduced basis of the current ideal is taken in the order "degree in
    the weight variables, then grevlex", and every element is homogenized
    in that degree with the variable.  Homogenizing a Groebner basis of an
    order compatible with the grading yields a basis of the homogenized
    ideal, and the homogenized ideal is saturated by the homogenizing
    variable (Cox, Little & O'Shea, *Ideals, Varieties, and Algorithms*,
    ch. 8 sec. 4).  Reintroducing a spanning forest of the non-incidence
    graph leaf to root, with each edge weighted by the row or column it
    enters, therefore rehomogenizes a dehomogenized slack ideal.  The
    reduced grevlex basis is returned as the generators.  The unit and zero
    ideals pass through unchanged.

    Each step converts the basis before it (:func:`convert_basis`), from
    I's reduced grevlex basis on: a homogenized basis is the reduced basis
    of "that order on the part free of the variable, then its degree" (CLO,
    ch. 8 sec. 4), so no run is made unless a leading monomial moves.  A
    variable that occurs in the basis it homogenizes raises
    :class:`~slackkit.errors.UniverseMismatchError`.
    """
    edges = [(v, frozenset(w)) for v, w in edges]

    def run(grevlex):
        ring, basis = I._reduced_basis()
        for v, weight in edges:
            weighted = Ring(grevlex.nvars, grevlex.blocks, weight, grevlex.bits)
            wdeg, unit = weighted.weight_degree, weighted.units[v]
            occurs = weighted.mask([v])
            polys = convert_basis(basis, ring, weighted)
            if any(m & occurs for f in polys for m, _ in f):
                raise UniverseMismatchError(
                    f"variable {v} occurs in the ideal it homogenizes")
            basis = []
            for f in polys:
                top = wdeg(f[0][0])  # the order compares this degree first
                f = [(m + (top - wdeg(m)) * unit, c) for m, c in f]
                if weighted.max_degree(f) > weighted.cap:
                    raise FieldOverflow(
                        "homogenization leaves the packed field width")
                basis.append(f)
            ring = weighted
        return grevlex, convert_basis(basis, ring, grevlex)

    return Ideal.of_packed(*widening(run, Ring(I.nvars, [range(I.nvars)])))


def eliminate(I: Ideal, var_indices) -> Ideal:
    """I intersected with the subring without the given variables, read
    off I's reduced grevlex basis converted to a block order, the given
    variables first; its rings carry the variables of I only."""
    var_indices = set(var_indices)
    check_variables(var_indices, I.nvars)
    source, basis = I._reduced_basis()
    used = _variables(I)
    return _eliminate(lambda ring: convert_basis(basis, source, ring),
                      used & var_indices, used - var_indices, I.nvars)


def radical_membership(f: Polynomial, I: Ideal) -> bool:
    """True iff f lies in the radical of I, that is iff I : f^infinity is
    <1> (Cox, Little & O'Shea, *Ideals, Varieties, and Algorithms*, ch. 4
    sec. 2).

    f in I is decided by the memoized basis of I; otherwise this is one
    :func:`saturate`."""
    if I.contains(f):
        return True
    return saturate(I, f)._packed == [[(0, 1)]]  # the reduced basis of <1>
