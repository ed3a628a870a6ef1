"""The Groebner engine behind ``groebner``, ``slack`` and ``scaling``.

Monomials are packed into one Python int (Monagan & Pearce, CASC 2007).  A
:class:`Ring` fixes a universe of variables, the subset of it that it
carries, a field width of ``bits`` bits and a monomial order.  The low fields
hold the exponent vector, one field per carried variable with its top bit
kept clear as a guard; the high fields hold the order key, a vector of
linear functions of the exponents.  Both parts are linear in the exponents,
so

* multiplication is one addition,
* comparison in the monomial order is int comparison,
* ``a`` divides ``b`` iff ``(b - a) & guard == 0``.

The supported orders are grevlex blocks (each block compared by degree and
then reverse lexicographically, the first block most significant), or one
block preceded by the degree in a chosen set of variables.  Grevlex, lex,
block elimination orders and the "degree in one row of the slack matrix,
then grevlex" orders of edge-by-edge homogenization are all of these forms.

A ring packs a subset of its universe: a variable it does not carry has
exponent zero in all of its monomials.  The operations that build a ring
from an ideal (saturation, elimination, the minors of a slack matrix) carry
only the variables their input uses.  A variable that
occurs nowhere adds zero to every degree and never breaks a tie, so every
order compares the packed monomials as it would over the whole universe:
the pairs, reductions and bases are the same, and only the ints are
shorter.

Total degrees are capped at ``2**(bits-1) - 1`` so that neither an exponent
field nor a key field can overflow.  Every place that makes a monomial of
larger degree than its inputs checks the cap and raises
:class:`FieldOverflow`; :func:`widening` reruns a computation with twice the
field width when that happens.

Polynomials are lists of ``(monomial, int coefficient)`` pairs in descending
order, primitive, with a positive leading coefficient.  The Buchberger core
selects pairs from a heap keyed once at insertion by (sugar, lcm), applies
the Gebauer-Moeller criteria M, F and the product criterion when a basis
element is installed and criterion B when a pair is selected, and returns
the unit ideal as soon as a constant appears.  The criteria at an install
run on bitsets over the divisor rows of the :class:`Reducer`.  One pass
over the fields finds the active elements above the new leading monomial
in each field, those above it in two fields or more, and its active
multiples.  An element above it in one field only, by one, has a pair
whose lcm is the new leading monomial times a variable, read from a table
of the packed variables by field; it and every element criterion M drops
for it take a few ANDs, and only the rest are scanned one by one.

Criterion B drops a selected pair (i, j), i < j, when an element k > j has
a leading monomial that divides the lcm and shares it with neither side.
Its divisor lookup is skipped when nothing was installed after j, or when
the lcm is lt_j times a variable and j is still active (likewise i).  That
is exact: lcm(lt_j, lt_k) is then lt_j or the lcm, so a witness k has lt_k
dividing lt_j, and installing k would have made j inactive.

A reduction takes its next term as the ``max`` of its work dict, with no
term heap: the term order of Monagan & Pearce's heap division, but the
dicts hold a few terms, so a heap costs more than it saves.  A monomial is
always reduced by the lowest-index divisor whose leading monomial divides
it, a choice that depends on the monomial alone: a divisor added later has
a higher index.  So a :class:`Reducer` memoizes the divisor it finds for
each monomial, and the memo outlives every ``add``.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heappop, heappush
from math import gcd

from .poly import Polynomial
from .rationals import integer_row


class FieldOverflow(ArithmeticError):
    """A monomial's degree does not fit the ring's packed field width."""


class Ring:
    """Packing of monomials over a subset of ``nvars`` variables under one
    monomial order.

    ``nvars`` is the size of the universe: the length of the exponent
    tuples :meth:`pack` takes and :meth:`unpack` returns.  ``blocks`` lists
    the variables the ring carries, block by block, most significant block
    first and, inside a block, most significant variable first; each gets
    one packed field, ``size`` fields in all.  A variable left out has
    exponent zero in every monomial of the ring.  ``weight`` is an optional
    set of variables whose total degree is compared before everything else;
    a ring with a weight has one block.
    """

    def __init__(self, nvars, blocks, weight=None, bits=8):
        B = bits
        self.nvars = nvars
        self.bits = B
        self.blocks = [tuple(b) for b in blocks if len(b)]
        self.weight = frozenset(weight) if weight else frozenset()
        carried = sorted(v for b in self.blocks for v in b)
        if carried and (carried[0] < 0 or carried[-1] >= nvars
                        or len(set(carried)) < len(carried)):
            raise ValueError("blocks must list distinct variables of the universe")
        self.size = n = len(carried)
        fm = (1 << B) - 1
        field = [None] * nvars
        top = n
        for blk in self.blocks:
            top -= len(blk)
            for j, v in enumerate(blk):
                field[v] = top + j
        self.field = field
        self.absent = tuple(v for v in range(nvars) if field[v] is None)
        # an absent variable reads the bits above the exponent part, which
        # are zero once the key is masked off
        self.shifts = [B * (n if f is None else f) for f in field]
        self.fm = fm
        bmasks = [self.mask(blk) for blk in self.blocks]
        self.E = E = B * n
        self.emask = (1 << E) - 1
        self.ones = ones = sum(1 << (B * j) for j in range(n))
        self.guard = sum(1 << (B * j + B - 1) for j in range(n))
        self.cap = (1 << (B - 1)) - 1
        self.top_shift = ts = B * (n - 1) if n else 0
        if self.weight and len(self.blocks) != 1:
            raise ValueError("a weight needs a ring of one block")
        self.wmask = wmask = self.mask(self.weight)
        # degree-compatible: a smaller monomial never has a larger degree
        self.graded = len(self.blocks) == 1 and not self.weight

        # one closure per ring shape; lex is one block per variable
        full_mask = bmasks[0] if bmasks else 0
        if len(self.blocks) != 1:
            def key(e):
                k = 0
                for m in bmasks:
                    k |= ((e & m) * ones) & m
                return k
        elif wmask:
            def key(e):  # an edge step's order, in one closure
                return ((e * ones) & full_mask) | (
                    (((e & wmask) * ones) >> ts) & fm) << E
        else:
            def key(e):
                return (e * ones) & full_mask
        self.key = key
        self.units = [None if f is None else self.full(1 << (B * f))
                      for f in field]

    @classmethod
    def for_order(cls, order, nvars):
        """The ring of a :class:`~slackkit.poly.MonomialOrder`."""
        return cls(nvars, order.blocks(nvars))

    def widened(self):
        return Ring(self.nvars, self.blocks, self.weight, self.bits * 2)

    def mask(self, variables):
        """The exponent fields of the carried ``variables``, all bits set."""
        return sum(self.fm << (self.bits * self.field[v]) for v in variables)

    # monomials ------------------------------------------------------------

    def full(self, e):
        """Packed monomial from its exponent part."""
        return (self.key(e) << self.E) | e

    def pack(self, exps):
        """Packed monomial from its exponent tuple over the universe."""
        if sum(exps) > self.cap:
            raise FieldOverflow(f"degree {sum(exps)} exceeds {self.cap}")
        for v in self.absent:
            if exps[v]:
                raise ValueError(f"the ring does not carry variable {v}")
        units = self.units
        return sum(e * units[v] for v, e in enumerate(exps) if e)

    def unpack(self, m):
        """The exponent tuple over the universe of a packed monomial."""
        e = m & self.emask
        fm = self.fm
        return tuple((e >> s) & fm for s in self.shifts)

    def fields(self, m):
        """The exponent fields of m, lowest field first."""
        if self.bits == 8:
            return (m & self.emask).to_bytes(self.size, "little")
        B, fm = self.bits, self.fm
        return [(m >> (B * j)) & fm for j in range(self.size)]

    def degree(self, m):
        return ((((m & self.emask) * self.ones) >> self.top_shift) & self.fm)

    def weight_degree(self, m):
        return ((((m & self.wmask) * self.ones) >> self.top_shift) & self.fm)

    # polynomials ------------------------------------------------------------

    def from_terms(self, terms):
        """Packed polynomial from {exponent tuple: int}, made primitive."""
        pack = self.pack
        return normalize(sorted(((pack(m), c) for m, c in terms.items() if c),
                                reverse=True))

    def convert(self, f, source):
        """f, packed in ``source``, repacked in this ring."""
        if source.field == self.field and source.bits == self.bits:
            emask, full = source.emask, self.full
            return sorted(((full(m & emask), c) for m, c in f), reverse=True)
        unpack, pack = source.unpack, self.pack
        return sorted(((pack(unpack(m)), c) for m, c in f), reverse=True)

    def max_degree(self, f):
        if self.graded:  # the leading monomial has the largest degree
            return self.degree(f[0][0])
        deg = self.degree
        return max(deg(m) for m, _ in f)


def normalize(f):
    """Divide out the content and make the leading coefficient positive."""
    if not f:
        return f
    g = 0
    for _, c in f:
        g = gcd(g, c)
        if g == 1:
            break
    if f[0][1] < 0:
        g = -g
    if g != 1:
        f = [(m, c // g) for m, c in f]
    return f


def pack_polys(polys, ring):
    """Packed integer multiples of Fraction :class:`Polynomial` values."""
    out = []
    for p in polys:
        ints, _ = integer_row(p.terms.values())
        out.append(ring.from_terms(dict(zip(p.terms, ints))))
    return out


def to_polynomial(f, ring):
    """Monic Fraction :class:`Polynomial` from a packed polynomial."""
    if not f:
        return Polynomial.zero(ring.nvars)
    lc = Fraction(f[0][1])
    unpack = ring.unpack
    return Polynomial(ring.nvars, {unpack(m): Fraction(c) / lc for m, c in f})


def widening(run, ring):
    """``run(ring)``, retried with doubled field width on overflow."""
    while True:
        try:
            return run(ring)
        except FieldOverflow:
            if ring.bits >= 64:
                raise
            ring = ring.widened()


# -- reduction ---------------------------------------------------------------


class Reducer:
    """A growing list of polynomials used as divisors.

    Divisors are found through bitsets rather than a scan: ``rows[f][k]``
    has bit i set when the exponent in field f of leading monomial i is at
    least k, so the leading monomials dividing m are the bits set in no
    ``rows[f][e_f(m) + 1]``.  Found divisors are memoized per monomial."""

    def __init__(self, ring):
        self.ring = ring
        self.fields = ring.fields
        self.lts = []      # leading monomials
        self.polys = []    # (leading coefficient, tail, extra degree)
        self.cache = {}
        # a row reaches two past every leading exponent, as install reads
        self.rows = [[0] * (min(ring.cap, 127) + 3) for _ in range(ring.size)]

    def add(self, f):
        lt, lc = f[0]
        tail = f[1:]
        ring = self.ring
        extra = 0
        if not ring.graded and tail:
            extra = max(0, ring.max_degree(tail) - ring.degree(lt))
        bit = 1 << len(self.lts)
        exps = self.fields(lt)
        if exps and max(exps) + 3 > len(self.rows[0]):
            for row in self.rows:
                row.extend([0] * (max(exps) + 3 - len(row)))
        for row, e in zip(self.rows, exps):
            for k in range(1, e + 1):
                row[k] |= bit
        self.lts.append(lt)
        self.polys.append((lc, tail, extra))
        return len(self.lts) - 1

    def divisors(self, m):
        """Bitset of the indices whose leading monomial divides m."""
        bad = 0
        try:
            for row, e in zip(self.rows, self.fields(m)):
                bad |= row[e + 1]
        except IndexError:  # an exponent above every leading one
            bad = 0
            for row, e in zip(self.rows, self.fields(m)):
                if e + 1 < len(row):
                    bad |= row[e + 1]
        return ((1 << len(self.lts)) - 1) & ~bad

    def reduce(self, work):
        """Normal form of the polynomial {monomial: coefficient} ``work``,
        taking its largest monomial, ``max(work)``, at each step and
        reducing it by the lowest-index divisor; ``work`` is used up.

        The work is multiplied by integers to keep it integral, so this
        returns ``(remainder, scale)``: the remainder, not made primitive, is
        ``scale`` times the exact one."""
        ring = self.ring
        cap = ring.cap
        degree = ring.degree
        lts = self.lts
        polys = self.polys
        cache = self.cache
        divisors = self.divisors
        out = []
        scale = 1
        while work:
            m = max(work)
            c = work.pop(m)
            r = cache.get(m)
            if r is None:
                hits = divisors(m)
                if not hits:
                    out.append((m, c))
                    continue
                r = cache[m] = (hits & -hits).bit_length() - 1
            lc, tail, extra = polys[r]
            if extra and degree(m) + extra > cap:
                raise FieldOverflow("reduction leaves the packed field width")
            t = m - lts[r]
            g = gcd(c, lc)
            a = lc // g
            b = c // g
            if a != 1:
                scale *= a
                for x in work:
                    work[x] *= a
                out = [(x, a * y) for x, y in out]
            for x, y in tail:
                x += t
                v = work.get(x, 0) - b * y
                if v:
                    work[x] = v
                else:
                    del work[x]
        return out, scale


# -- Buchberger ----------------------------------------------------------------


def groebner(polys, ring):
    """Reduced Groebner basis of the ideal generated by ``polys`` (packed in
    ``ring``).

    Returns the basis sorted by leading monomial, descending; the unit ideal
    is ``[[(0, 1)]]``.

    A run in an order that is not graded can swell from raw generators:
    start it from a reduced basis, as :func:`~slackkit.groebner.convert_basis`
    does.  :func:`~slackkit.groebner.saturate`'s block run, which starts from
    I + <1 - t*f>, is the one exception, measured faster.
    """
    polys = [normalize(list(f)) for f in polys if f]
    for f in polys:
        if not f[0][0] & ring.emask:
            return [[(0, 1)]]
    G = ring.guard
    B = ring.bits
    E = ring.E
    cap = ring.cap
    emask = ring.emask
    degree = ring.degree
    key = ring.key
    shift = B - 1
    red = Reducer(ring)
    lts = red.lts
    polys_of = red.polys
    rows = red.rows
    xs = [ring.full(1 << (B * k)) for k in range(ring.size)]  # x_k of field k
    units = frozenset(xs)
    lte = []           # exponent parts of the leading monomials
    sugar = []
    ltdeg = []
    active = 0         # bitset of the indices whose leading monomial is minimal
    heap = []          # (sugar, lcm, i, j); i < 0 marks input j

    def install(f, s, is_input):
        nonlocal active
        idx = red.add(f)
        lt = f[0][0]
        a = lt & emask
        da = degree(lt)
        extra = polys_of[idx][2]
        if is_input:  # the sugar of an input is its largest degree
            s = max(s, da + extra)
        room = cap - extra
        lte.append(a)
        sugar.append(s)
        ltdeg.append(da)

        def push(j, lcm, du):
            dl = da + du
            if dl > room or dl + polys_of[j][2] > cap:
                raise FieldOverflow("an S-pair leaves the packed field width")
            sj = sugar[j] + dl - ltdeg[j]
            si = s + du
            heappush(heap, (si if si > sj else sj, lcm, j, idx))

        # Gebauer-Moeller: the pair (j, idx) has lcm lt * u_j with
        # u_j = lt_j / gcd(lt_j, lt); keep one pair per minimal u_j (M, F)
        # and drop it if lt_j and lt are coprime (product criterion); no
        # active leading monomial divides another, so a class with u_j = lt_j
        # has j as its only member.  lt is reduced by every element, so no
        # u_j is 1.
        # above[k]: the active j whose exponent in field k exceeds lt's,
        # that is, whose u_j has field k; once and twice: the j in at least
        # one and at least two of them.  The active multiples of lt have
        # every field at least lt's.  Only the fields with above[k]
        # nonzero are kept, as (x_k, above[k], row[e + 2])
        above = []
        once = twice = 0
        multiples = active
        for row, e, x in zip(rows, red.fields(lt), xs):
            ak = active & row[e + 1]
            if ak:
                above.append((x, ak, row[e + 2]))
                twice |= once & ak
                once |= ak
            if e:
                multiples &= row[e]
        # the class u_j = x_k, in above[k] alone and not in row[e + 2], is
        # minimal, and x_k divides every u_j in above[k]: keep its lowest j
        # and drop all of above[k] (criterion M)
        dropped = 0
        for x, ak, over in above:
            cls = ak & ~twice & ~over
            if cls:
                j = (cls & -cls).bit_length() - 1
                if lts[j] != x:
                    push(j, lt + x, 1)
                dropped |= ak
        classes = {}
        rest = active & ~dropped
        while rest:
            low = rest & -rest
            rest ^= low
            j = low.bit_length() - 1
            b = lte[j]
            t = (b | G) - a
            gb = t & G
            u = t & (gb - (gb >> shift))
            if u not in classes:
                classes[u] = ~j if u == b else j
        kept = []
        # a divisor of u is numerically smaller, so ascending order
        # meets every divisor first
        for u in sorted(classes):
            for k in kept:
                if not (u - k) & G:
                    break
            else:
                kept.append(u)
                j = classes[u]
                if j >= 0:
                    push(j, lt + ((key(u) << E) | u), degree(u))
        active = (active & ~multiples) | (1 << idx)

    for k, f in enumerate(polys):
        heappush(heap, (ring.max_degree(f), f[0][0], -1, k))

    while heap:
        s, lcm, i, j = heappop(heap)
        if i < 0:
            work = dict(polys[j])
        else:
            # criterion B, applied lazily, after its exact pretest (see the
            # module docstring)
            ti = lcm - lts[i]
            tj = lcm - lts[j]
            if not (j + 1 == len(lts) or tj in units and active >> j & 1
                    or ti in units and active >> i & 1):
                le = lcm & emask
                hits = red.divisors(lcm) >> (j + 1)
                chained = False
                while hits:
                    low = hits & -hits
                    hits ^= low
                    b = lte[j + low.bit_length()]
                    if (_lcm_exp(lte[i], b, G, B) != le
                            and _lcm_exp(lte[j], b, G, B) != le):
                        chained = True
                        break
                if chained:
                    continue
            lci, taili, _ = polys_of[i]
            lcj, tailj, _ = polys_of[j]
            g = gcd(lci, lcj)
            a, b = lcj // g, lci // g
            work = {x + ti: a * y for x, y in taili}
            for x, y in tailj:
                x += tj
                v = work.get(x, 0) - b * y
                if v:
                    work[x] = v
                else:
                    work.pop(x, None)
        r = normalize(red.reduce(work)[0])
        if not r:
            continue
        if not r[0][0] & emask:
            return [[(0, 1)]]
        install(r, s, i < 0)

    out = []
    while active:
        low = active & -active
        active ^= low
        idx = low.bit_length() - 1
        lc, tail, _ = polys_of[idx]
        tail, scale = red.reduce(dict(tail))
        out.append(normalize([(lts[idx], lc * scale)] + tail))
    out.sort(key=lambda f: f[0][0], reverse=True)
    return out


def _lcm_exp(a, b, G, B):
    """Fieldwise maximum of two exponent parts."""
    t = ((a | G) - b) & G
    m = t - (t >> (B - 1))
    return (a & m) | (b & ~m)


def interreduce(polys, ring):
    """A list of polynomials generating the same ideal as the primitive
    polynomials ``polys``, each reduced by the ones before it, simplest
    first; not a Groebner basis in general."""
    red = Reducer(ring)
    basis = []
    for f in sorted((f for f in polys if f),
                    key=lambda f: (len(f), ring.max_degree(f))):
        r = normalize(red.reduce(dict(f))[0])
        if r:
            basis.append(r)
            red.add(r)
    return basis

