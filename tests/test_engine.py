"""The packed-monomial engine: oracle comparisons with sympy, the routes to
a slack ideal, and regressions for engine faults."""

import hashlib
import random
from fractions import Fraction

import pytest

from slackkit import (GRevLex, Ideal, Lex, Polynomial, buchberger,
                      dehomogenized_ideal, eliminate, forest_from_ones,
                      graphic_ideal, irrationality_certificate,
                      minor_ideal_generators, normal_form, radical_membership,
                      rehomogenize_ideal, saturate, saturate_by_variables,
                      set_ones, set_ones_forest, slack_ideal, slack_matrix,
                      specific_slack_matrix, symbolic_slack_matrix)
from slackkit import engine, groebner, slack
from slackkit.groebner import homogenize_by_edges
from slackkit.engine import FieldOverflow, Ring
from slackkit.errors import UniverseMismatchError
from conftest import PERLES_ONES, compare, poly

sympy = pytest.importorskip("sympy")
hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

NV = 3
SYMS = sympy.symbols(f"x0:{NV}")


def to_sympy(p, syms=SYMS):
    return sum(sympy.Rational(c.numerator, c.denominator)
               * sympy.Mul(*[s ** e for s, e in zip(syms, m)])
               for m, c in p.terms.items())


def sympy_basis(exprs, order="grevlex", gens=SYMS):
    """Reduced monic basis as a set of expanded expressions."""
    if not exprs:
        return set()
    G = sympy.groebner(exprs, *gens, order=order, domain="QQ")
    return {sympy.expand(g) for g in G.exprs}


def ours(basis, syms=SYMS):
    return {sympy.expand(to_sympy(g, syms)) for g in basis}


monomial = st.tuples(*[st.integers(0, 2)] * NV)
term = st.tuples(st.integers(-3, 3).filter(bool), monomial)
polynomial = st.lists(term, min_size=1, max_size=3).map(
    lambda ts: poly(NV, *[(c, dict(enumerate(m))) for c, m in ts]))
ideal = st.lists(polynomial, min_size=1, max_size=3).map(
    lambda ps: [p for p in ps if not p.is_zero()]).filter(bool)


def homogeneous_part(p):
    """The terms of p of its highest degree."""
    top = max(map(sum, p.terms))
    return Polynomial(p.nvars, {m: c for m, c in p.terms.items() if sum(m) == top})


# derandomized: sympy's own Buchberger can take minutes on an unlucky random
# ideal, so every run uses the same examples
ORACLE = settings(max_examples=25, deadline=None, derandomize=True)


@ORACLE
@given(polynomial, ideal, st.sampled_from([("grevlex", GRevLex()), ("lex", Lex())]))
def test_normal_form_matches_sympy(f, divisors, order):
    # sympy.reduced divides by the first divisor in list order, as
    # normal_form does, so the remainders must agree exactly
    name, ours_order = order
    _, expected = sympy.reduced(to_sympy(f), [to_sympy(g) for g in divisors],
                                *SYMS, order=name, domain="QQ")
    remainder = normal_form(f, divisors, ours_order)
    assert sympy.expand(to_sympy(remainder) - expected) == 0


RINGS = {"grevlex": Ring.for_order(GRevLex(), NV),
         "lex": Ring.for_order(Lex(), NV)}
# {exponent tuple: int}, with coefficients that make leading ones non-monic
packed_terms = st.dictionaries(monomial, st.integers(-6, 6).filter(bool),
                               min_size=1, max_size=4)


def unpacked(f, scale, ring):
    return Polynomial(NV, {ring.unpack(m): Fraction(c, scale) for m, c in f})


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(RINGS)), st.lists(packed_terms, min_size=1, max_size=4),
       st.lists(packed_terms, min_size=1, max_size=4))
def test_heap_reduction_by_a_reduced_basis_matches_sympy(name, divisors, queries):
    # against a reduced basis the remainder is unique, so sympy's must agree;
    # one Reducer answers every query, so divisors memoized for one query
    # are looked up by the next.  The basis is converted from grevlex, as
    # the library reaches every other order
    ring, grevlex = RINGS[name], RINGS["grevlex"]
    basis = groebner.convert_basis(
        engine.groebner([grevlex.from_terms(g) for g in divisors], grevlex),
        grevlex, ring)
    red = engine.Reducer(ring)
    for g in basis:
        red.add(g)
    exprs = [to_sympy(engine.to_polynomial(g, ring)) for g in basis]
    for f in queries:
        got, scale = red.reduce({ring.pack(m): c for m, c in f.items()})
        _, expected = sympy.reduced(to_sympy(Polynomial(NV, f)), exprs,
                                    *SYMS, order=name, domain="QQ")
        assert sympy.expand(to_sympy(unpacked(got, scale, ring))
                            - expected) == 0


@pytest.mark.parametrize("name", sorted(RINGS))
def test_reduction_of_a_long_polynomial_matches_sympy(name):
    # every monomial of degree at most 9 in 3 variables, 220 terms: the
    # next term is the max of a long work dict, not of a binomial's few
    # terms, and the tails of the divisors land among the terms left
    ring, grevlex = RINGS[name], RINGS["grevlex"]
    gens = [poly(NV, (1, {0: 2}), (-2, {1: 1}), (1, {})),
            poly(NV, (1, {1: 2}), (-1, {0: 1, 2: 1})),
            poly(NV, (1, {2: 2}), (-1, {0: 1}), (3, {1: 1}))]
    basis = groebner.convert_basis(
        engine.groebner(engine.pack_polys(gens, grevlex), grevlex),
        grevlex, ring)
    red = engine.Reducer(ring)
    for g in basis:
        red.add(g)
    rng = random.Random(3)
    f = {(a, b, c): rng.choice([-1, 1]) * rng.randint(1, 9)
         for a in range(10) for b in range(10 - a) for c in range(10 - a - b)}
    work = {ring.pack(m): c for m, c in f.items()}
    assert len(work) >= 200
    got, scale = red.reduce(work)
    exprs = [to_sympy(engine.to_polynomial(g, ring)) for g in basis]
    _, expected = sympy.reduced(to_sympy(Polynomial(NV, f)), exprs, *SYMS,
                                order=name, domain="QQ")
    assert sympy.expand(to_sympy(unpacked(got, scale, ring)) - expected) == 0


# -- the pairs an install keeps ----------------------------------------------


def reference_pairs(lts, idx):
    """The pairs ``(j, idx, lcm)`` that the Gebauer-Moeller criteria keep
    when element idx is installed after 0, ..., idx - 1, from the leading
    exponent tuples ``lts`` by brute force.  The active elements are those
    whose leading monomial no later one divides.  The pair (j, idx) has lcm
    lt * u_j, u_j = lt_j / gcd(lt_j, lt): criterion M drops it when some
    active u_k properly divides u_j, criterion F keeps the lowest j of each
    u_j, and the product criterion drops a u_j whose class holds an lt_j
    coprime to lt."""
    def divides(a, b):
        return all(x <= y for x, y in zip(a, b))

    lt = lts[idx]
    active = [j for j in range(idx)
              if not any(divides(lts[k], lts[j]) for k in range(j + 1, idx))]
    u = {j: tuple(max(a - b, 0) for a, b in zip(lts[j], lt)) for j in active}
    pairs = set()
    for j in active:
        cls = [k for k in active if u[k] == u[j]]
        if (any(u[k] != u[j] and divides(u[k], u[j]) for k in active)
                or j != cls[0] or any(u[k] == lts[k] for k in cls)):
            continue
        pairs.add((j, idx, tuple(a + b for a, b in zip(lt, u[j]))))
    return pairs


@st.composite
def engine_inputs(draw):
    """A ring in 3 to 6 variables, grevlex, two grevlex blocks or grevlex
    after the degree in some variables, at 8 or 16 bits, and generators as
    {exponent tuple: int}."""
    n = draw(st.integers(3, 6))
    bits = draw(st.sampled_from([8, 16]))
    kind = draw(st.sampled_from(["grevlex", "block", "weighted"]))
    order = draw(st.permutations(range(n)))
    if kind == "block":
        cut = draw(st.integers(1, n - 1))
        ring = Ring(n, [order[:cut], order[cut:]], bits=bits)
    else:
        weight = order[:draw(st.integers(1, n - 1))] if kind == "weighted" else None
        ring = Ring(n, [order], weight, bits)
    # dense and sparse monomials, so that linear leading monomials occur
    monomial = st.one_of(
        st.tuples(*[st.integers(0, 2)] * n),
        st.dictionaries(st.integers(0, n - 1), st.integers(1, 2),
                        max_size=3).map(
            lambda e: tuple(e.get(v, 0) for v in range(n))))
    gens = draw(st.lists(st.dictionaries(
        monomial, st.integers(-3, 3).filter(bool), min_size=1, max_size=3),
        min_size=1, max_size=4))
    return ring, gens


@settings(max_examples=100, deadline=None, derandomize=True)
@given(engine_inputs())
def test_install_pushes_the_pairs_the_criteria_keep(inputs):
    # every pair an install pushes, as engine.heappush sees it, against the
    # brute-force criteria over the leading monomials installed so far
    ring, gens = inputs
    lts, pushed = [], []
    push, add = engine.heappush, engine.Reducer.add

    def recorded_push(heap, item):
        if item[2] >= 0:  # a pair, not an input
            pushed.append((item[2], item[3], ring.unpack(item[1])))
        push(heap, item)

    def recorded_add(self, f):
        lts.append(ring.unpack(f[0][0]))
        return add(self, f)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "heappush", recorded_push)
        patch.setattr(engine.Reducer, "add", recorded_add)
        engine.groebner([ring.from_terms(g) for g in gens], ring)
    expected = set()
    for idx in range(len(lts)):
        expected |= reference_pairs(lts, idx)
    assert sorted(pushed) == sorted(expected)


def reference_chained(lts, i, j, lcm):
    """Whether criterion B drops the pair (i, j) of lcm ``lcm``, by brute
    force over the leading exponent tuples ``lts`` installed so far: some
    k > j has lt_k dividing the lcm, and neither lcm(lt_i, lt_k) nor
    lcm(lt_j, lt_k) is the lcm."""
    def lcm_of(a, b):
        return tuple(map(max, a, b))

    return any(all(x <= y for x, y in zip(lts[k], lcm))
               and lcm_of(lts[i], lts[k]) != lcm != lcm_of(lts[j], lts[k])
               for k in range(j + 1, len(lts)))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(engine_inputs())
def test_a_popped_pair_is_reduced_unless_criterion_b_drops_it(inputs):
    # the run's pops and reductions in turn: a popped pair is reduced next
    # unless B drops it, and the run ends with one reduction per element of
    # the basis it returns (none for the unit ideal, returned at once)
    ring, gens = inputs
    lts, events = [], []
    pop, add, reduce = engine.heappop, engine.Reducer.add, engine.Reducer.reduce

    def recorded_pop(heap):
        item = pop(heap)
        events.append((item, len(lts)))
        return item

    def recorded_add(self, f):
        lts.append(ring.unpack(f[0][0]))
        return add(self, f)

    def recorded_reduce(self, work):
        events.append(None)
        return reduce(self, work)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "heappop", recorded_pop)
        patch.setattr(engine.Reducer, "add", recorded_add)
        patch.setattr(engine.Reducer, "reduce", recorded_reduce)
        basis = engine.groebner([ring.from_terms(g) for g in gens], ring)
    if basis != [[(0, 1)]]:
        assert events[len(events) - len(basis):] == [None] * len(basis)
        del events[len(events) - len(basis):]
    for n, event in enumerate(events):
        if event and event[0][2] >= 0:
            (_, lcm, i, j), installed = event
            reduced = events[n + 1:n + 2] == [None]
            assert reduced != reference_chained(lts[:installed], i, j,
                                                ring.unpack(lcm))


@ORACLE
@given(ideal)
def test_buchberger_matches_sympy(gens):
    assert ours(buchberger(gens, GRevLex())) == \
        sympy_basis([to_sympy(g) for g in gens])


def sympy_saturation(exprs, var_indices, syms=SYMS):
    t = sympy.Symbol("t")
    prod = sympy.Mul(*[syms[v] for v in var_indices])
    G = sympy.groebner(list(exprs) + [1 - t * prod], t, *syms, order="lex",
                       domain="QQ")
    return sympy_basis([g for g in G.exprs if not g.has(t)], gens=syms)


@ORACLE
@given(ideal, st.sets(st.integers(0, NV - 1), min_size=0))
def test_saturate_by_variables_matches_sympy(gens, var_indices):
    J = saturate_by_variables(Ideal(gens), var_indices)
    assert ours(J.groebner_basis()) == \
        sympy_saturation([to_sympy(g) for g in gens], var_indices)


@ORACLE
@given(ideal, st.sets(st.integers(0, NV - 1), min_size=1))
def test_saturate_homogeneous_matches_sympy(gens, var_indices):
    # homogeneous input, a separate input class: its saturation is
    # homogeneous too
    gens = [homogeneous_part(g) for g in gens]
    J = saturate_by_variables(Ideal(gens), var_indices)
    assert ours(J.groebner_basis()) == \
        sympy_saturation([to_sympy(g) for g in gens], var_indices)


@ORACLE
@given(ideal, polynomial)
def test_radical_membership_matches_sympy(gens, f):
    t = sympy.Symbol("t")
    exprs = [to_sympy(g) for g in gens] + [1 - t * to_sympy(f)]
    expected = sympy.groebner(exprs, *SYMS, t, order="grevlex",
                              domain="QQ").exprs == [1]
    assert radical_membership(f, Ideal(gens)) == expected


@ORACLE
@given(ideal, st.integers(1, 3))
def test_radical_membership_of_powers(gens, k):
    # every generator's power lies in the ideal, so the generator lies in
    # the radical; this takes the memoized-basis shortcut
    f = gens[0]
    assert radical_membership(f, Ideal([_power(f, k)] + gens[1:]))


def _power(f, k):
    out = f
    for _ in range(k - 1):
        out = out * f
    return out


# -- rings over the variables in use -----------------------------------------
#
# Saturation, elimination and radical membership pack their rings over the
# variables their input uses.  Generators in x1 and x3 of a 6-variable ring
# leave four variables out of those rings; sympy works over all six.

WIDE_NV = 6
WIDE_SYMS = sympy.symbols(f"x0:{WIDE_NV}")


def sparse_polynomial(variables):
    """Polynomials of the 6-variable ring in the given variables only."""
    exponents = st.tuples(*[st.integers(0, 2)] * len(variables))
    return st.lists(st.tuples(st.integers(-3, 3).filter(bool), exponents),
                    min_size=1, max_size=3).map(lambda ts: poly(WIDE_NV, *[
                        (c, dict(zip(variables, e))) for c, e in ts]))


sparse_ideal = st.lists(sparse_polynomial((1, 3)), min_size=1, max_size=3).map(
    lambda ps: [p for p in ps if not p.is_zero()]).filter(bool)


@ORACLE
@given(sparse_ideal, st.sets(st.integers(0, WIDE_NV - 1)))
def test_saturate_by_variables_in_a_subset_matches_sympy(gens, var_indices):
    # the saturating variables may lie outside the generators' x1 and x3
    J = saturate_by_variables(Ideal(gens), var_indices)
    assert ours(J.groebner_basis(), WIDE_SYMS) == sympy_saturation(
        [to_sympy(g, WIDE_SYMS) for g in gens], var_indices, WIDE_SYMS)


@ORACLE
@given(sparse_ideal, st.sets(st.integers(0, WIDE_NV - 1)))
def test_eliminate_in_a_subset_matches_sympy(gens, var_indices):
    # a lex basis with the eliminated variables first holds a basis of the
    # elimination ideal in its elements free of them
    front = [WIDE_SYMS[v] for v in sorted(var_indices)]
    back = [s for v, s in enumerate(WIDE_SYMS) if v not in var_indices]
    G = sympy.groebner([to_sympy(g, WIDE_SYMS) for g in gens], *front, *back,
                       order="lex", domain="QQ")
    expected = sympy_basis([g for g in G.exprs if not g.has(*front)],
                           gens=WIDE_SYMS)
    J = eliminate(Ideal(gens), var_indices)
    assert ours(J.groebner_basis(), WIDE_SYMS) == expected


@ORACLE
@given(sparse_ideal, sparse_polynomial((1, 3, 5)))
def test_radical_membership_in_a_subset_matches_sympy(gens, f):
    # f may bring in x5, which no generator uses
    t = sympy.Symbol("t")
    exprs = [to_sympy(g, WIDE_SYMS) for g in gens]
    exprs.append(1 - t * to_sympy(f, WIDE_SYMS))
    expected = sympy.groebner(exprs, *WIDE_SYMS, t, order="grevlex",
                              domain="QQ").exprs == [1]
    assert radical_membership(f, Ideal(gens)) == expected


# -- the packed hand-off between operations ----------------------------------
#
# An ideal returned by an operation holds only its packed basis, and the next
# operation reads it packed in its own ring.  Each operation applied to such
# an ideal must agree with the same operation applied to the ideal rebuilt
# from its Fraction basis, which packs it again from Fractions.

CHAINED = {
    "eliminate": lambda I, f: eliminate(I, [0]),
    "radical_membership": lambda I, f: radical_membership(f, I),
    # x2 must not occur in the ideal it homogenizes
    "homogenize_by_edges": lambda I, f: homogenize_by_edges(eliminate(I, [2]),
                                                            [(2, [1, 2])]),
    "saturate_by_variables": lambda I, f: saturate_by_variables(I, [0, 2]),
    "saturate": lambda I, f: saturate(I, f),
}


def outcome(result):
    return result.groebner_basis() if isinstance(result, Ideal) else result


def assert_chained_operations_agree(J, f):
    basis = list(J.groebner_basis())
    reentered = Ideal(basis, nvars=J.nvars)
    for name, op in CHAINED.items():
        assert outcome(op(J, f)) == outcome(op(reentered, f)), name
    assert J.groebner_basis() == basis


@ORACLE
@given(ideal, polynomial.filter(lambda p: not p.is_zero()))
def test_operations_on_a_derived_ideal_match_fraction_reentry(gens, f):
    J = saturate_by_variables(Ideal(gens), [1])
    assert_chained_operations_agree(J, f)
    exprs = [to_sympy(g) for g in J.groebner_basis()]
    assert ours(saturate_by_variables(J, [0, 2]).groebner_basis()) == \
        sympy_saturation(exprs, [0, 2])
    t = sympy.Symbol("t")
    expected = sympy.groebner(exprs + [1 - t * to_sympy(f)], *SYMS, t,
                              order="grevlex", domain="QQ").exprs == [1]
    assert radical_membership(f, J) == expected


def test_operations_on_a_basis_in_a_widened_ring():
    # x0^200 does not fit 8-bit fields, so the saturated basis is packed
    # 16 bits wide, and every operation must read it from there
    gens = [poly(NV, (1, {0: 200}), (-1, {1: 1, 2: 1})),
            poly(NV, (1, {1: 2, 2: 1}), (-1, {0: 1, 2: 2}))]
    J = saturate_by_variables(Ideal(gens), [2])
    assert J._ring.bits > 8
    assert_chained_operations_agree(J, poly(NV, (1, {1: 1}), (-1, {})))
    assert_chained_operations_agree(J, poly(NV, (1, {0: 1, 1: 1})))


# -- the forest route of slack_ideal -----------------------------------------

PENTAGON = [(Fraction(t), Fraction(t * t)) for t in (-3, -1, 0, 2, 5)]


def instances():
    yield "square", 2, symbolic_slack_matrix(specific_slack_matrix("square"))
    yield "prism", 3, symbolic_slack_matrix(specific_slack_matrix("prism"))
    yield "pentagon", 2, symbolic_slack_matrix(slack_matrix(PENTAGON))


def route_instances():
    """instances() plus scaled matrices, which slack_ideal takes as they
    are: their minors saturated by the surviving variables only."""
    yield from instances()
    prism = symbolic_slack_matrix(specific_slack_matrix("prism"))
    yield "prism-scaled", 3, set_ones_forest(prism)[0]
    yield "perles-scaled", 8, set_ones(specific_slack_matrix("perles-reduced"),
                                       PERLES_ONES)


@pytest.mark.parametrize("name,d,sym", list(route_instances()),
                         ids=[n for n, _, _ in route_instances()])
def test_forest_route_equals_bayer_stillman_route(name, d, sym):
    minors = Ideal(minor_ideal_generators(d, sym), nvars=sym.nvars)
    bayer_stillman = saturate_by_variables(minors, range(sym.nvars))
    assert slack_ideal(d, sym).groebner_basis() == bayer_stillman.groebner_basis()


def descending_forest(sym):
    """A maximal spanning forest picked greedily from the highest variable
    down (the BFS forest starts from the lowest)."""
    parent = {}

    def find(x):
        while parent.get(x, x) != x:
            x = parent[x]
        return x

    ones = []
    for v in reversed(range(sym.nvars)):
        i, j = sym.cell_of[v]
        a, b = find(("r", i)), find(("c", j))
        if a != b:
            parent[a] = b
            ones.append(v)
    return ones


@pytest.mark.parametrize("name,d,sym", list(instances()),
                         ids=[n for n, _, _ in instances()])
def test_rehomogenized_ideal_independent_of_forest(name, d, sym):
    Y_bfs, F_bfs = set_ones_forest(sym)
    Y_desc = set_ones(sym, descending_forest(sym))
    F_desc = forest_from_ones(Y_desc)
    assert F_bfs.variables != F_desc.variables
    assert len(F_bfs.edges) == len(F_desc.edges)
    assert rehomogenize_ideal(d, Y_bfs).groebner_basis() == \
        rehomogenize_ideal(d, Y_desc).groebner_basis()


# -- engine regressions --------------------------------------------------------


def test_constant_generator_returns_unit_without_pairs(monkeypatch):
    class NoReducer:
        def __init__(self, ring):
            raise AssertionError("a basis was started")

    monkeypatch.setattr(engine, "Reducer", NoReducer)
    gens = [poly(3, (1, {0: 1, 1: 1}), (-1, {2: 2})),
            Polynomial.constant(Fraction(5, 2), 3),
            poly(3, (1, {1: 3}), (1, {0: 1}))]
    assert buchberger(gens, GRevLex()) == [Polynomial.constant(1, 3)]


def test_generator_reducing_to_constant_returns_unit():
    x0 = Polynomial.variable(0, 2)
    assert buchberger([x0, x0 + 1], GRevLex()) == [Polynomial.constant(1, 2)]


def reference_key(m, blocks, weight=()):
    """A plain sort key for the monomial m: its degree in ``weight``, then
    per block its degree and its negated exponents in reverse."""
    k = [sum(m[v] for v in weight)]
    for block in blocks:
        neg = [-m[v] for v in reversed(block)]
        k += [-sum(neg), *neg]
    return k


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.data())
def test_packed_order_is_the_printed_order(data):
    # one block layout defines each order: the Fraction sort key and the
    # packed int must agree on every comparison, at both field widths, in
    # every ring shape Ring.key serves: lex and grevlex, two blocks (an
    # elimination order) and one block after a weight (an edge step), the
    # last from one variable on
    shape = data.draw(st.sampled_from(["lex", "grevlex", "two blocks", "weighted"]))
    n = data.draw(st.integers(2 if shape == "two blocks" else 1, 6))
    order, weight = None, ()
    if shape in ("lex", "grevlex"):
        order = Lex() if shape == "lex" else GRevLex()
        blocks = order.blocks(n)
        ring = Ring.for_order(order, n)
    else:
        variables = data.draw(st.permutations(range(n)))
        if shape == "two blocks":
            cut = data.draw(st.integers(1, n - 1))
            blocks = [variables[:cut], variables[cut:]]
        else:
            blocks = [variables]
            weight = data.draw(st.sets(st.sampled_from(range(n)), min_size=1))
        ring = Ring(n, blocks, weight)
    if data.draw(st.sampled_from([8, 16])) == 16:
        ring = ring.widened()
    top = data.draw(st.sampled_from([3, ring.cap // n]))
    monomial = st.tuples(*[st.integers(0, top)] * n)
    a = data.draw(monomial)
    b = data.draw(monomial | st.permutations(a).map(tuple))
    pa, pb = ring.pack(a), ring.pack(b)
    packed = (pa > pb) - (pa < pb)
    ka, kb = reference_key(a, blocks, weight), reference_key(b, blocks, weight)
    assert (ka > kb) - (ka < kb) == packed
    if order is not None:
        assert compare(order, a, b) == packed


def test_a_weight_needs_a_ring_of_one_block():
    with pytest.raises(ValueError):
        Ring(3, [[0], [1, 2]], weight={0})
    with pytest.raises(ValueError):
        Ring(3, [[0], [1], [2]], weight={1, 2})


def test_certificate_pipeline_converts_at_its_boundary_only(monkeypatch):
    # the only Fraction polynomial made is the certificate's minimal
    # polynomial: the 12 unit-triangle minors go to the saturation packed in
    # the ring of the minors, and the saturated basis goes to the
    # elimination packed
    Y = set_ones(specific_slack_matrix("perles-reduced"), PERLES_ONES)
    calls = {"pack_polys": 0, "to_polynomial": 0}
    for name in calls:
        original = getattr(engine, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        for module in (engine, groebner, slack):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    cert = irrationality_certificate(dehomogenized_ideal(8, Y), 35)
    assert cert.minimal_polynomial.to_string() == "x35^2 + x35 - 1"
    assert calls == {"pack_polys": 0, "to_polynomial": 1}


def test_certificate_rings_carry_the_variables_in_use(monkeypatch):
    # the Perles universe has 36 variables, 37 with the saturation's t; the
    # saturation's engine run carries t and the 12 surviving variables, and
    # the elimination's block ring those 12.  No leading monomial of the
    # saturated basis moves in the block order, so the elimination converts
    # that basis and makes no engine run
    Y = set_ones(specific_slack_matrix("perles-reduced"), PERLES_ONES)
    rings = []
    run, convert = groebner.groebner, groebner.convert_basis

    def recorded(polys, ring):
        rings.append(("run", ring.nvars, ring.size))
        return run(polys, ring)

    def converted(basis, source, target):
        rings.append(("convert", target.nvars, target.size))
        return convert(basis, source, target)

    monkeypatch.setattr(groebner, "groebner", recorded)
    monkeypatch.setattr(groebner, "convert_basis", converted)
    cert = irrationality_certificate(dehomogenized_ideal(8, Y), 35)
    assert cert.minimal_polynomial.to_string() == "x35^2 + x35 - 1"
    assert rings == [("run", 37, 13), ("convert", 36, 12)]


def test_radical_membership_is_one_saturation(monkeypatch):
    # f in I is read off the basis of I; otherwise radical membership makes
    # the one engine run of the saturation, in its block ring "t, then the
    # variables of I and f" (x3 occurs in neither I nor x0 nor x1)
    x0, x1, x2, x3 = (Polynomial.variable(v, 4) for v in range(4))
    I = Ideal([x0 * x0, x1 * x2])
    I.groebner_basis()
    runs = []
    run = groebner.groebner

    def recorded(polys, ring):
        runs.append((ring.nvars, ring.blocks))
        return run(polys, ring)

    monkeypatch.setattr(groebner, "groebner", recorded)
    assert radical_membership(x0 * x0 * x3 + x1 * x2, I)
    assert runs == []
    assert radical_membership(x0, I)
    assert runs == [(5, [(4,), (0, 1, 2)])]
    assert not radical_membership(x1, I)
    assert runs == [(5, [(4,), (0, 1, 2)])] * 2


def engine_work(monkeypatch):
    """Count the engine's pairs pushed and reductions run: every tuple
    pushed on the pair heap, inputs included, and every Reducer.reduce
    call."""
    work = {"pairs": 0, "reductions": 0}
    push, reduce = engine.heappush, engine.Reducer.reduce

    def counted_push(heap, item):
        if isinstance(item, tuple):
            work["pairs"] += 1
        push(heap, item)

    def counted_reduce(self, terms):
        work["reductions"] += 1
        return reduce(self, terms)

    monkeypatch.setattr(engine, "heappush", counted_push)
    monkeypatch.setattr(engine.Reducer, "reduce", counted_reduce)
    return work


def popped_hash(monkeypatch):
    """A sha256 updated with every tuple popped off the pair heap, in turn."""
    popped = hashlib.sha256()
    pop = engine.heappop

    def recorded_pop(heap):
        item = pop(heap)
        if isinstance(item, tuple):
            popped.update(repr(item).encode() + b"\n")
        return item

    monkeypatch.setattr(engine, "heappop", recorded_pop)
    return popped


def test_pentagon_slack_ideal_engine_work(monkeypatch):
    # 9 engine runs: the saturation and the last 8 of the 9 edge steps.  The
    # first edge step gets the saturated basis and the final grevlex run the
    # last homogenized basis; no leading monomial of either moves in the
    # new order, so each is converted with no run.  A change to pair
    # selection or to the edge steps moves these counts.  The pairs may be
    # pushed in any order, but they must be popped in this one: the hash is
    # of every (sugar, lcm, i, j) popped, in turn
    work = engine_work(monkeypatch)
    popped = popped_hash(monkeypatch)
    runs = []
    run = groebner.groebner

    def recorded_run(polys, ring):
        runs.append(ring)
        return run(polys, ring)

    monkeypatch.setattr(groebner, "groebner", recorded_run)
    points = [(0, 0), (2, 0), (3, 1), (1, 3), (-1, 1)]
    S = slack_matrix([tuple(map(Fraction, p)) for p in points])
    assert len(slack_ideal(2, S).groebner_basis()) == 25
    assert len(runs) == 9
    assert work == {"pairs": 481, "reductions": 548}
    assert popped.hexdigest() == ("0e57352b6a6ba3248169452d47e63abf"
                                  "c04f6732f9e0153c42cf43d7713a04da")


def test_perles_graphic_ideal_engine_work(monkeypatch):
    # 24 edge steps and the final grevlex run over all 36 variables.  The
    # ideal starts from its reduced grevlex basis, the binomials x_e - 1, so
    # the first edge step converts it; 6 of the edge steps convert the
    # basis before them with no engine run
    work = engine_work(monkeypatch)
    I = graphic_ideal(specific_slack_matrix("perles-reduced"))
    assert len(I.groebner_basis()) == 266
    assert work == {"pairs": 21170, "reductions": 20443}


def test_weighted_run_with_tails_above_the_leading_degree(monkeypatch):
    # x0 is weighted first, so x0*x1 leads 3*x1*x2*x3^2: reduced inputs
    # carry tail terms of higher degree than their leading one, and the
    # sugar of an input is its leading degree plus that excess.  A change
    # to the sugar moves the pop hash
    ring, grevlex = Ring(4, [[0, 1, 2, 3]], weight={0}), Ring(4, [[0, 1, 2, 3]])
    gens = [{(1, 0, 0, 1): -2, (0, 1, 1, 2): 3, (1, 1, 0, 0): -2},
            {(1, 2, 1, 0): 2, (0, 1, 1, 1): -1},
            {(1, 2, 2, 0): 3, (1, 2, 0, 2): -3, (1, 1, 1, 2): 1}]
    expected = groebner.convert_basis(
        engine.groebner([grevlex.from_terms(g) for g in gens], grevlex),
        grevlex, ring)
    extras = []
    add = engine.Reducer.add

    def recorded_add(self, f):
        idx = add(self, f)
        extras.append(self.polys[idx][2])
        return idx

    monkeypatch.setattr(engine.Reducer, "add", recorded_add)
    work = engine_work(monkeypatch)
    popped = popped_hash(monkeypatch)
    basis = engine.groebner([ring.from_terms(g) for g in gens], ring)
    assert max(extras) > 0
    assert basis == expected
    assert (len(basis), work) == (8, {"pairs": 19, "reductions": 25})
    assert popped.hexdigest() == ("8d1d58bbe39fa66ed83878371a399d44"
                                  "8c89e2744de5b2c8e91ced8292ac213c")


def test_pack_of_a_variable_the_ring_does_not_carry_raises():
    ring = Ring(6, [[3, 1]])
    assert ring.size == 2
    assert ring.unpack(ring.pack((0, 2, 0, 5, 0, 0))) == (0, 2, 0, 5, 0, 0)
    with pytest.raises(ValueError, match="does not carry variable 4"):
        ring.pack((0, 1, 0, 0, 1, 0))


def test_pack_beyond_field_width_raises():
    ring = Ring(2, [[0, 1]], bits=8)
    assert ring.unpack(ring.pack((127, 0))) == (127, 0)
    with pytest.raises(FieldOverflow):
        ring.pack((128, 0))
    with pytest.raises(FieldOverflow):
        ring.pack((64, 64))


def test_input_beyond_field_width_widens():
    # x0^200 does not fit 8-bit fields; the result must still be exact
    gens = [poly(2, (1, {0: 200}), (-1, {1: 1})), poly(2, (1, {1: 2}), (-1, {0: 1}))]
    basis = buchberger(gens, GRevLex())
    x0, x1 = sympy.symbols("x0 x1")
    expected = sympy.groebner([x0 ** 200 - x1, x1 ** 2 - x0], x0, x1,
                              order="grevlex", domain="QQ")
    assert {sympy.expand(g) for g in expected.exprs} == \
        {sympy.expand(sum(sympy.Rational(c.numerator, c.denominator)
                          * x0 ** m[0] * x1 ** m[1]
                          for m, c in g.terms.items())) for g in basis}


def test_ideal_of_generators_beyond_field_width_widens_when_built():
    # the generators are packed once, when the ideal is built: x0^200 does
    # not fit 8-bit fields, so they are packed at 16 bits
    gens = [poly(2, (1, {0: 200}), (-1, {1: 1})), poly(2, (1, {1: 2}), (-1, {0: 1}))]
    I = Ideal(gens)
    assert I._ring.bits == 16
    assert I.generators == gens
    assert I.groebner_basis() == buchberger(gens, GRevLex())


def test_spair_beyond_field_width_widens():
    # inputs of degree 71 fit, but their S-pair lcm x0^70*x1^70 does not
    gens = [poly(3, (1, {0: 70, 1: 1}), (-1, {2: 1})),
            poly(3, (1, {0: 1, 1: 70}), (-1, {2: 1}))]
    ring = Ring(3, [[0, 1, 2]], bits=8)
    packed = engine.pack_polys(gens, ring)
    with pytest.raises(FieldOverflow):
        engine.groebner(packed, ring)
    wide = Ring(3, [[0, 1, 2]], bits=16)
    expected = [engine.to_polynomial(f, wide)
                for f in engine.groebner(engine.pack_polys(gens, wide), wide)]
    assert buchberger(gens, GRevLex()) == expected


def test_reduction_beyond_field_width_widens():
    # x0^127 fits 8-bit fields, but reducing it by x0 - x1^2 reaches x1^254
    x0, x1 = Polynomial.variable(0, 2), Polynomial.variable(1, 2)
    f = Polynomial.monomial((127, 0), 2)
    ring = Ring.for_order(Lex(), 2)
    red = engine.Reducer(ring)
    for g in engine.pack_polys([x0 - x1 * x1], ring):
        red.add(g)
    with pytest.raises(FieldOverflow):
        red.reduce({ring.pack((127, 0)): 1})
    assert normal_form(f, [x0 - x1 * x1], Lex()) == \
        Polynomial.monomial((0, 254), 2)


def test_homogenization_beyond_field_width_widens():
    # x0^100 - x1^100 fits 8-bit fields; homogenizing it with x2 in the
    # degree of x0 gives x1^100*x2^100, of degree 200
    I = Ideal([poly(3, (1, {0: 100}), (-1, {1: 100}))])
    assert I._ring.bits == 8
    J = homogenize_by_edges(I, [(2, [0])])
    assert J.to_strings() == ["x1^100*x2^100 - x0^100"]
    assert J._ring.bits == 16


def test_widened_ring_agrees_on_random_ideals():
    rng = random.Random(5)
    for _ in range(10):
        gens = [poly(3, *[(rng.randint(-2, 2), {i: rng.randint(0, 3) for i in range(3)})
                          for _ in range(3)]) for _ in range(3)]
        gens = [g for g in gens if not g.is_zero()]
        results = []
        for bits in (8, 16):
            ring = Ring(3, [[0, 1, 2]], bits=bits)
            results.append([engine.to_polynomial(f, ring) for f in
                            engine.groebner(engine.pack_polys(gens, ring), ring)])
        assert results[0] == results[1]


def test_interreduce_keeps_an_element_another_leading_monomial_divides():
    # x0^2 - x1 comes first (fewer terms), x0 - x2 + x3 + x4 later; the
    # latter's leading monomial divides the former's.  Each polynomial is
    # reduced only by the ones before it, so x0^2 - x1 is kept as it is, and
    # with the 28 5-term fillers the list still generates the ideal
    gens = [poly(8, (1, {0: 2}), (-1, {1: 1})),
            poly(8, (1, {0: 1}), (-1, {2: 1}), (1, {3: 1}), (1, {4: 1}))]
    # fillers: distinct degree-6 monomials in x5, x6, x7 plus a fixed tail,
    # none reducible by another
    gens += [poly(8, (1, {5: a, 6: b, 7: 6 - a - b}), (1, {5: 1}), (1, {6: 1}),
                  (1, {7: 1}), (1, {}))
             for a in range(7) for b in range(7 - a)]
    ring = Ring(8, [range(8)])
    out = engine.interreduce(engine.pack_polys(gens, ring), ring)
    assert buchberger([engine.to_polynomial(f, ring) for f in out], GRevLex()) == \
        buchberger(gens, GRevLex())


# -- converting a reduced basis to another order -----------------------------

GREVLEX = Ring.for_order(GRevLex(), NV)
CONVERSIONS = {
    "grevlex to weighted": (GREVLEX, Ring(NV, [range(NV)], weight=[1])),
    "grevlex to block": (GREVLEX, Ring(NV, [[2], [0, 1]])),
    "weighted to block": (Ring(NV, [range(NV)], weight=[0, 2]),
                          Ring(NV, [[1], [0, 2]])),
}


def test_convert_basis_is_the_reduced_basis_of_the_target_order(monkeypatch):
    # whether or not a leading monomial moves, the conversion must be what
    # engine.groebner makes of the converted elements; both cases occur
    rng = random.Random(29)
    runs = []
    run = engine.groebner

    def recorded(polys, ring):
        runs.append(ring)
        return run(polys, ring)

    monkeypatch.setattr(groebner, "groebner", recorded)
    fired = {True: 0, False: 0}
    for _ in range(60):
        gens = [poly(NV, *[(rng.randint(-3, 3), {v: rng.randint(0, 2)
                                                  for v in range(NV)})
                           for _ in range(rng.randint(1, 3))])
                for _ in range(rng.randint(1, 3))]
        for source, target in CONVERSIONS.values():
            basis = run(engine.pack_polys(gens, source), source)
            expected = run(target.convert(basis, source), target)
            del runs[:]
            assert groebner.convert_basis(basis, source, target) == expected
            fired[not runs] += 1
    assert fired[True] and fired[False]


def test_convert_basis_runs_when_a_leading_monomial_moves(monkeypatch):
    # x1^2 leads x0 - x1^2 in grevlex, x0 in "degree in x0, then grevlex"
    source = Ring(2, [[0, 1]])
    target = Ring(2, [[0, 1]], weight=[0])
    runs = []
    run = groebner.groebner

    def recorded(polys, ring):
        runs.append(ring)
        return run(polys, ring)

    monkeypatch.setattr(groebner, "groebner", recorded)
    x0, x1 = Polynomial.variable(0, 2), Polynomial.variable(1, 2)
    basis = engine.pack_polys([x0 - x1 * x1], source)
    assert basis[0][0][0] == source.pack((0, 2))
    out = groebner.convert_basis(basis, source, target)
    assert runs == [target]
    assert out[0][0] == (target.pack((1, 0)), 1)
    assert [engine.to_polynomial(f, target) for f in out] == [x0 - x1 * x1]


@pytest.mark.parametrize("basis", [[[(0, 1)]], []], ids=["unit", "zero"])
def test_convert_basis_passes_the_unit_and_zero_ideals(basis, monkeypatch):
    monkeypatch.setattr(groebner, "groebner", None)  # no run may be made
    for source, target in CONVERSIONS.values():
        assert groebner.convert_basis(basis, source, target) == basis


def test_homogenizing_by_a_variable_that_occurs_raises():
    # x2 occurs in I, so homogenizing with it is not the homogenization of
    # I, and the homogenized basis need not be reduced
    x0, x1, x2, x3 = (Polynomial.variable(v, 4) for v in range(4))
    I = Ideal([-3 * x0 * x0 * x1 * x1 * x3 + x1, 3 * x0 * x1 * x2 * x2])
    with pytest.raises(UniverseMismatchError, match="variable 2 occurs"):
        homogenize_by_edges(I, [(2, [1, 2, 3])])


def test_lex_basis_and_elimination_of_a_swelling_ideal_match_sympy():
    # a Buchberger run from these generators straight in lex, or in the
    # block order of the elimination, did not finish: its coefficients grew
    # past 79,000 bits.  Converted from the reduced grevlex basis, each takes
    # a few milliseconds
    x0, x1, x2 = (Polynomial.variable(v, NV) for v in range(NV))
    gens = [x0 * x0 * x1 * x1 * x2 * x2 - Fraction(5, 2) * x0 * x0 * x1
            - 2 * x0 * x0 * x2 - Fraction(5, 2) * x2,
            Fraction(1, 5) * x0 * x1 * x1 * x2 * x2 + x0 * x0 * x2,
            Fraction(-3, 5) * x0 * x1 * x2 + Fraction(4, 5) * x1 * x2 * x2
            + x0 * x0 + Fraction(2, 5) * x2]
    expected = sympy_basis([to_sympy(g) for g in gens], order="lex")
    lex = buchberger(gens, Lex())
    assert len(lex) == 5
    assert ours(lex) == expected
    free = [g for g in expected if not g.has(SYMS[0])]
    assert ours(eliminate(Ideal(gens), [0]).groebner_basis()) == \
        sympy_basis(free)
