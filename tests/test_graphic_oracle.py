"""An oracle for the graphic ideal that shares no code with the engine.

The incidence matrix of a bipartite graph is totally unimodular, so every
reduced Groebner basis of its toric ideal consists of circuits: the
binomials x^{C+} - x^{C-} of its even cycles C, with C+ and C- the edges at
even and at odd places along C (Sturmfels, *Groebner Bases and Convex
Polytopes*, 1996, ch. 4 and 8), and the cycle binomials generate the toric
ideal (Villarreal, *Rees algebras of edge ideals*, Comm. Algebra 1995).  So
a list G of polynomials is the reduced grevlex basis of the graphic ideal
when (a) every element of G is a cycle binomial, (b) every cycle binomial
reduces to zero by G, (c) every S-pair of G reduces to zero by G, and G is
reduced.  (a) and (b) make G generate the ideal, (c) makes it a Groebner
basis (Buchberger's criterion).

The reductions here are plain multivariate division over Fraction dicts:
exponent tuples, the grevlex key written out below, a linear scan for the
first divisor, no bitsets, no memo and no criteria.
"""

import itertools
import random
from fractions import Fraction
from operator import le

from slackkit import graphic_ideal, specific_slack_matrix, symbolic_slack_matrix
from slackkit.builtins import BUILTIN_NAMES

import pytest
from hypothesis import given, settings, strategies as st


def grevlex_key(m):
    """Larger for the larger monomial in grevlex with x0 > x1 > ...: the
    degree, then the last exponents, smaller first."""
    return sum(m), [-e for e in reversed(m)]


def divides(a, b):
    return all(map(le, a, b))


def normal_form(f, basis):
    """The remainder of the dict f by plain division by the monic
    ``basis``, a list of (leading monomial, dict) pairs, each monomial
    reduced by the first element whose leading monomial divides it."""
    work, rest = dict(f), {}
    while work:
        m = max(work, key=grevlex_key)
        c = work.pop(m)
        for lt, g in basis:
            if divides(lt, m):
                t = [x - y for x, y in zip(m, lt)]
                for mg, cg in g.items():
                    if mg != lt:
                        mm = tuple(x + y for x, y in zip(mg, t))
                        v = work.get(mm, 0) - c * cg
                        if v:
                            work[mm] = v
                        else:
                            work.pop(mm, None)
                break
        else:
            rest[m] = c
    return rest


def s_pair(f, g):
    """(lcm / lt_f) f - (lcm / lt_g) g of two monic (lt, dict) pairs."""
    (lf, fd), (lg, gd) = f, g
    lcm = [max(x, y) for x, y in zip(lf, lg)]
    out = {}
    for lt, p, sign in ((lf, fd, 1), (lg, gd, -1)):
        for m, c in p.items():
            mm = tuple(x + y - z for x, y, z in zip(m, lcm, lt))
            v = out.get(mm, 0) + sign * c
            if v:
                out[mm] = v
            else:
                out.pop(mm, None)
    return out


def edges_of(sym):
    """The non-incidence graph's edges: variable -> (row node, column node)."""
    return {v: (("r", i), ("c", j)) for v, (i, j) in sym.cell_of.items()}


def simple_cycles(edges):
    """Every simple cycle of the graph, once, as its list of edges in
    cyclic order.  Each cycle is found from its least node, in the
    direction of its smaller first edge."""
    adjacency = {}
    for v, (a, b) in edges.items():
        adjacency.setdefault(a, []).append((v, b))
        adjacency.setdefault(b, []).append((v, a))
    cycles = []
    for start in sorted(adjacency):
        path, on_path = [], {start}

        def walk(node):
            for v, nbr in adjacency[node]:
                if nbr == start and len(path) >= 2 and v != path[-1]:
                    if path[0] < v:
                        cycles.append(path + [v])
                elif nbr > start and nbr not in on_path:
                    on_path.add(nbr)
                    path.append(v)
                    walk(nbr)
                    path.pop()
                    on_path.discard(nbr)

        walk(start)
    return cycles


def cycle_binomial(cycle, nvars):
    """x^{C+} - x^{C-} for the cycle's edges in cyclic order."""
    plus, minus = [0] * nvars, [0] * nvars
    for k, v in enumerate(cycle):
        (plus if k % 2 == 0 else minus)[v] = 1
    return {tuple(plus): Fraction(1), tuple(minus): Fraction(-1)}


def is_cycle_binomial(p, edges):
    """True iff p is x^{C+} - x^{C-} for an even cycle C, up to sign: two
    squarefree terms with coefficients 1 and -1 and disjoint supports, whose
    edges meet every node they touch once from each term, and are connected."""
    if sorted(p.values()) != [-1, 1]:
        return False
    a, b = p
    if any(e > 1 for e in a + b) or any(x and y for x, y in zip(a, b)):
        return False
    touched = {}
    for side, m in enumerate((a, b)):
        for v, e in enumerate(m):
            if e:
                for node in edges[v]:
                    touched.setdefault(node, []).append(side)
    if any(sorted(sides) != [0, 1] for sides in touched.values()):
        return False
    used = [v for v in range(len(a)) if a[v] or b[v]]
    seen, todo = set(), [edges[used[0]][0]]
    while todo:
        node = todo.pop()
        if node not in seen:
            seen.add(node)
            todo.extend(n for v in used for n in edges[v] if node in edges[v])
    return seen == set(touched)


def oracle_basis(sym):
    """The graphic ideal's basis as monic (leading monomial, dict) pairs,
    each leading monomial found by the grevlex key above."""
    basis = []
    for g in graphic_ideal(sym).groebner_basis():
        terms = dict(g.terms)
        lt = max(terms, key=grevlex_key)
        assert terms[lt] == 1
        basis.append((lt, terms))
    return basis


def check_oracle(sym, sample=None):
    """(a), reducedness, then (b) and (c), on a seeded sample of at most
    ``sample`` cycles and S-pairs when ``sample`` is given."""
    edges = edges_of(sym)
    basis = oracle_basis(sym)
    for _, g in basis:  # (a)
        assert is_cycle_binomial(g, edges), g
    lts = [lt for lt, _ in basis]
    for k, (lt, g) in enumerate(basis):  # reduced: no term divisible by
        for m in g:                     # another element's leading monomial
            assert not any(divides(o, m) for i, o in enumerate(lts) if i != k)
    cycles = simple_cycles(edges)
    pairs = list(itertools.combinations(range(len(basis)), 2))
    rng = random.Random(7)
    if sample is not None:
        cycles = rng.sample(cycles, min(sample, len(cycles)))
        pairs = rng.sample(pairs, min(sample, len(pairs)))
    for cycle in cycles:  # (b)
        assert not normal_form(cycle_binomial(cycle, sym.nvars), basis)
    for i, j in pairs:  # (c)
        assert not normal_form(s_pair(basis[i], basis[j]), basis), (i, j)
    return basis, cycles, pairs


def builtin_patterns():
    """Every built-in's full pattern; a scaled built-in gives its base."""
    for name in BUILTIN_NAMES:
        S = specific_slack_matrix(name)
        yield name, getattr(S, "base", None) or symbolic_slack_matrix(S)


# the two large built-ins have too many cycles or S-pairs to reduce them
# all here: Perles has 2,203 cycles but 35,245 S-pairs (about 11 s in
# full), the sphere pattern 231,780 cycles and 155,403 S-pairs.  They are
# checked on a seeded sample, so for them (b) and (c) are no proof
SAMPLES = {"perles-reduced": 5000, "sphere1963-reduced": 1000}
SIZES = {"square": (1, 1, 0), "prism": (3, 3, 3),
         "perles-reduced": (266, 2203, 5000),
         "sphere1963-reduced": (558, 1000, 1000)}


@pytest.mark.parametrize("name,sym", list(builtin_patterns()),
                         ids=list(BUILTIN_NAMES))
def test_graphic_ideal_is_the_reduced_basis_of_its_cycle_binomials(name, sym):
    basis, cycles, pairs = check_oracle(sym, SAMPLES.get(name))
    assert (len(basis), len(cycles), len(pairs)) == SIZES[name]


def random_patterns():
    """0/1 patterns of 2-4 rows and 2-5 columns with no zero row or
    column."""
    def fill(shape):
        rows, cols = shape
        return st.lists(st.lists(st.booleans(), min_size=cols, max_size=cols),
                        min_size=rows, max_size=rows)
    return (st.tuples(st.integers(2, 4), st.integers(2, 5)).flatmap(fill)
            .filter(lambda p: all(map(any, p)) and all(map(any, zip(*p)))))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(random_patterns())
def test_graphic_ideal_of_a_random_pattern_passes_the_oracle(pattern):
    check_oracle(symbolic_slack_matrix(pattern))
