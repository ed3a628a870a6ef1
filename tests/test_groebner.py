"""Buchberger bases, normal forms, saturation, elimination, membership."""

import itertools
import random

from slackkit import (GRevLex, Ideal, Lex, Polynomial, buchberger, eliminate,
                      ideal_equals, normal_form, radical_membership, saturate,
                      saturate_by_variables, slack_matrix,
                      symbolic_slack_matrix)
from slackkit.slack import unit_triangle_ideal
from slackkit.errors import UniverseMismatchError, ZeroDivisorPolynomialError
from conftest import poly

import pytest


def spoly(f, g, order):
    lf, lg = max(f.terms, key=order.key), max(g.terms, key=order.key)
    lcm = tuple(map(max, lf, lg))

    def lifted(p, lt):
        """p times lcm / lt, made monic."""
        c = p.terms[lt]
        return Polynomial(p.nvars, {tuple(a + b - e for a, b, e in zip(m, lcm, lt)):
                                    v / c for m, v in p.terms.items()})

    return lifted(f, lf) - lifted(g, lg)


def assert_groebner(gens, basis, order):
    """S-pair oracle: every S-polynomial and every input reduces to zero."""
    for f, g in itertools.combinations(basis, 2):
        assert normal_form(spoly(f, g, order), basis, order).is_zero()
    for f in gens:
        assert normal_form(f, basis, order).is_zero()


def test_normal_form_multiple_of_divisor():
    x0 = Polynomial.variable(0, 2)
    assert normal_form(x0 * x0, [x0], GRevLex()).is_zero()


def test_normal_form_single_reduction():
    f = poly(2, (1, {0: 1, 1: 1}), (1, {1: 1}))  # x0*x1 + x1
    x0 = Polynomial.variable(0, 2)
    assert normal_form(f, [x0], GRevLex()) == Polynomial.variable(1, 2)


def test_normal_form_chain_lex():
    # x0*x2 - x1^2 reduces to 0 modulo {x0 - x1, x1 - x2} under lex
    f = poly(3, (1, {0: 1, 2: 1}), (-1, {1: 2}))
    g1 = poly(3, (1, {0: 1}), (-1, {1: 1}))
    g2 = poly(3, (1, {1: 1}), (-1, {2: 1}))
    assert normal_form(f, [g1, g2], Lex()).is_zero()


def test_buchberger_principal():
    x0 = Polynomial.variable(0, 1)
    assert buchberger([x0], GRevLex()) == [x0]


def test_buchberger_empty():
    assert buchberger([], GRevLex()) == []


def test_buchberger_linear_chain_lex():
    g1 = poly(3, (1, {0: 1}), (-1, {1: 1}))  # x0 - x1
    g2 = poly(3, (1, {1: 1}), (-1, {2: 1}))  # x1 - x2
    basis = buchberger([g1, g2], Lex())
    expected = {poly(3, (1, {0: 1}), (-1, {2: 1})),
                poly(3, (1, {1: 1}), (-1, {2: 1}))}
    assert set(basis) == expected
    assert_groebner([g1, g2], basis, Lex())


def test_buchberger_spair_oracle_random():
    rng = random.Random(17)
    for _ in range(8):
        gens = [poly(3, *[(rng.randint(-2, 2),
                           {i: rng.randint(0, 2) for i in range(3)})
                          for _ in range(2)])
                for _ in range(3)]
        gens = [g for g in gens if not g.is_zero()]
        order = GRevLex()
        basis = buchberger(gens, order)
        assert_groebner(gens, basis, order)


def test_reduced_basis_independent_of_generator_order():
    gens = [poly(3, (1, {0: 2}), (-1, {1: 1})),
            poly(3, (1, {1: 2}), (-1, {2: 1})),
            poly(3, (1, {0: 1, 2: 1}), (-1, {1: 1}))]
    order = GRevLex()
    reference = buchberger(gens, order)
    for perm in itertools.permutations(gens):
        assert buchberger(list(perm), order) == reference


def test_saturate_splits_monomial_factor():
    # <x0*x1> : x0^inf = <x1>
    I = Ideal([poly(2, (1, {0: 1, 1: 1}))])
    J = saturate(I, Polynomial.variable(0, 2))
    assert J.groebner_basis() == [Polynomial.variable(1, 2)]


def test_saturate_by_unrelated_variable():
    I = Ideal([Polynomial.variable(0, 2)])
    J = saturate(I, Polynomial.variable(1, 2))
    assert J.groebner_basis() == I.groebner_basis()


def test_saturate_by_zero_rejected():
    I = Ideal([Polynomial.variable(0, 2)])
    with pytest.raises(ZeroDivisorPolynomialError):
        saturate(I, Polynomial.zero(2))


def test_saturate_contains_original():
    I = Ideal([poly(2, (1, {0: 2, 1: 1}), (1, {0: 1}))])
    J = saturate(I, Polynomial.variable(0, 2))
    for g in I.generators:
        assert J.contains(g)


def test_saturate_by_variables_two_generators():
    # <x0*x1, x0*x2> : x0^inf = <x1, x2>
    I = Ideal([poly(3, (1, {0: 1, 1: 1})), poly(3, (1, {0: 1, 2: 1}))])
    J = saturate_by_variables(I, {0})
    K = Ideal([Polynomial.variable(1, 3), Polynomial.variable(2, 3)])
    assert ideal_equals(J, K)


def test_saturate_zero_ideal():
    I = Ideal([], nvars=2)
    assert saturate_by_variables(I, {0, 1}).groebner_basis() == []


def test_saturate_by_variables_order_independent():
    gens = [poly(3, (1, {0: 2, 1: 1}), (-1, {0: 1, 2: 2})),
            poly(3, (1, {1: 2, 2: 1}), (1, {0: 1, 1: 1, 2: 1}))]
    I = Ideal(gens)
    results = []
    for perm in itertools.permutations([0, 1, 2]):
        J = I
        for v in perm:
            J = saturate(J, Polynomial.variable(v, 3))
        results.append(J.groebner_basis())
    assert all(r == results[0] for r in results)
    assert saturate_by_variables(I, {0, 1, 2}).groebner_basis() == results[0]


def test_eliminate_nothing_gives_reduced_basis():
    I = Ideal([poly(2, (2, {0: 1}), (2, {1: 1}))])
    J = eliminate(I, set())
    assert J.groebner_basis() == I.groebner_basis()


def test_eliminate_fresh_variable():
    # eliminate t from <1 - t*x0, x1> with t = index 2
    gens = [poly(3, (1, {}), (-1, {0: 1, 2: 1})), Polynomial.variable(1, 3)]
    J = eliminate(Ideal(gens), {2})
    assert J.groebner_basis() == [Polynomial.variable(1, 3)]


def test_eliminated_generators_avoid_block():
    gens = [poly(3, (1, {0: 1, 1: 1}), (-1, {2: 1})),
            poly(3, (1, {0: 2}), (-1, {1: 1}))]
    J = eliminate(Ideal(gens), {0})
    for g in J.groebner_basis():
        assert all(m[0] == 0 for m in g.terms)


def test_ideal_equals_reflexive_and_strict():
    x0 = Polynomial.variable(0, 1)
    I = Ideal([x0])
    assert ideal_equals(I, I)
    assert not ideal_equals(I, Ideal([x0 * x0]))


def test_radical_membership_square_root():
    x0 = Polynomial.variable(0, 2)
    assert radical_membership(x0, Ideal([x0 * x0]))


def test_radical_membership_negative():
    x0 = Polynomial.variable(0, 2)
    x1 = Polynomial.variable(1, 2)
    assert not radical_membership(x1, Ideal([x0]))


# -- polynomials from a ring of another size are rejected ----------------------


def test_ideal_rejects_generators_of_another_ring():
    with pytest.raises(UniverseMismatchError):
        Ideal([Polynomial.variable(0, 2), Polynomial.variable(2, 3)])
    with pytest.raises(UniverseMismatchError):
        Ideal([Polynomial.variable(0, 2)], nvars=3)


@pytest.mark.parametrize("nvars", [(2, 3), (3, 2)])
def test_buchberger_rejects_generators_of_another_ring(nvars):
    with pytest.raises(UniverseMismatchError):
        buchberger([Polynomial.variable(0, n) for n in nvars], GRevLex())


def test_normal_form_rejects_divisors_of_another_ring():
    x2 = Polynomial.variable(2, 3)
    with pytest.raises(UniverseMismatchError):
        normal_form(x2, [Polynomial.variable(0, 2)], GRevLex())
    # the same divisors are accepted and memoized for a polynomial of their
    # ring, and still rejected for one of another ring after that
    assert normal_form(Polynomial.variable(0, 2), [Polynomial.variable(0, 2)],
                       GRevLex()).is_zero()
    with pytest.raises(UniverseMismatchError):
        normal_form(Polynomial.variable(0, 3), [Polynomial.variable(0, 2)],
                    GRevLex())


def test_normal_form_memo_keeps_the_ring_of_no_divisors():
    # no divisors are the same list in every ring: the reducer memoized for
    # a 4-variable polynomial must not serve a 1-variable one
    order = GRevLex()
    assert normal_form(Polynomial.variable(0, 4), [], order) == \
        Polynomial.variable(0, 4)
    out = normal_form(Polynomial.variable(0, 1), [], order)
    assert out == Polynomial.variable(0, 1)
    assert list(out.terms) == [(1,)]


def test_zero_ideals_of_two_sizes_decide_membership_in_turn():
    assert not Ideal([], nvars=1).contains(Polynomial.variable(0, 1))
    assert not Ideal([], nvars=4).contains(Polynomial.variable(3, 4))


@pytest.mark.parametrize("gens", [[], [Polynomial.variable(0, 2)]],
                         ids=["zero-ideal", "principal"])
def test_contains_rejects_a_polynomial_of_another_ring(gens):
    with pytest.raises(UniverseMismatchError):
        Ideal(gens, nvars=2).contains(Polynomial.variable(2, 3))


def test_saturate_rejects_a_polynomial_of_another_ring():
    with pytest.raises(UniverseMismatchError):
        saturate(Ideal([Polynomial.variable(0, 2)]), Polynomial.variable(2, 3))


def test_saturate_by_variables_rejects_a_variable_of_another_ring():
    with pytest.raises(UniverseMismatchError):
        saturate_by_variables(Ideal([Polynomial.variable(0, 2)]), [5])


@pytest.mark.parametrize("var", [-1, 7, 1.0])
def test_eliminate_rejects_a_variable_of_another_ring(var):
    with pytest.raises(UniverseMismatchError):
        eliminate(Ideal([Polynomial.variable(0, 2)]), [var])


def test_radical_membership_rejects_a_polynomial_of_another_ring():
    with pytest.raises(UniverseMismatchError):
        radical_membership(Polynomial.variable(2, 3),
                           Ideal([Polynomial.variable(0, 2)]))


def test_packed_generators_do_not_depend_on_when_they_are_read():
    # an ideal built packed from the 4 unit-triangle minors of a pentagon
    # keeps them as its generators after its 30-element basis is computed
    pentagon = symbolic_slack_matrix(
        slack_matrix([(0, 0), (2, 0), (3, 1), (1, 3), (-1, 1)]))
    first = unit_triangle_ideal(2, pentagon)
    gens = first.generators
    assert len(gens) == 4
    later = unit_triangle_ideal(2, pentagon)
    assert len(later.groebner_basis()) == 30
    assert later.generators == gens
    assert later.groebner_basis() == first.groebner_basis()


def test_ideal_repr_shows_at_most_four_generators():
    x = [Polynomial.variable(i, 5) for i in range(5)]
    assert repr(Ideal(x[:2])) == "Ideal(x0, x1)"
    assert repr(Ideal([x[0] * x[1] - 2, *x[1:]])) == \
        "Ideal(x0*x1 - 2, x1, x2, x3, ...)"
