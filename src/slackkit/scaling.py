"""Spanning-forest scaling of symbolic slack matrices, dehomogenized ideals,
rehomogenization, slack and graphic ideals, flag checks, reduced slack
matrices and irrationality certificates."""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import (NeedsNumericDataError, NeedsScaledMatrixError,
                     NoFlagFoundError, NotAForestError,
                     UniverseMismatchError, check_variables)
from .engine import Ring
from .geometry import PointConfiguration, check_columns
from .groebner import (Ideal, eliminate, homogenize_by_edges,
                       saturate_by_variables)
from .poly import Polynomial
from .rationals import denominator_lcm, int_rref
from .record import Record
from .slack import (NonIncidenceGraph, ScaledSlackMatrix, SlackMatrix,
                    SpanningForest, SymbolicSlackMatrix, slack_matrix,
                    symbolic_slack_matrix, unit_triangle_ideal)


def non_incidence_graph(S) -> NonIncidenceGraph:
    return symbolic_slack_matrix(S).graph


def set_ones_forest(S):
    """Scale a maximal spanning forest of the non-incidence graph to ones.

    Returns (ScaledSlackMatrix, SpanningForest) with the deterministic BFS
    forest."""
    sym = symbolic_slack_matrix(S)
    Y = ScaledSlackMatrix(sym, sym.graph.spanning_forest().variables)
    return Y, Y.forest


def set_ones(S, var_indices) -> ScaledSlackMatrix:
    """Set the chosen variables to one; they must form a forest in the
    non-incidence graph, or the scaling is invalid (NotAForestError)."""
    return ScaledSlackMatrix(symbolic_slack_matrix(S), var_indices)


def forest_from_ones(Y: ScaledSlackMatrix) -> SpanningForest:
    """The oriented forest of a scaled matrix's ones, kept as ``Y.forest``."""
    return _scaled(Y).forest


def _scaled(Y):
    """Y, checked to be a :class:`~slackkit.slack.ScaledSlackMatrix`."""
    if not isinstance(Y, ScaledSlackMatrix):
        raise NeedsScaledMatrixError(
            f"a scaled slack matrix is needed, not {type(Y).__name__}: "
            "scale one with set_ones or set_ones_forest")
    return Y


def dehomogenized_ideal(d, Y: ScaledSlackMatrix) -> Ideal:
    """Slack ideal of the scaled matrix: (d+2)-minors saturated by the
    product m of the surviving variables, by one elimination of t from the
    minors and 1 - t*m (:func:`~slackkit.groebner.saturate_by_variables`).

    Only the minors that contain a unit triangle are saturated: rows and
    columns, at most d+1 of each, whose submatrix is lower triangular with
    nonzero diagonal, so its determinant is a monomial in the surviving
    variables (scaled ones contribute 1) and a unit after saturating.  By
    Sylvester's determinant identity those minors generate the same ideal
    as all of them once the monomial is inverted, so the saturation is the
    same (see :func:`~slackkit.slack.unit_triangle_ideal`).  On Perles they
    are 12 minors instead of 16,497."""
    return saturate_by_variables(unit_triangle_ideal(d, _scaled(Y)),
                                 Y.surviving_variables())


def rehomogenize_poly(p: Polynomial, Y: ScaledSlackMatrix,
                      F: SpanningForest) -> Polynomial:
    """Reintroduce forest variables leaf-to-root until p is homogeneous in
    every row and column touched by the forest.  F must be the forest of
    Y's ones, ``forest_from_ones(Y)``.

    At the edge v from line S into line N (a row or a column), D is the
    largest degree of a term in N's variables, and each term is multiplied
    by v to the power of its gap to D.  The cell of v lies in exactly the
    lines N and S, so the step raises only those two degrees of a term:
    each term's exponents and its row and column degrees are read once,
    into lists that every edge steps in place.  Two terms that agree
    outside v reach the same exponent of v, so the step makes them equal;
    then they are merged, and a merged term whose coefficient cancels is
    dropped, so the next edge takes its maximum over the terms that remain.
    Terms that differ outside the forest variables never meet, so the
    merge is looked for only when a forest variable occurs in p.  The
    result is built once, at the end."""
    sym = _scaled(Y).base
    if F is not Y.forest and F != Y.forest:
        raise NotAForestError("F is not Y's forest: pass forest_from_ones(Y)")
    if p.nvars != sym.nvars:
        raise UniverseMismatchError(
            f"polynomial in {p.nvars} variables, pattern with {sym.nvars}")
    cell_of = sym.cell_of
    forest = F.variables
    merge = False
    terms = []  # [coefficient, exponents, row degrees, column degrees]
    for m, c in p.terms.items():
        rows, cols = [0] * sym.nrows, [0] * sym.ncols
        for w, e in enumerate(m):
            if e:
                i, j = cell_of[w]
                rows[i] += e
                cols[j] += e
                if w in forest:
                    merge = True
        terms.append([c, list(m), rows, cols])
    for v, kind, n, s in reversed(F.edges):
        if not terms:
            break
        N, S = (2, 3) if kind == "r" else (3, 2)
        D = max(t[N][n] for t in terms)
        stepped = False
        for t in terms:
            gap = D - t[N][n]
            if gap:
                t[N][n] = D
                t[S][s] += gap
                t[1][v] += gap
                stepped = True
        if merge and stepped:
            merged = {}
            for t in terms:
                m = tuple(t[1])
                if m in merged:
                    merged[m][0] += t[0]
                else:
                    merged[m] = t
            if len(merged) < len(terms):
                terms = [t for t in merged.values() if t[0]]
    return Polynomial(p.nvars, {tuple(t[1]): t[0] for t in terms})


def rehomogenize_ideal(d, Y: ScaledSlackMatrix) -> Ideal:
    """H_F(I_P^F): the dehomogenized ideal rehomogenized leaf to root and
    saturated by the forest variables, F the forest of Y's ones that Y
    keeps as ``Y.forest``.

    Each forest edge, leaf to root as in :func:`rehomogenize_poly`, is one
    step of :func:`~slackkit.groebner.homogenize_by_edges`: a basis of the
    current ideal in the order "degree in the destination node's variables,
    then grevlex" is homogenized in that degree with the edge variable,
    which saturates by it.  For a maximal forest the result is the slack
    ideal itself (see :func:`slack_ideal`), whatever the forest."""
    return homogenize_by_edges(dehomogenized_ideal(d, Y), forest_weights(Y))


def forest_weights(Y: ScaledSlackMatrix):
    """The edges of Y's forest leaf to root, each as ``(edge variable,
    variables of the row or column the edge enters)``: the argument of
    :func:`~slackkit.groebner.homogenize_by_edges` that reintroduces it."""
    adjacency = Y.base.graph.adjacency
    return [(v, [w for w, _ in adjacency[kind, n]])
            for v, kind, n, _ in reversed(Y.forest.edges)]


def slack_ideal(d, S, object="polytope") -> Ideal:
    """The slack ideal: all (d+2)-minors of the symbolic slack matrix,
    saturated by the product of all variables.  For matroids pass the rank
    minus one in place of d.

    It is computed as H_F(I_P^F): the BFS spanning forest F of
    :func:`set_ones_forest` is scaled to ones, the slack ideal I_P^F of the
    scaled matrix is taken in the small ring (its minors saturated by the
    surviving variables), and it is rehomogenized edge by edge by
    :func:`rehomogenize_ideal`.  This equals I_P for every maximal
    spanning forest: a multihomogeneous f whose scaled
    image lies in I_P^F lifts to x^c * f in the minor ideal for some forest
    monomial x^c, because the forest edges' degrees form a lattice basis of
    the row/column grading; saturating by the forest variables removes x^c.
    A scaled matrix is taken as it is: the result is its dehomogenized
    ideal, whose minors are saturated by the surviving variables (the
    scaled ones do not occur in them).

    Either way the saturated minors are only those that contain a unit
    triangle of the scaled matrix
    (:func:`~slackkit.slack.unit_triangle_ideal`): its determinant is a
    monomial, a unit after saturating, and by Sylvester's determinant
    identity the minors through it generate the same saturated ideal as all
    (d+2)-minors.
    """
    if isinstance(S, (list, PointConfiguration)):
        S = slack_matrix(S, object=object)
    if isinstance(S, ScaledSlackMatrix):
        return dehomogenized_ideal(d, S)
    return rehomogenize_ideal(d, set_ones_forest(S)[0])


def graphic_ideal(S) -> Ideal:
    """Toric ideal of the non-incidence graph: the kernel of
    x_e -> (row of e)(column of e), generated by its even-cycle binomials.

    Computed as H_F(<x_e - 1 : e not in F>) for the BFS spanning forest F of
    :func:`set_ones_forest`: with F scaled to ones, the cycle an edge e
    outside F closes through F gives x_e - 1, and every other cycle
    binomial lies in the ideal these generate.  Rehomogenizing edge by
    edge gives the toric ideal back by the lattice argument of
    :func:`slack_ideal`, which needs only that the ideal is multihomogeneous
    and saturated by every variable.  The binomials x_e - 1 are already
    the reduced grevlex basis of the ideal they generate, so the ideal is
    built holding them as that basis."""
    Y = set_ones_forest(S)[0]
    ring = Ring.for_order(Ideal.order, Y.nvars)
    basis = sorted(([(ring.units[v], 1), (0, -1)]
                    for v in Y.surviving_variables()), reverse=True)
    return homogenize_by_edges(Ideal.of_packed(ring, basis), forest_weights(Y))


# -- flags and reduced matrices ----------------------------------------------


def contains_flag(col_indices, S) -> bool:
    """True iff some sequence of columns from col_indices has zero-set
    intersections of strictly decreasing affine dimension d-1, ..., 0."""
    if isinstance(S, (SymbolicSlackMatrix, ScaledSlackMatrix)):
        raise NeedsNumericDataError(
            "flag containment needs a numeric slack matrix")
    if not isinstance(S, SlackMatrix):
        S = SlackMatrix(S)
    col_indices = check_columns(col_indices, S.ncols)
    return _find_flag(S, S.rank() - 1, col_indices) is not None


def _find_flag(S, d, candidates):
    """A list of d column indices of the numeric slack matrix S forming a
    flag, greedily via DFS: the vertices on the first k columns span a face
    of dimension d - k, whose rows have rank d - k + 1."""
    rows, ncols = S.entries.integer_rows(), S.ncols

    def extend(current_set, dim, used, chosen):
        if dim == 0:
            return chosen
        for j in candidates:
            if j in used:
                continue
            nxt = current_set & S.incidence[j]
            if not nxt:
                continue
            if len(int_rref([rows[i] for i in nxt], ncols)[1]) == dim:
                res = extend(nxt, dim - 1, used | {j}, chosen + [j])
                if res is not None:
                    return res
        return None

    return extend(frozenset(range(S.nrows)), d, frozenset(), [])


def reduced_slack_matrix(d, S, flag_indices=None) -> SymbolicSlackMatrix:
    """Keep the non-simplicial columns plus a flag, so every dropped column
    is simplicial (exactly d zeros).  Returns the kept pattern with fresh
    row-major variables."""
    numeric = isinstance(S, SlackMatrix)
    sym = symbolic_slack_matrix(S)
    zero_counts = [sum(1 for i in range(sym.nrows) if not sym.support[i][j])
                   for j in range(sym.ncols)]
    non_simplicial = [j for j in range(sym.ncols) if zero_counts[j] != d]
    if flag_indices is not None:
        flag_cols = check_columns(flag_indices, sym.ncols)
        if numeric and not contains_flag(flag_cols, S):
            raise NoFlagFoundError("given columns do not contain a flag")
    else:
        if not numeric:
            raise NeedsNumericDataError(
                "flag search needs a numeric slack matrix")
        flag_cols = _find_flag(S, d, range(sym.ncols))
        if flag_cols is None:
            raise NoFlagFoundError("no flag found among the columns")
    keep = sorted(set(non_simplicial) | set(flag_cols))
    pattern = [[sym.support[i][j] for j in keep] for i in range(sym.nrows)]
    return SymbolicSlackMatrix(pattern)


# -- irrationality certificates ----------------------------------------------


class Certificate(Record):
    """The outcome of :func:`irrationality_certificate`: ``kind`` is
    ``"irrational"`` or ``"inconclusive"``, ``minimal_polynomial`` is
    univariate in the kept ``variable`` (it may be zero) and
    ``rational_roots`` are its rational roots."""

    _fields = ("kind", "variable", "minimal_polynomial", "rational_roots")

    def __init__(self, kind: str, variable: int, minimal_polynomial: Polynomial,
                 rational_roots: tuple) -> None:
        self._set(kind, variable, minimal_polynomial, rational_roots)

    def to_dict(self):
        return {
            "kind": self.kind,
            "variable": self.variable,
            "minimal_polynomial": self.minimal_polynomial.to_string(),
            "rational_roots": [str(r) for r in self.rational_roots],
        }


_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n):
    """Miller-Rabin to the bases ``_PRIMES`` for n > 41 prime to them: exact
    below 3.3e24 (Sorenson & Webster, Math. Comp. 86, 2017), a strong
    probable-prime test above."""
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = 2^s * odd
    for a in _PRIMES:
        x = pow(a, (n - 1) >> s, n)
        if x != 1 and all(pow(x, 1 << r, n) != n - 1 for r in range(s)):
            return False
    return True


def _divisors(n):
    """The positive divisors of n != 0, from its prime factors: those in
    ``_PRIMES`` by trial division, the rest split by Pollard's rho until
    :func:`_is_prime`, so the cost does not grow with sqrt(n)."""
    n, primes = abs(n), []
    for p in _PRIMES:
        while n % p == 0:
            primes.append(p)
            n //= p
    rest = [n] if n > 1 else []
    while rest:
        n = rest.pop()
        if _is_prime(n):
            primes.append(n)
            continue
        d, c = n, 0
        while d == n:  # x -> x^2 + c, Floyd's cycle finding
            c, x, y, d = c + 1, 2, 2, 1
            while d == 1:
                x = (x * x + c) % n
                y = ((y * y + c) ** 2 + c) % n
                d = gcd(x - y, n)
        rest += [d, n // d]
    out = [1]
    for p in set(primes):
        out = [d * p ** k for d in out for k in range(primes.count(p) + 1)]
    return sorted(out)


def rational_roots(p: Polynomial, var: int):
    """All rational roots of a univariate polynomial via the rational root
    test on an integer-cleared copy.  A term in any other variable raises
    :class:`UniverseMismatchError`."""
    check_variables([var], p.nvars)
    for m in p.terms:
        for v, e in enumerate(m):
            if e and v != var:
                raise UniverseMismatchError(
                    f"a polynomial in variable {var} alone is needed, and "
                    f"variable {v} occurs")
    if p.is_zero() or p.is_constant():
        return []
    scale = denominator_lcm(p.terms.values())
    coeffs = {m[var]: int(c * scale) for m, c in p.terms.items()}
    low = min(coeffs)  # factor out x^low; x=0 root iff low > 0
    roots = {Fraction(0)} if low > 0 else set()
    dens = _divisors(coeffs[max(coeffs)])
    for num in _divisors(coeffs[low]):
        for cand in (Fraction(s * num, q) for q in dens for s in (1, -1)):
            if sum(c * cand ** e for e, c in coeffs.items()) == 0:
                roots.add(cand)
    return sorted(roots)


def irrationality_certificate(I: Ideal, keep: int) -> Certificate:
    """Eliminate every variable except `keep`.  The reduced basis of the
    elimination ideal lies in Q[x_keep], so it is empty (the zero ideal:
    "inconclusive" with minimal polynomial 0) or one monic polynomial g.  If
    g has no rational root, the slack variety has no rational point,
    certifying non-rational realizability.  The unit ideal gives g = 1,
    which has no root at all: the variety is empty, so there is no
    realization, rational or not, and the result is "irrational"."""
    check_variables([keep], I.nvars)
    others = set(range(I.nvars)) - {keep}
    basis = eliminate(I, others).groebner_basis()
    if not basis:
        return Certificate(kind="inconclusive", variable=keep,
                           minimal_polynomial=Polynomial.zero(I.nvars),
                           rational_roots=())
    minimal = basis[0]
    roots = tuple(rational_roots(minimal, keep))
    return Certificate(kind="inconclusive" if roots else "irrational",
                       variable=keep, minimal_polynomial=minimal,
                       rational_roots=roots)
