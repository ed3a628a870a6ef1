"""Spanning-forest scaling of symbolic slack matrices, dehomogenized ideals,
rehomogenization, flag checks, reduced slack matrices and irrationality
certificates."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (NeedsNumericDataError, NoFlagFoundError,
                     NotAForestError, SizeMismatchError, UniverseMismatchError,
                     variable_outside)
from .groebner import (Ideal, eliminate, homogenize_by_edges,
                       saturate_by_variables)
from .poly import Polynomial
from .rationals import denominator_lcm, int_rref
from .slack import (ScaledSlackMatrix, SlackMatrix, SymbolicSlackMatrix,
                    symbolic_slack_matrix, unit_triangle_ideal)

# graph nodes: ("r", i) for rows, ("c", j) for columns


@dataclass(frozen=True)
class ForestEdge:
    variable: int
    source: tuple
    destination: tuple


class NonIncidenceGraph:
    """Bipartite graph on row and column nodes with one edge per support
    cell, labeled by the cell's variable index."""

    def __init__(self, sym: SymbolicSlackMatrix):
        self.sym = sym
        self.nodes = ([("r", i) for i in range(sym.nrows)]
                      + [("c", j) for j in range(sym.ncols)])
        self.edges = []  # (variable, row node, col node), by variable index
        adj = {node: [] for node in self.nodes}
        for v in range(sym.nvars):
            i, j = sym.cell_of[v]
            r, c = ("r", i), ("c", j)
            self.edges.append((v, r, c))
            adj[r].append((v, c))
            adj[c].append((v, r))
        self.adjacency = adj


@dataclass(frozen=True)
class SpanningForest:
    """Oriented forest edges in BFS (root-to-leaf) order plus the roots."""

    edges: tuple  # ForestEdge, ordered
    roots: tuple

    @property
    def variables(self):
        return frozenset(e.variable for e in self.edges)


def non_incidence_graph(S) -> NonIncidenceGraph:
    return NonIncidenceGraph(symbolic_slack_matrix(S))


def _bfs_forest(graph: NonIncidenceGraph, allowed=None):
    """Deterministic spanning forest: BFS from the lowest-index column node
    of each component, edges explored in variable-index order.  With
    `allowed`, only edges with those variables are used."""
    visited = set()
    edges = []
    roots = []
    # column nodes first so each component is rooted at its lowest column
    ordering = ([("c", j) for j in range(graph.sym.ncols)]
                + [("r", i) for i in range(graph.sym.nrows)])
    for start in ordering:
        if start in visited:
            continue
        roots.append(start)
        visited.add(start)
        queue = [start]
        while queue:
            node = queue.pop(0)
            for v, nbr in sorted(graph.adjacency[node]):
                if allowed is not None and v not in allowed:
                    continue
                if nbr in visited:
                    continue
                visited.add(nbr)
                edges.append(ForestEdge(variable=v, source=node, destination=nbr))
                queue.append(nbr)
    return SpanningForest(edges=tuple(edges), roots=tuple(roots))


def set_ones_forest(S):
    """Scale a maximal spanning forest of the non-incidence graph to ones.

    Returns (ScaledSlackMatrix, SpanningForest) with the deterministic BFS
    forest."""
    sym = symbolic_slack_matrix(S)
    graph = NonIncidenceGraph(sym)
    forest = _bfs_forest(graph)
    return ScaledSlackMatrix(sym, forest.variables), forest


def set_ones(S, var_indices) -> ScaledSlackMatrix:
    """Set the chosen variables to one; they must form a forest in the
    non-incidence graph (otherwise the scaling is invalid)."""
    Y = ScaledSlackMatrix(symbolic_slack_matrix(S), var_indices)
    # a spanning forest of the ones misses exactly the edges closing cycles
    cycles = Y.ones_at - forest_from_ones(Y).variables
    if cycles:
        raise NotAForestError(f"variable x{min(cycles)} closes a cycle")
    return Y


def forest_from_ones(Y: ScaledSlackMatrix) -> SpanningForest:
    """The oriented forest corresponding to a scaled matrix's ones, rooted at
    the lowest-index column node of each component."""
    graph = NonIncidenceGraph(Y.base)
    return _bfs_forest(graph, allowed=Y.ones_at)


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
    return saturate_by_variables(unit_triangle_ideal(d, Y),
                                 Y.surviving_variables())


def rehomogenize_poly(p: Polynomial, Y: ScaledSlackMatrix,
                      F: SpanningForest) -> Polynomial:
    """Reintroduce forest variables leaf-to-root until p is homogeneous in
    every row and column touched by the forest.

    At the edge v from line S into line N (a row or a column), D is the
    largest degree of a term in N's variables, and each term is multiplied
    by v to the power of its gap to D.  The cell of v lies in exactly the
    lines N and S, so the step raises only those two degrees of a term:
    each term's row and column degrees are read once, from ``cell_of``, and
    kept current from edge to edge.  Two terms that agree outside v reach
    the same exponent of v, so the step makes them equal.  Only then are
    terms merged, and a merged term whose coefficient cancels is dropped,
    so the next edge takes its maximum over the terms that remain.  The
    result is built once, at the end."""
    sym = Y.base
    if p.nvars != sym.nvars:
        raise UniverseMismatchError(
            f"polynomial in {p.nvars} variables, pattern with {sym.nvars}")
    terms = {}  # monomial -> [coefficient, row degrees, column degrees]
    for m, c in p.terms.items():
        rows, cols = [0] * sym.nrows, [0] * sym.ncols
        for w, e in enumerate(m):
            if e:
                i, j = sym.cell_of[w]
                rows[i] += e
                cols[j] += e
        terms[m] = [c, rows, cols]
    for edge in reversed(F.edges):
        if not terms:
            break
        v = edge.variable
        kind, n = edge.destination
        s = edge.source[1]
        N, S = (1, 2) if kind == "r" else (2, 1)
        degs = [t[N][n] for t in terms.values()]
        D = max(degs)
        if min(degs) == D:
            continue
        stepped = {}
        merged = False
        for m, t in terms.items():
            gap = D - t[N][n]
            if gap:
                t[N][n] = D
                t[S][s] += gap
                m = m[:v] + (m[v] + gap,) + m[v + 1:]
            if m in stepped:
                stepped[m][0] += t[0]
                merged = True
            else:
                stepped[m] = t
        terms = ({m: t for m, t in stepped.items() if t[0]} if merged
                 else stepped)
    return Polynomial(p.nvars, {m: t[0] for m, t in terms.items()})


def rehomogenize_ideal(d, Y: ScaledSlackMatrix) -> Ideal:
    """H_F(I_P^F): the dehomogenized ideal rehomogenized leaf to root and
    saturated by the forest variables, F the forest of Y's ones
    (:func:`forest_from_ones`).

    Each forest edge, leaf to root as in :func:`rehomogenize_poly`, is one
    step of :func:`~slackkit.groebner.homogenize_by_edges`: a basis of the
    current ideal in the order "degree in the destination node's variables,
    then grevlex" is homogenized in that degree with the edge variable,
    which saturates by it.  For a maximal forest the result is the slack
    ideal itself (see :func:`~slackkit.slack.slack_ideal`), whatever the
    forest."""
    return homogenize_by_edges(dehomogenized_ideal(d, Y),
                               forest_weights(Y.base, forest_from_ones(Y)))


def forest_weights(sym: SymbolicSlackMatrix, F: SpanningForest):
    """The edges of F leaf to root, each as ``(edge variable, variables of
    the row or column the edge enters)``: the argument of
    :func:`~slackkit.groebner.homogenize_by_edges` that reintroduces F."""
    lines = {("r", i): [] for i in range(sym.nrows)}
    lines.update({("c", j): [] for j in range(sym.ncols)})
    for v in range(sym.nvars):
        i, j = sym.cell_of[v]
        lines["r", i].append(v)
        lines["c", j].append(v)
    return [(edge.variable, lines[edge.destination])
            for edge in reversed(F.edges)]


# -- flags and reduced matrices ----------------------------------------------


def contains_flag(col_indices, S) -> bool:
    """True iff some sequence of columns from col_indices has zero-set
    intersections of strictly decreasing affine dimension d-1, ..., 0."""
    if isinstance(S, (SymbolicSlackMatrix, ScaledSlackMatrix)):
        raise NeedsNumericDataError(
            "flag containment needs a numeric slack matrix")
    entries = S.entries if isinstance(S, SlackMatrix) else S
    S = S if isinstance(S, SlackMatrix) else SlackMatrix(entries)
    col_indices = _columns(col_indices, entries.ncols)
    return _find_flag(entries, S, entries.rank() - 1, col_indices) is not None


def _columns(col_indices, ncols):
    """The column indices as a list, each checked to lie in 0..ncols-1."""
    col_indices = list(col_indices)
    for j in col_indices:
        if not 0 <= j < ncols:
            raise SizeMismatchError(f"column {j} outside 0..{ncols - 1}")
    return col_indices


def _find_flag(entries, S, d, candidates):
    """A list of d column indices forming a flag, greedily via DFS: the
    vertices on the first k columns span a face of dimension d - k, whose
    rows have rank d - k + 1."""
    rows, ncols = entries.integer_rows(), entries.ncols

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

    return extend(frozenset(range(entries.nrows)), d, frozenset(), [])


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
        flag_cols = _columns(flag_indices, sym.ncols)
        if numeric and not contains_flag(flag_cols, S):
            raise NoFlagFoundError("given columns do not contain a flag")
    else:
        if not numeric:
            raise NeedsNumericDataError(
                "flag search needs a numeric slack matrix")
        flag_cols = _find_flag(S.entries, S, d, range(sym.ncols))
        if flag_cols is None:
            raise NoFlagFoundError("no flag found among the columns")
    keep = sorted(set(non_simplicial) | set(flag_cols))
    pattern = [[sym.support[i][j] for j in keep] for i in range(sym.nrows)]
    return SymbolicSlackMatrix(pattern)


# -- irrationality certificates ----------------------------------------------


@dataclass(frozen=True)
class Certificate:
    kind: str  # "irrational" | "inconclusive"
    variable: int
    minimal_polynomial: Polynomial  # univariate in the kept variable; may be zero
    rational_roots: tuple

    def to_dict(self):
        return {
            "kind": self.kind,
            "variable": self.variable,
            "minimal_polynomial": self.minimal_polynomial.to_string(),
            "rational_roots": [str(r) for r in self.rational_roots],
        }


def _divisors(n):
    n = abs(n)
    out = []
    i = 1
    while i * i <= n:
        if n % i == 0:
            out.append(i)
            if i != n // i:
                out.append(n // i)
        i += 1
    return sorted(out)


def rational_roots(p: Polynomial, var: int):
    """All rational roots of a univariate polynomial via the rational root
    test on an integer-cleared copy."""
    if p.is_zero() or p.is_constant():
        return []
    scale = denominator_lcm(p.terms.values())
    coeffs = {m[var]: int(c * scale) for m, c in p.terms.items()}
    degree = max(coeffs)
    lead = coeffs[degree]
    low = min(e for e in coeffs)  # factor out x^low; x=0 root iff low > 0
    trailing = coeffs[low]
    roots = set()
    if low > 0:
        roots.add(Fraction(0))
    for pnum in _divisors(trailing):
        for qden in _divisors(lead):
            for cand in (Fraction(pnum, qden), Fraction(-pnum, qden)):
                val = sum(c * cand ** e for e, c in coeffs.items())
                if val == 0:
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
    if not 0 <= keep < I.nvars:
        raise variable_outside(keep, I.nvars)
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
