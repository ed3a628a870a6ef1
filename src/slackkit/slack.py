"""Slack matrices (numeric, symbolic and scaled), their non-incidence
graphs and spanning forests, minor ideals, Gale-based slack constructions
and minor counting."""

from __future__ import annotations

import itertools
import math
from functools import cached_property
from fractions import Fraction

from .errors import (DegeneratePatternError, NoCircuitsError,
                     NonVertexPointError, NotACofacetError, NotAForestError,
                     ScaledMatrixError, SizeMismatchError, check_support,
                     check_variables)
from .geometry import (GaleTransform, PointConfiguration, check_vertices,
                       integer_hyperplanes, positive_circuits)
from . import engine
from .engine import Ring
from .groebner import Ideal
from .poly import Polynomial
from .rationals import RationalMatrix, int_cofactors, integer_row
from .record import Record


class SlackMatrix:
    """Numeric slack matrix: entry (i, j) is the slack of point i in
    hyperplane j.  Column incidences are the per-column zero index sets."""

    def __init__(self, entries: RationalMatrix, source="pattern"):
        self.entries = entries
        self.source = source
        rows = entries.rows
        self.incidence = [
            frozenset(i for i, row in enumerate(rows) if not row[j])
            for j in range(entries.ncols)]

    @property
    def nrows(self):
        return self.entries.nrows

    @property
    def ncols(self):
        return self.entries.ncols

    def support(self):
        return [[self.entries[i, j] != 0 for j in range(self.ncols)]
                for i in range(self.nrows)]

    def rank(self):
        return self.entries.rank()

    def __repr__(self):
        return f"SlackMatrix({self.nrows}x{self.ncols}, {self.source})"


ONE = -1  # grid sentinel for a scaled-to-one cell (variable indices are >= 0)


class SymbolicSlackMatrix:
    """A 0/1 support pattern with variables assigned row-major over the
    support cells (x0, x1, ... reading left to right, top to bottom).

    ``grid`` holds each cell: None for a zero, else the cell's variable
    index.  ``graph`` is the pattern's :class:`NonIncidenceGraph`."""

    def __init__(self, support):
        support = [[bool(x) for x in row] for row in support]
        self.support = support
        self.nrows = len(support)
        self.ncols = len(support[0]) if support else 0
        if any(len(r) != self.ncols for r in support):
            raise DegeneratePatternError("ragged support pattern")
        self.var_at = {}
        self.grid = [[None] * self.ncols for _ in support]
        for i, row in enumerate(support):
            for j, nonzero in enumerate(row):
                if nonzero:
                    self.var_at[(i, j)] = self.grid[i][j] = len(self.var_at)
        self.nvars = len(self.var_at)
        self.cell_of = {v: cell for cell, v in self.var_at.items()}
        self.graph = NonIncidenceGraph(self)

    def __repr__(self):
        return f"SymbolicSlackMatrix({self.nrows}x{self.ncols}, {self.nvars} vars)"


# graph nodes: ("r", i) for rows, ("c", j) for columns


class SpanningForest(Record):
    """Oriented forest edges in BFS (root-to-leaf) order plus the roots.

    Each edge is the record ``(variable, kind, line, source)``: it enters
    row ``line`` from column ``source`` when ``kind`` is ``"r"``, and column
    ``line`` from row ``source`` when it is ``"c"``.  Readers walk
    ``reversed(edges)`` to go leaf to root."""

    _fields = ("edges", "roots")

    def __init__(self, edges: tuple, roots: tuple) -> None:
        self._set(edges, roots)

    @cached_property
    def variables(self):
        return frozenset(v for v, *_ in self.edges)


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
        self.adjacency = adj  # each node's (variable, neighbour), by variable

    def spanning_forest(self, allowed=None) -> SpanningForest:
        """Deterministic spanning forest: BFS from the lowest-index column
        node of each component, edges explored in variable-index order.
        With `allowed`, only edges with those variables are used."""
        visited = set()
        edges = []
        roots = []
        # column nodes first so each component is rooted at its lowest column
        ordering = ([("c", j) for j in range(self.sym.ncols)]
                    + [("r", i) for i in range(self.sym.nrows)])
        for start in ordering:
            if start in visited:
                continue
            roots.append(start)
            visited.add(start)
            queue = [start]
            for node in queue:  # the queue grows as it is walked
                for v, nbr in self.adjacency[node]:
                    if nbr in visited or allowed is not None and v not in allowed:
                        continue
                    visited.add(nbr)
                    edges.append((v, *nbr, node[1]))
                    queue.append(nbr)
        return SpanningForest(edges=tuple(edges), roots=tuple(roots))


class ScaledSlackMatrix:
    """A symbolic slack matrix with a set of variables scaled to one.

    Scaling is valid only when the ones form a forest of the non-incidence
    graph, so the constructor checks that and keeps the forest, rooted at
    the lowest-index column node of each component, as ``forest``.  Its
    ``grid`` is the base's with ``ONE`` at the ones."""

    def __init__(self, base: SymbolicSlackMatrix, ones_at):
        self.base = base
        self.ones_at = frozenset(ones_at)
        check_variables(self.ones_at, base.nvars)
        self.forest = base.graph.spanning_forest(self.ones_at)
        # a spanning forest of the ones misses exactly the edges closing cycles
        cycles = self.ones_at - self.forest.variables
        if cycles:
            raise NotAForestError(f"variable x{min(cycles)} closes a cycle")
        self.grid = [[ONE if v in self.ones_at else v for v in row]
                     for row in base.grid]

    @property
    def nrows(self):
        return self.base.nrows

    @property
    def ncols(self):
        return self.base.ncols

    @property
    def nvars(self):
        return self.base.nvars

    def surviving_variables(self):
        return sorted(set(range(self.base.nvars)) - self.ones_at)

    def __repr__(self):
        return (f"ScaledSlackMatrix({self.nrows}x{self.ncols}, "
                f"{len(self.surviving_variables())} vars left)")


# -- constructions -----------------------------------------------------------


def slack_matrix(V, object="polytope") -> SlackMatrix:
    """Slack matrix of conv(V) (object="polytope") or of the matroid of the
    homogenized points (object="matroid"); columns in canonical incidence
    order.

    Every entry is one Fraction, made here from integers: the slack of
    point i in a hyperplane of :func:`~slackkit.geometry.integer_hyperplanes`
    is c . (1, p_i) / den, and row i of the integer [1|V] is k_i (1, p_i)
    with k_i its first entry, so the entry is values[i] / (den * k_i), with
    the values the hyperplane search already computed."""
    if not isinstance(V, PointConfiguration):
        V = PointConfiguration(V)
    rows, hyperplanes = integer_hyperplanes(V, object)
    scales = [row[0] for row in rows]
    cols = [[Fraction(x, den * k) for x, k in zip(values, scales)]
            for _, _, den, values in hyperplanes]
    return _from_columns(cols, V.n, object)


def _from_columns(cols, n, source):
    """The slack matrix of ``n`` points with the columns ``cols``, ordered
    by their zero (incidence) sets as :func:`slack_matrix` orders its
    hyperplanes, so that constructions of one polytope align."""
    cols = sorted(cols, key=lambda col: [i for i, x in enumerate(col) if not x])
    return SlackMatrix(RationalMatrix([[col[i] for col in cols]
                                       for i in range(n)]), source=source)


def symbolic_slack_matrix(S) -> SymbolicSlackMatrix:
    """Replace nonzero entries by distinct variables, row-major.  Rejects
    empty patterns and those with an all-zero row or column (no slack matrix
    looks like that); reduced matrices built internally may carry zero rows."""
    if isinstance(S, SymbolicSlackMatrix):
        return S
    if isinstance(S, ScaledSlackMatrix):
        raise ScaledMatrixError(
            "this slack matrix has entries fixed to one; the full pattern is needed")
    if isinstance(S, SlackMatrix):
        S = S.entries
    sym = SymbolicSlackMatrix(S.rows if isinstance(S, RationalMatrix) else S)
    check_support(sym.support)
    return sym


def _pattern(S):
    """S with its ``grid``: a symbolic or scaled matrix as it is, any other
    slack matrix as its :func:`symbolic_slack_matrix`."""
    return S if isinstance(S, ScaledSlackMatrix) else symbolic_slack_matrix(S)


def pattern_minor(grid, rows, cols, nvars) -> Polynomial:
    """Exact determinant of the given submatrix of a symbolic grid.

    Every cell is 0, 1 or a single variable, so the determinant is a signed
    sum of monomials (one per permutation matching of the support)."""
    terms = {}
    zero = (0,) * nvars

    def rec(rows_left, cols_left, sign, mono):
        if not rows_left:
            terms[mono] = terms.get(mono, 0) + sign
            return
        # expand along the row with fewest nonzero cells
        best, best_cells = None, None
        for ri, r in enumerate(rows_left):
            cells = [(ci, grid[r][c]) for ci, c in enumerate(cols_left)
                     if grid[r][c] is not None]
            if best_cells is None or len(cells) < len(best_cells):
                best, best_cells = ri, cells
                if len(cells) <= 1:
                    break
        if not best_cells:
            return
        sub_rows = rows_left[:best] + rows_left[best + 1:]
        row_sign = sign if best % 2 == 0 else -sign
        for ci, cell in best_cells:
            s = row_sign if ci % 2 == 0 else -row_sign
            sub_cols = cols_left[:ci] + cols_left[ci + 1:]
            if cell == ONE:
                rec(sub_rows, sub_cols, s, mono)
            else:
                m = list(mono)
                m[cell] += 1
                rec(sub_rows, sub_cols, s, tuple(m))
        return

    rec(tuple(rows), tuple(cols), 1, zero)
    return Polynomial(nvars, {m: Fraction(c) for m, c in terms.items() if c})


def _unit_triangle(grid, k):
    """Rows R0 and columns C0 of a symbolic grid, at most k - 1 of each, in
    an order that makes the submatrix lower triangular with nonzero
    diagonal: cell (R0[i], C0[j]) is zero for j > i and nonzero for j = i.
    Its determinant is +-(product of the diagonal), a monomial.

    Greedy: each step takes an available column (zero on every row taken
    so far) and a row in its support, the pair that leaves the most columns
    available, ties to the lowest column and then the lowest row."""
    zeros = [sum(1 << c for c, v in enumerate(row) if v is None) for row in grid]
    avail = (1 << len(grid[0])) - 1
    rows, cols = [], []
    while len(rows) < k - 1:
        best = None
        for c in range(len(grid[0])):
            if not avail >> c & 1:
                continue
            for r, row in enumerate(grid):
                if row[c] is not None:
                    left = (avail & zeros[r]).bit_count()
                    if best is None or left > best[0]:
                        best = (left, r, c)
        if best is None:
            break
        _, r, c = best
        rows.append(r)
        cols.append(c)
        avail &= zeros[r]
    return rows, cols


def _nonzero_minors(grid, k, ring, rows0=(), cols0=()):
    """Yield ``(rows, cols, f)`` for every nonzero k-minor of a symbolic
    grid whose row set contains ``rows0`` and whose column set contains
    ``cols0``, in lexicographic (row set, column set) order, ``f`` its exact
    determinant as ``{packed monomial: int}`` in ``ring``.

    One depth-first pass over row prefixes: after rows r_1 < ... < r_i it
    holds det(r_1..r_i; C) for every column set C of size i, keyed by
    bitmask, and appending a row expands along it,
    det(C + c) += (-1)^#{c' in C : c' > c} * cell * det(C),
    so row sets and column sets share their prefixes once.  Two rules prune
    the pass to the minors that contain rows0 x cols0: a row outside rows0
    is taken only while the rows left to take still fit every rows0 row not
    yet taken, and a column set C of size i is kept only while at most
    k - i columns of cols0 are missing from it.  With both empty every
    nonzero minor is yielded.

    Why the restricted minors suffice: let A = rows0 x cols0 have t < k rows
    and a monomial determinant D (see :func:`_unit_triangle`).  Once D is
    inverted, row and column operations turn the matrix into A (+) B, B the
    Schur complement, without changing its ideal of k-minors, which becomes
    the ideal of (k - t)-minors of B.  By Sylvester's determinant identity
    each of those is a k-minor containing rows0 x cols0, divided by D
    (Bruns and Vetter, Determinantal Rings, section 2).  So saturating by
    the variables of D gives the same ideal from either set of minors."""
    nrows, ncols = len(grid), len(grid[0])
    units = ring.units
    cells = [[(c, 1 << c, 0 if v == ONE else units[v])
              for c, v in enumerate(row) if v is not None] for row in grid]
    need = sum(1 << c for c in cols0)
    col_sets = []
    for extra in itertools.combinations(
            [c for c in range(ncols) if c not in cols0], k - len(cols0)):
        cols = tuple(sorted((*cols0, *extra)))
        col_sets.append((cols, sum(1 << c for c in cols)))

    def extend(dets, r, size):
        out = {}
        for C, f in dets.items():
            for c, bit, unit in cells[r]:
                if C & bit or (need & ~(C | bit)).bit_count() > k - size:
                    continue
                g = out.setdefault(C | bit, {})
                s = -1 if (C >> (c + 1)).bit_count() & 1 else 1
                for m, a in f.items():
                    m += unit
                    v = g.get(m, 0) + s * a
                    if v:
                        g[m] = v
                    else:
                        del g[m]
        return {C: g for C, g in out.items() if g}

    def walk(rows, dets, todo):
        # todo: the rows0 rows not taken yet, ascending
        depth = len(rows)
        if depth == k:
            for cols, mask in col_sets:
                f = dets.get(mask)
                if f:
                    yield rows, cols, f
            return
        start = rows[-1] + 1 if rows else 0
        stop = nrows - k + depth + 1
        if todo:
            # never skip the next rows0 row; take it now if the rows left
            # to take would otherwise not fit the rows0 rows still to come
            if k - depth - 1 < len(todo):
                start = todo[0]
            stop = min(stop, todo[0] + 1)
        for r in range(start, stop):
            sub = extend(dets, r, depth + 1)
            if sub:
                yield from walk(rows + (r,), sub,
                                todo[1:] if todo and r == todo[0] else todo)

    yield from walk((), {0: {0: 1}}, tuple(sorted(rows0)))


def _minor_ideal(grid, nvars, k, rows0=(), cols0=()):
    """The ideal of the distinct nonzero k-minors that contain rows0 x
    cols0, interreduced: taken fewest terms first, then lowest degree, each
    is replaced by its normal form against those kept before it (same
    ideal, far smaller list).  The ideal keeps them packed in the ring of
    the minors."""
    # every minor has degree k and grevlex reduction never raises the degree,
    # so a ring whose degree cap is k never overflows; it carries only the
    # variables of the grid
    used = sorted({v for row in grid for v in row if v is not None and v != ONE})
    ring = Ring(nvars, [used], bits=max(8, k.bit_length() + 1))
    # distinct nonzero minors in enumeration order, packed
    minors = dict.fromkeys(
        tuple(engine.normalize(sorted(f.items(), reverse=True)))
        for _, _, f in _nonzero_minors(grid, k, ring, rows0, cols0))
    return Ideal.of_packed(ring, engine.interreduce(list(minors), ring),
                           reduced=False)


def minor_ideal_generators(d, S):
    """The (d+2)-minors of a symbolic/scaled slack matrix, interreduced:
    taken fewest terms first, then lowest degree, each nonzero one is
    replaced by its normal form against those kept before it (same ideal,
    far smaller list).  A numeric matrix is read as its symbolic pattern."""
    S = _pattern(S)
    return _minor_ideal(S.grid, S.nvars, d + 2).generators


def unit_triangle_ideal(d, S) -> Ideal:
    """An ideal whose saturation by the product of the variables equals
    that of the (d+2)-minors of a symbolic/scaled slack matrix: the ideal of
    the minors that contain the greedy unit triangle of
    :func:`_unit_triangle`, whose determinant is a monomial and so a unit
    after saturating (Sylvester's identity, see :func:`_nonzero_minors`).
    Its generators are interreduced like :func:`minor_ideal_generators`,
    and kept packed.  On the scaled Perles matrix the triangle has 9 rows
    and the minors are 12 of the 16,497 nonzero 10-minors.  A numeric
    matrix is read as its symbolic pattern."""
    S = _pattern(S)
    k = d + 2
    rows0, cols0 = _unit_triangle(S.grid, k)
    return _minor_ideal(S.grid, S.nvars, k, rows0, cols0)


def slack_from_gale_circuits(G: GaleTransform) -> SlackMatrix:
    """One column per minimal positive circuit of G, entries the circuit
    coefficients; columns ordered by their zero (incidence) sets so the
    result aligns with slack_matrix on the same point order."""
    circuits = positive_circuits(G)
    if not circuits:
        raise NoCircuitsError("no positive circuit: not a polytope Gale transform")
    n = G.n
    cols = []
    for c in circuits:
        col = [Fraction(0)] * n
        for i, lam in zip(c.support, c.coefficients):
            col[i] = lam
        cols.append(col)
    S = _from_columns(cols, n, "polytope")
    # a Gale transform of n points spanning Q^d has rank n - 1 - d
    check_vertices(S.incidence, n, n - 1 - G.matrix.rank())
    return S


def slack_from_gale_plucker(G: GaleTransform, cofacets) -> SlackMatrix:
    """Fill a slack matrix with Pluecker coordinates of G: entry (i, j) for i
    in cofacet C_j is +-pluecker(G, C_j minus i), signs fixed per column to
    make all entries positive.

    A cofacet C of size k takes the first k - 1 rows of G, on the
    integer-scaled rows, whose cofactor vector over C is nonzero
    (:func:`~slackkit.rationals.int_cofactors`).  By Cramer's rule that
    vector spans the kernel of those rows at C, and its entries are the
    (k-1)-minors of G at C; with k = rank + 1 they are the Pluecker
    coordinates.  The columns C have rank k - 1 exactly when every row of G
    is orthogonal to that vector.  Only a column that passes every check is
    turned into Fractions, divided once by the product of its rows' integer
    scale factors.  A cofacet given twice is rejected; a partial list is not,
    but every point must lie outside at least one cofacet, that is, on at
    least one of the facets listed: a point inside every cofacet is no
    vertex of the hull (:class:`~slackkit.errors.NonVertexPointError`).
    """
    M = G.matrix
    n = G.n
    scaled = [integer_row(row) for row in M.rows]
    rows = [ints for ints, _ in scaled]
    cols, seen = [], set()
    for cofacet in cofacets:
        cofacet = sorted(cofacet)
        if any(not 0 <= i < n for i in cofacet):
            raise NotACofacetError(f"{cofacet} has a point outside 0..{n - 1}")
        if tuple(cofacet) in seen:
            raise NotACofacetError(f"cofacet {cofacet} is given twice")
        seen.add(tuple(cofacet))
        k = len(cofacet)
        if k > M.nrows + 1:
            raise NotACofacetError(
                f"cofacet {cofacet} has size {k}, expected at most {M.nrows + 1}")
        subset, v = next(int_cofactors(rows, cofacet), (None, None))
        if v is None or any(sum(row[i] * x for i, x in zip(cofacet, v))
                            for row in rows):
            raise NotACofacetError(f"{cofacet} does not support a circuit")
        col = [0] * n
        for i, x in zip(cofacet, v):
            col[i] = x
        nonzero = [x for x in col if x]
        if len(nonzero) != k:
            raise NotACofacetError(f"{cofacet} does not support a circuit")
        if not (all(x > 0 for x in nonzero) or all(x < 0 for x in nonzero)):
            raise NotACofacetError(f"{cofacet} has no positive dependence")
        scale = math.prod(scaled[r][1] for r in subset)
        if nonzero[0] < 0:
            scale = -scale
        cols.append([Fraction(x, scale) for x in col])
    bad = [i for i in range(n) if all(col[i] for col in cols)]
    if bad:
        raise NonVertexPointError(f"points {bad} are not vertices of the hull")
    return _from_columns(cols, n, "polytope")


def count_minors(d, S=None, nrows=None, ncols=None) -> int:
    """Number of (d+2)-minors of S, or of an nrows x ncols matrix."""
    if S is not None:
        nrows, ncols = S.nrows, S.ncols
    elif nrows is None or ncols is None:
        raise SizeMismatchError("count_minors needs S or both nrows and ncols")
    k = d + 2
    if k < 0 or k > nrows or k > ncols:
        return 0
    return math.comb(nrows, k) * math.comb(ncols, k)
