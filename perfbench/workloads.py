"""The benchmark's four workloads: seeded inputs, task lists, output checks.

A workload object is built from the seed (this is set-up time) and then
yields its tasks one at a time.  A task is a zero-argument call into slackkit
plus a check of its output; only the call is timed.  Every call goes through
a module attribute (``sk.normal_form``, ``sk.cli.main``) looked up at call
time, so the tracer's rebinding sees it.
"""

import contextlib
import io
import itertools
import json
import random
import sys
from collections import namedtuple
from fractions import Fraction
from pathlib import Path

import slackkit as sk
import slackkit.cli
import slackkit.slack

# check(output) -> error or None.  Tasks of a pass with the same request name
# make one request, whose latency is their sum; by default a task is its own
# request.
Task = namedtuple("Task", "stage call check request", defaults=(None,))

# The spanning tree scaled to ones in the paper's Perles certificate.
PERLES_ONES = (0, 3, 4, 5, 6, 7, 8, 9, 12, 14, 15, 16, 17, 20, 21, 25, 26,
               27, 28, 29, 30, 31, 32, 34)

# Reduced Groebner basis of the dehomogenized Perles ideal under that scaling.
PERLES_DEHOMOGENIZED = (
    "x35^2 + x35 - 1", "x33 - x35 - 1", "x24 - x35", "x23 - x35", "x22 - 1",
    "x19 - x35", "x18 - x35", "x13 - x35 - 1", "x11 - x35", "x10 - 1",
    "x2 - 1", "x1 - x35 - 1",
)

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"


def cli_request(argv, stdin=""):
    """One in-process CLI request: (exit code, captured stdout)."""
    saved, sys.stdin = sys.stdin, io.StringIO(stdin)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = sk.cli.main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def parse_poly(text, nvars):
    """Polynomial from its canonical string, e.g. ``x35^2 + x35 - 1``."""
    terms = {}
    for body in text.replace(" - ", " + -").split(" + "):
        coeff, mono = Fraction(1), [0] * nvars
        if body.startswith("-"):
            coeff, body = -coeff, body[1:]
        for factor in body.split("*"):
            if factor.startswith("x"):
                var, _, exp = factor[1:].partition("^")
                mono[int(var)] += int(exp or 1)
            else:
                coeff *= Fraction(factor)
        terms[tuple(mono)] = coeff
    return sk.Polynomial(nvars, terms)


def parse_matrix(text):
    return [[Fraction(tok) for tok in line.split()] for line in text.splitlines()
            if line.strip()]


def _exit_ok(out):
    code, _ = out
    return None if code == 0 else f"exit code {code}"


class PerlesCertificate:
    """The paper's headline computation, CLI ``certificate`` in-process.
    The instance is fixed, so the seed is unused."""

    ARGV = ["certificate", "-d", "8", "--builtin", "perles-reduced",
            "--ones", ",".join(map(str, PERLES_ONES)), "--variable", "35"]
    EXPECTED = ('{"kind": "irrational", "variable": 35, "minimal_polynomial": '
                '"x35^2 + x35 - 1", "rational_roots": []}\n')

    def __init__(self, seed):
        pass

    def tasks(self):
        yield Task("certificate", lambda: cli_request(self.ARGV), self._check)

    def _check(self, out):
        return _exit_ok(out) or (None if out[1] == self.EXPECTED
                                 else f"unexpected certificate {out[1]!r}")


class PentagonContainment:
    """Criterion 6 on a seeded rational pentagon: points (t, t^2).  The four
    stages make one request.

    The slack pattern of any convex pentagon is the same, so the slack ideal
    strings are the same for every seed."""

    def __init__(self, seed):
        rng = random.Random(seed)
        ts = set()
        while len(ts) < 5:
            ts.add(Fraction(rng.randint(-60, 60), rng.randint(1, 4)))
        # sorted t walks the parabola, so the vertex order is the convex order
        self.points = [(t, t * t) for t in sorted(ts)]
        self.expected = (EXPECTED_DIR / "pentagon_slack_ideal.txt").read_text().splitlines()
        self.I = self.H = None

    def tasks(self):
        yield Task("slack_ideal", lambda: sk.slack_ideal(2, self.points),
                   self._check_ideal, "criterion-6")
        yield Task("rehomogenize_ideal", self._rehomogenize, self._keep_h,
                   "criterion-6")
        yield Task("containment", self._containment,
                   lambda ok: None if all(ok) else "a minor is not contained",
                   "criterion-6")
        yield Task("radical_membership", self._radical,
                   lambda ok: None if all(ok) else "a generator is not in the radical",
                   "criterion-6")

    def _rehomogenize(self):
        sym = sk.symbolic_slack_matrix(sk.slack_matrix(self.points))
        Y, _ = sk.set_ones_forest(sym)
        return sk.rehomogenize_ideal(2, Y)

    def _containment(self):
        basis = self.H.groebner_basis()
        return [sk.normal_form(g, basis, self.H.order).is_zero()
                for g in self.I.generators]

    def _radical(self):
        return [sk.radical_membership(h, self.I) for h in self.H.generators]

    def _check_ideal(self, I):
        self.I = I
        return None if I.to_strings() == self.expected else "slack ideal differs"

    def _keep_h(self, H):
        self.H = H
        return None if H.generators else "empty rehomogenized ideal"


def forest_quotient(p, forest_vars):
    """p divided by the largest monomial in the forest variables dividing it."""
    common = [min(m[i] for m in p.terms) if i in forest_vars else 0
              for i in range(p.nvars)]
    return sk.Polynomial(p.nvars, {tuple(e - c for e, c in zip(m, common)): v
                                   for m, v in p.terms.items()})


class MinorQueries:
    """Seeded random Perles 10-minors: dehomogenize, reduce against the known
    dehomogenized basis, rehomogenize (criterion 5's round trip)."""

    QUERIES = 300

    def __init__(self, seed):
        perles = sk.specific_slack_matrix("perles-reduced")
        self.Y = sk.set_ones(perles, PERLES_ONES)
        self.F = sk.forest_from_ones(self.Y)
        self.ones = frozenset(PERLES_ONES)
        self.basis = [parse_poly(s, perles.nvars) for s in PERLES_DEHOMOGENIZED]
        self.order = sk.GRevLex()
        grid = [[perles.var_at.get((i, j)) for j in range(perles.ncols)]
                for i in range(perles.nrows)]
        rng = random.Random(seed)
        self.minors = []
        while len(self.minors) < self.QUERIES:
            rows = sorted(rng.sample(range(perles.nrows), 10))
            cols = sorted(rng.sample(range(perles.ncols), 10))
            p = sk.slack.pattern_minor(grid, rows, cols, perles.nvars)
            if not p.is_zero():
                self.minors.append(p)

    def tasks(self):
        for k, p in enumerate(self.minors):
            yield Task(f"query:{k}", lambda p=p: self._query(p),
                       lambda out, p=p: self._check(p, out))

    def _query(self, p):
        d = p.substitute_ones(self.ones)
        return (sk.normal_form(d, self.basis, self.order),
                sk.rehomogenize_poly(d, self.Y, self.F))

    def _check(self, p, out):
        remainder, round_trip = out
        if not remainder.is_zero():
            return "minor not in the dehomogenized ideal"
        if round_trip != forest_quotient(p, self.ones):
            return "rehomogenization does not invert the scaling"
        return None


def paraboloid_points(rng, n):
    """n points on z = x^2 + y^2 with distinct, not all collinear (x, y):
    always in convex position and full-dimensional."""
    while True:
        xy = set()
        while len(xy) < n:
            xy.add((Fraction(rng.randint(-9, 9), rng.randint(1, 3)),
                    Fraction(rng.randint(-9, 9), rng.randint(1, 3))))
        xy = sorted(xy)
        (x0, y0), (x1, y1) = xy[0], xy[1]
        if any((x1 - x0) * (y - y0) != (y1 - y0) * (x - x0) for x, y in xy[2:]):
            return [[str(x), str(y), str(x * x + y * y)] for x, y in xy]


def same_up_to_scaling(S, T):
    """Same support and equal cross ratios on every fully supported 2x2
    block (criterion 7's property)."""
    if [[x != 0 for x in row] for row in S] != [[x != 0 for x in row] for row in T]:
        return False
    for i1, i2 in itertools.combinations(range(len(S)), 2):
        for j1, j2 in itertools.combinations(range(len(S[0])), 2):
            if 0 in (S[i1][j1], S[i1][j2], S[i2][j1], S[i2][j2]):
                continue
            if (T[i1][j1] * T[i2][j2] * S[i1][j2] * S[i2][j1]
                    != T[i1][j2] * T[i2][j1] * S[i1][j1] * S[i2][j2]):
                return False
    return True


class VertexGeometry:
    """Small CLI requests on seeded 7-9 point sets on the paraboloid."""

    SIZES = (7, 8, 9, 7, 8, 9)  # fixed size mix: every seed does equal work

    def __init__(self, seed):
        rng = random.Random(seed)
        self.vertex_sets = [json.dumps(paraboloid_points(rng, n)) for n in self.SIZES]

    def tasks(self):
        for k, vertices in enumerate(self.vertex_sets):
            n = len(json.loads(vertices))
            seen = {}

            def keep(key, out):
                seen[key] = out[1]
                return _exit_ok(out)

            def rebuilt(out):
                return _exit_ok(out) or (
                    None if same_up_to_scaling(parse_matrix(seen["slack"]),
                                               parse_matrix(out[1]))
                    else "Gale slack matrix differs from the slack matrix")

            yield Task(f"set{k}:slack-matrix",
                       lambda: cli_request(["slack-matrix", "--vertices", "-"], vertices),
                       lambda out: keep("slack", out))
            yield Task(f"set{k}:slack-matrix-matroid",
                       lambda: cli_request(["slack-matrix", "--vertices", "-",
                                            "--object", "matroid"], vertices),
                       lambda out: _exit_ok(out) or (
                           None if len(parse_matrix(out[1])) == n
                           else "matroid slack matrix has the wrong row count"))
            yield Task(f"set{k}:gale",
                       lambda: cli_request(["gale", "--vertices", "-"], vertices),
                       lambda out: keep("gale", out))
            yield Task(f"set{k}:gale-slack",
                       lambda: cli_request(["gale-slack", "--gale", "-"], seen["gale"]),
                       rebuilt)
            slack = parse_matrix(seen.get("slack", ""))
            cofacets = ";".join(
                ",".join(str(i) for i in range(len(slack)) if slack[i][j] != 0)
                for j in range(len(slack[0]) if slack else 0))
            yield Task(f"set{k}:gale-slack-cofacets",
                       lambda: cli_request(["gale-slack", "--gale", "-",
                                            "--cofacets", cofacets], seen["gale"]),
                       rebuilt)


WORKLOADS = {
    "perles-certificate": PerlesCertificate,
    "pentagon-containment": PentagonContainment,
    "minor-queries": MinorQueries,
    "vertex-geometry": VertexGeometry,
}
