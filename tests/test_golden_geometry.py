"""Byte-identity of the geometry verbs against recorded output.

``golden_geometry.json`` holds, for five vertex sets, the stdout, stderr
and exit code of ``slack-matrix`` (polytope and matroid), ``gale``,
``gale-slack`` and ``gale-slack --cofacets``, recorded with the Fraction
elimination that the integer one replaced, and of both ``slack-matrix``
requests again with ``--format json``, recorded before the slack matrix was
built straight from the hyperplane search's integers.  The sets are three
paraboloid sets of 7, 9 and 12 points, a pyramid over a quadrilateral with
one more point beyond a side, whose base facet holds four coplanar points,
and six points spanning only a plane in Q^3 (no ``gale-slack``; its polytope
slack matrix is an error).  Running this file as a script records the current
output again: ``python tests/test_golden_geometry.py``.
"""

import contextlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from slackkit.cli import main

GOLDEN = Path(__file__).with_name("golden_geometry.json")


def paraboloid_points(rng, n):
    """n points (x, y, x^2 + y^2) with distinct rational (x, y), not all
    collinear, so all of them are vertices of a 3-polytope."""
    while True:
        xy = set()
        while len(xy) < n:
            xy.add((Fraction(rng.randint(-9, 9), rng.randint(1, 3)),
                    Fraction(rng.randint(-9, 9), rng.randint(1, 3))))
        xy = sorted(xy)
        (x0, y0), (x1, y1) = xy[0], xy[1]
        if any((x1 - x0) * (y - y0) != (y1 - y0) * (x - x0) for x, y in xy[2:]):
            return [[str(x), str(y), str(x * x + y * y)] for x, y in xy]


def golden_inputs():
    sets = {f"paraboloid{n}": paraboloid_points(random.Random(seed), n)
            for seed, n in ((1, 7), (2, 9), (3, 12))}
    sets["pyramid"] = [["0", "0", "0"], ["3", "0", "0"], ["3", "2", "0"],
                       ["0", "2", "0"], ["3/2", "1", "2"], ["1/2", "1/3", "1"]]
    plane = [("0", "0"), ("1", "0"), ("0", "1"), ("1", "1"), ("2", "1/2"),
             ("1/3", "2")]
    sets["plane"] = [[x, y, str(Fraction(x) + Fraction(y))] for x, y in plane]
    return sets


def run(argv, files):
    """Run the CLI in-process; ``files`` maps an argument placeholder such as
    ``{vertices}`` to a path."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([a.format(**files) for a in argv])
    return {"code": code, "out": out.getvalue(), "err": err.getvalue()}


def requests(name, vertices, tmp):
    """Yield (argv, result) for every verb on one vertex set, each Gale verb
    reading the ``gale`` output."""
    files = {"vertices": str(tmp / f"{name}.json"), "gale": str(tmp / f"{name}.gale")}
    Path(files["vertices"]).write_text(json.dumps(vertices))
    argvs = [["slack-matrix", "--vertices", "{vertices}", "--object", "matroid"],
             ["slack-matrix", "--vertices", "{vertices}"],
             ["gale", "--vertices", "{vertices}"]]
    if name != "plane":
        argvs.append(["gale-slack", "--gale", "{gale}"])
    for argv in argvs:
        result = run(argv, files)
        if argv[0] == "gale":
            Path(files["gale"]).write_text(result["out"])
        yield argv, result
    if name != "plane":
        slack = run(["slack-matrix", "--vertices", "{vertices}"], files)["out"]
        rows = [line.split() for line in slack.splitlines()]
        cofacets = ";".join(",".join(str(i) for i, row in enumerate(rows)
                                     if row[j] != "0")
                            for j in range(len(rows[0])))
        argv = ["gale-slack", "--gale", "{gale}", "--cofacets", cofacets]
        yield argv, run(argv, files)
    for argv in argvs[:2]:
        argv = argv + ["--format", "json"]
        yield argv, run(argv, files)


@pytest.mark.parametrize("name", sorted(golden_inputs()))
def test_geometry_verbs_match_recorded_output(name, tmp_path):
    golden = json.loads(GOLDEN.read_text())[name]
    got = [{"argv": argv, **result}
           for argv, result in requests(name, golden_inputs()[name], tmp_path)]
    assert got == golden


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        record = {name: [{"argv": argv, **result}
                         for argv, result in requests(name, vertices, Path(tmp))]
                  for name, vertices in golden_inputs().items()}
    GOLDEN.write_text(json.dumps(record, indent=1) + "\n")
