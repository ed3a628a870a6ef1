"""Byte-identity of the ideal verbs against recorded output.

``golden_ideals.json`` holds the stdout, stderr and exit code of ``ideal``,
``dehomogenize``, ``rehomogenize``, ``graphic-ideal``, ``certificate`` and
``scale`` on the square, the prism, a pentagon, the prism as a matroid, the
scaled Perles matrix (the paper's ones) and the scaled sphere #1963.  The
Perles rehomogenization, at 30 s or more, is left out.  Running this file
as a script records the current output again:
``python tests/test_golden_ideals.py``.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from slackkit.cli import main
from conftest import PERLES_ONES

GOLDEN = Path(__file__).with_name("golden_ideals.json")

PENTAGON = "0 0\n2 0\n3 2\n1 4\n-1 2"
PRISM = "0 0 0\n1 0 0\n0 1 0\n0 0 1\n1 0 1\n1 1 0"

# each source as (its flags, -d, --ones), the last two possibly empty
SOURCES = {
    "square": (["--builtin", "square"], [], []),
    "prism": (["--builtin", "prism"], [], []),
    "pentagon": (["--vertices", "{pentagon}"], [], []),
    "prism-matroid": (["--vertices", "{prism}", "--object", "matroid"], [], []),
    "perles": (["--builtin", "perles-reduced"], ["-d", "8"],
               ["--ones", ",".join(map(str, PERLES_ONES))]),
    "sphere1963": (["--builtin", "sphere1963-reduced"], ["-d", "4"], []),
}
# a surviving variable of each source for ``certificate``
VARIABLES = {"square": "4", "prism": "8", "pentagon": "13",
             "prism-matroid": "29", "perles": "35", "sphere1963": "48"}
# both are the Perles rehomogenization, 30 s or more
LEFT_OUT = {("ideal", "perles"), ("rehomogenize", "perles")}


def requests(name):
    """The argv lists of the verbs on one source, each with the flags it
    takes."""
    source, d, ones = SOURCES[name]
    verbs = {"ideal": source + d,
             "dehomogenize": source + d + ones,
             "rehomogenize": source + d + ones,
             "graphic-ideal": source,
             "certificate": source + d + ones + ["--variable", VARIABLES[name]],
             "scale": source + ones}
    return [[verb, *args] for verb, args in verbs.items()
            if (verb, name) not in LEFT_OUT]


def run(argv, files):
    """Run the CLI in-process; ``files`` maps an argument placeholder such as
    ``{prism}`` to a path."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([a.format(**files) for a in argv])
    return {"code": code, "out": out.getvalue(), "err": err.getvalue()}


def record(name, tmp):
    files = {"pentagon": str(tmp / "pentagon.txt"), "prism": str(tmp / "prism.txt")}
    Path(files["pentagon"]).write_text(PENTAGON)
    Path(files["prism"]).write_text(PRISM)
    return [{"argv": argv, **run(argv, files)} for argv in requests(name)]


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_ideal_verbs_match_recorded_output(name, tmp_path):
    assert record(name, tmp_path) == json.loads(GOLDEN.read_text())[name]


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        recorded = {name: record(name, Path(tmp)) for name in SOURCES}
    GOLDEN.write_text(json.dumps(recorded, indent=1) + "\n")
