"""Byte-identity of the pattern verbs against recorded output.

``golden_patterns.json`` holds the stdout, stderr and exit code of
``symbolic`` and ``scale``, in text and JSON, on the four builtins, a
pentagon as a polytope and as a matroid, and a 0/1 pattern file whose
non-incidence graph has two components; of ``builtin`` on each builtin;
of ``scale --ones`` and ``reduce`` on the pentagon.  Running this file as a
script records the current output again:
``python tests/test_golden_patterns.py``.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from slackkit.builtins import BUILTIN_NAMES
from slackkit.cli import main

GOLDEN = Path(__file__).with_name("golden_patterns.json")

PENTAGON = "0 0\n2 0\n3 1\n1 3\n-1 1"
# two blocks, so the scaled ones form a forest of two trees
PATTERN = "1 1 0 0\n1 1 0 0\n0 0 1 1\n0 0 1 1\n0 0 1 0"

SOURCES = {name: ["--builtin", name] for name in BUILTIN_NAMES}
SOURCES["pentagon"] = ["--vertices", "{pentagon}"]
SOURCES["pentagon-matroid"] = ["--vertices", "{pentagon}", "--object", "matroid"]
SOURCES["pattern"] = ["--pattern", "{pattern}"]


def requests(name):
    """The argv lists of the pattern verbs on one source, each in text and
    in JSON."""
    source = SOURCES[name]
    verbs = [["symbolic", *source], ["scale", *source]]
    if name in BUILTIN_NAMES:
        verbs.append(["builtin", name])
    if name == "pentagon":
        verbs += [["scale", *source, "--ones", "0,1,2,4"], ["reduce", *source]]
    return [argv + fmt for argv in verbs for fmt in ([], ["--format", "json"])]


def run(argv, files):
    """Run the CLI in-process; ``files`` maps an argument placeholder such as
    ``{pentagon}`` to a path."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([a.format(**files) for a in argv])
    return {"code": code, "out": out.getvalue(), "err": err.getvalue()}


def record(name, tmp):
    files = {"pentagon": str(tmp / "pentagon.txt"), "pattern": str(tmp / "pattern.txt")}
    Path(files["pentagon"]).write_text(PENTAGON)
    Path(files["pattern"]).write_text(PATTERN)
    return [{"argv": argv, **run(argv, files)} for argv in requests(name)]


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_pattern_verbs_match_recorded_output(name, tmp_path):
    assert record(name, tmp_path) == json.loads(GOLDEN.read_text())[name]


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        golden = {name: record(name, Path(tmp)) for name in SOURCES}
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
