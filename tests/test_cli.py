"""Command-line interface: verbs, formats, exit codes."""

import argparse
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import slackkit
from slackkit.cli import build_parser, main, parse_matrix_input

import pytest


SQUARE_JSON = '[["0","0"],["1","0"],["1","1"],["0","1"]]'
PRISM_TEXT = "0 0 0\n1 0 0\n0 1 0\n0 0 1\n1 0 1\n1 1 0"
# the support of the prism's slack matrix
PRISM_PATTERN = "0 0 0 1 1\n0 0 1 0 1\n0 1 0 1 0\n1 0 0 1 0\n1 0 1 0 0\n0 1 1 0 0"


@pytest.fixture
def square_file(tmp_path):
    path = tmp_path / "square.json"
    path.write_text(SQUARE_JSON)
    return str(path)


@pytest.fixture
def prism_file(tmp_path):
    path = tmp_path / "prism.txt"
    path.write_text(PRISM_TEXT)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_matrix_text():
    M = parse_matrix_input("0 1\n1 0")
    assert (M.nrows, M.ncols) == (2, 2)


def test_parse_matrix_json_fractions():
    M = parse_matrix_input('[["1/2","0"],["0","1/3"]]')
    assert str(M[0, 0]) == "1/2"


def test_ideal_square_golden(capsys, square_file):
    code, out, _ = run(capsys, "ideal", "-d", "2", "--vertices", square_file)
    assert code == 0
    assert out == "x0*x3*x5*x6 - x1*x2*x4*x7\n"


def test_count_minors_verb(capsys):
    code, out, _ = run(capsys, "count-minors", "-d", "8",
                       "--rows", "12", "--cols", "34")
    assert code == 0
    assert out.strip() == "8654457240"


def test_builtin_perles_pattern(capsys):
    code, out, _ = run(capsys, "builtin", "perles-reduced")
    assert code == 0
    rows = [line.split() for line in out.strip().splitlines()]
    assert len(rows) == 12
    assert all(len(r) == 13 for r in rows)
    assert sum(r.count("1") for r in rows) == 36


PERLES_SUPPORT = [
    "0 0 0 1 1 1 0 0 0 0 0 0 0",
    "0 0 0 1 0 0 1 1 1 0 0 0 0",
    "0 0 0 0 0 0 1 0 0 1 1 0 0",
    "0 0 0 0 1 0 0 0 0 0 0 1 1",
    "0 0 0 0 0 0 0 1 0 1 0 1 0",
    "1 0 0 0 0 0 0 0 0 0 1 0 1",
    "0 1 0 0 0 0 0 0 1 0 0 0 0",
    "0 0 1 0 0 1 0 0 0 0 0 0 0",
    "1 0 0 1 0 0 0 1 0 0 0 0 0",
    "0 1 0 0 1 0 0 0 0 1 0 0 0",
    "0 0 1 0 0 0 1 0 0 0 0 0 1",
    "0 0 0 0 0 1 0 0 1 0 1 1 0",
]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_builtin_perles_support_output(capsys, fmt):
    code, out, err = run(capsys, "builtin", "perles-reduced", "--format", fmt)
    assert code == 0 and not err
    rows = [line.split() for line in PERLES_SUPPORT]
    if fmt == "json":
        assert out == json.dumps(rows) + "\n"
    else:
        assert out == "\n".join(PERLES_SUPPORT) + "\n"


def test_slack_matrix_roundtrip(capsys, prism_file):
    code, out, _ = run(capsys, "slack-matrix", "--vertices", prism_file)
    assert code == 0
    M = parse_matrix_input(out)
    assert (M.nrows, M.ncols) == (6, 5)
    assert M.rank() == 4
    code2, out2, _ = run(capsys, "slack-matrix", "--vertices", prism_file,
                         "--format", "json")
    assert parse_matrix_input(out2).to_lists() == M.to_lists()


def test_byte_identical_reruns(capsys, square_file):
    outputs = {run(capsys, "ideal", "-d", "2", "--vertices", square_file)[1]
               for _ in range(3)}
    assert len(outputs) == 1


def run_any(capsys, *argv):
    """Like run, also when argparse itself exits."""
    try:
        code = main(list(argv))
    except SystemExit as e:
        code = e.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parser_is_reused_across_calls(capsys, monkeypatch, prism_file):
    # one top-level parser serves every call in a process, and each verb's
    # parser is built once, on the verb's first request; each request must
    # print what it prints with parsers of its own
    requests = [("slack-matrix", "--bogus"),
                ("slack-matrix", "--vertices", prism_file, "--format", "json"),
                ("bogus",),
                ("builtin", "square"),
                ("slack-matrix", "--vertices", prism_file),
                ("builtin", "square", "--format", "json")]
    alone = []
    for argv in requests:
        build_parser.cache_clear()
        alone.append(run_any(capsys, *argv))
    built = []
    init = argparse.ArgumentParser.__init__

    def recorded(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", recorded)
    build_parser.cache_clear()
    together = [run_any(capsys, *argv) for argv in requests]
    assert build_parser.cache_info().misses == 1
    assert built == ["slackkit", "slackkit slack-matrix", "slackkit builtin"]
    assert together == alone
    assert [code for code, _, _ in together] == [2, 0, 2, 0, 0, 0]


# stdout, stderr and exit code of help and usage-error requests, as printed
# when every verb's parser was built up front, 80 columns wide
USAGE = json.loads((Path(__file__).parent / "golden_cli_usage.json").read_text())


def test_usage_output_in_a_fresh_process():
    src = os.path.dirname(os.path.dirname(slackkit.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, COLUMNS="80")
    for case in USAGE:
        proc = subprocess.run([sys.executable, "-m", "slackkit", *case["argv"]],
                              capture_output=True, text=True, env=env)
        assert (proc.returncode, proc.stdout, proc.stderr) == \
            (case["code"], case["stdout"], case["stderr"]), case["argv"]


def test_usage_output_after_other_verbs(capsys, monkeypatch, prism_file):
    # verbs already parsed must not change what help and errors list
    monkeypatch.setenv("COLUMNS", "80")
    build_parser.cache_clear()
    for argv in (("certificate", "-d", "2", "--builtin", "square",
                  "--variable", "1"),
                 ("slack-matrix", "--vertices", prism_file),
                 ("builtin", "square")):
        run_any(capsys, *argv)
    for case in USAGE:
        assert run_any(capsys, *case["argv"]) == \
            (case["code"], case["stdout"], case["stderr"]), case["argv"]


def test_python_dash_m_runs_the_cli(capsys):
    src = os.path.dirname(os.path.dirname(slackkit.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "slackkit", "builtin", "square"],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))
    assert (proc.returncode, proc.stdout, proc.stderr) == \
        run(capsys, "builtin", "square")


class ClosedPipe(io.TextIOBase):
    """A stdout whose reader has gone: every write raises BrokenPipeError."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self.fd


def test_closed_stdout_exits_1_without_a_message(capsys, monkeypatch, tmp_path):
    target = tmp_path / "stdout"
    with open(target, "wb") as fh:
        monkeypatch.setattr(sys, "stdout", ClosedPipe(fh.fileno()))
        assert main(["builtin", "perles-reduced"]) == 1
        # the descriptor now points at devnull, so the flush at exit is harmless
        os.write(fh.fileno(), b"lost")
        monkeypatch.undo()
    assert target.read_bytes() == b""
    assert capsys.readouterr().err == ""


def test_closed_stdout_pipe_in_a_subprocess(capsys):
    src = os.path.dirname(os.path.dirname(slackkit.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.Popen([sys.executable, "-m", "slackkit", "builtin", "square"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=dict(os.environ, PYTHONPATH=path))
    proc.stdout.close()  # the reader leaves before the first line is written
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), err) == (1, b"")


def test_gale_verb(capsys, square_file):
    code, out, _ = run(capsys, "gale", "--vertices", square_file)
    assert code == 0
    row = out.split()
    assert len(row) == 4


def test_gale_slack_verb(capsys, tmp_path):
    path = tmp_path / "gale.txt"
    path.write_text("1 -1 1 -1")
    code, out, _ = run(capsys, "gale-slack", "--gale", str(path))
    assert code == 0
    M = parse_matrix_input(out)
    assert (M.nrows, M.ncols) == (4, 4)


def test_gale_slack_from_stdin_without_a_positive_circuit(capsys,
                                                           monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("1 1"))
    assert run(capsys, "gale-slack", "--gale", "-") == (
        1, "", "error: no positive circuit: not a polytope Gale transform\n")


def test_scale_and_dehomogenize(capsys):
    code, out, _ = run(capsys, "scale", "--builtin", "prism")
    assert code == 0
    tokens = out.split()
    assert sum(1 for t in tokens if t.startswith("x")) == 2
    code, out, _ = run(capsys, "dehomogenize", "-d", "3", "--builtin", "prism",
                       "--ones", "0,1,2,3,4,5,6,8,9,10")
    assert code == 0
    assert set(out.strip().splitlines()) == {"x7 - 1", "x11 - 1"}


def test_rehomogenize_verb(capsys):
    code, out, _ = run(capsys, "rehomogenize", "-d", "3", "--builtin", "prism",
                       "--ones", "0,1,2,3,4,5,6,8,9,10")
    assert code == 0
    assert set(out.strip().splitlines()) == {
        "x4*x7*x9*x10 - x5*x6*x8*x11",
        "x0*x3*x9*x10 - x1*x2*x8*x11",
        "x0*x3*x5*x6 - x1*x2*x4*x7"}


def test_contains_flag_verb(capsys, prism_file):
    code, out, _ = run(capsys, "contains-flag", "--vertices", prism_file,
                       "--indices", "0,1,2")
    assert code == 0 and out.strip() == "true"
    code, out, _ = run(capsys, "contains-flag", "--vertices", prism_file,
                       "--indices", "2,3")
    assert code == 0 and out.strip() == "false"


def test_graphic_ideal_verb(capsys, square_file):
    code, out, _ = run(capsys, "graphic-ideal", "--vertices", square_file)
    assert code == 0
    assert out.strip() == "x0*x3*x5*x6 - x1*x2*x4*x7"


def test_reduce_verb(capsys, prism_file):
    code, out, _ = run(capsys, "reduce", "-d", "3", "--vertices", prism_file)
    assert code == 0
    rows = [line.split() for line in out.strip().splitlines()]
    assert len(rows) == 6


def test_certificate_verb(capsys):
    ones = "0,3,4,5,6,7,8,9,12,14,15,16,17,20,21,25,26,27,28,29,30,31,32,34"
    code, out, _ = run(capsys, "certificate", "-d", "8",
                       "--builtin", "perles-reduced",
                       "--ones", ones, "--variable", "35")
    assert code == 0
    report = json.loads(out)
    assert report["kind"] == "irrational"
    assert report["minimal_polynomial"] == "x35^2 + x35 - 1"
    assert report["rational_roots"] == []


def test_domain_error_exit_code(capsys):
    code, _, err = run(capsys, "builtin", "square", "--format", "text")
    assert code == 0
    code, _, err = run(capsys, "ideal", "-d", "2", "--builtin", "square",
                       "--pattern", "/nonexistent")
    assert code == 2  # flag conflict: usage error
    code, _, err = run(capsys, "contains-flag", "--builtin", "perles-reduced",
                       "--indices", "0,1")
    assert code == 1  # pattern-only input is a domain error
    assert err.strip()


def test_parse_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 2\n3")
    code, _, err = run(capsys, "slack-matrix", "--vertices", str(bad))
    assert code == 2
    assert err.strip()


def test_missing_file_exit_code(capsys):
    code, _, err = run(capsys, "slack-matrix", "--vertices", "/no/such/file")
    assert code == 2


PENTAGON_TEXT = "-3 9\n-1 1\n0 0\n2 4\n5 25"


def test_d_inferred_as_rank_minus_one(capsys, square_file, tmp_path):
    # a d-polytope's slack matrix has rank d + 1; a rank-r matroid takes r - 1
    assert run(capsys, "ideal", "--vertices", square_file) == \
        run(capsys, "ideal", "-d", "2", "--vertices", square_file)
    pentagon = tmp_path / "pentagon.txt"
    pentagon.write_text(PENTAGON_TEXT)
    matroid = ("ideal", "--vertices", str(pentagon), "--object", "matroid")
    code, out, _ = run(capsys, *matroid)
    assert code == 0 and out != "1\n"
    assert run(capsys, *matroid, "-d", "2") == (code, out, "")


def test_non_integer_ones_is_usage_error(capsys):
    code, _, err = run(capsys, "scale", "--builtin", "prism", "--ones", "a,b")
    assert code == 2
    assert err.strip()


def test_unknown_ones_variable_is_domain_error(capsys):
    code, _, err = run(capsys, "scale", "--builtin", "prism", "--ones", "999")
    assert code == 1
    assert err == "error: variable index 999 outside 0..11\n"


def test_unknown_certificate_variable_is_domain_error(capsys):
    code, out, err = run(capsys, "certificate", "-d", "2", "--builtin", "square",
                         "--variable", "999")
    assert code == 1
    assert not out and err == "error: variable index 999 outside 0..7\n"


@pytest.mark.parametrize("flags", [("--variable", "-1"),
                                   ("--ones", "-1", "--variable", "35")])
def test_negative_variable_index_is_domain_error(capsys, flags):
    # the index is printed as given, not pasted into a variable name
    code, out, err = run(capsys, "certificate", "-d", "8", "--builtin",
                         "perles-reduced", *flags)
    assert (code, out, err) == (1, "", "error: variable index -1 outside 0..35\n")


def test_repeated_ones_index_closes_no_cycle(capsys):
    # the ones are a set, so a repeated index is the index once
    code, out, err = run(capsys, "scale", "--builtin", "prism", "--ones", "0,0")
    assert code == 0 and not err
    assert run(capsys, "scale", "--builtin", "prism", "--ones", "0") == \
        (code, out, err)
    code, out, err = run(capsys, "scale", "--builtin", "prism",
                         "--ones", ",".join(map(str, range(12))))
    assert code == 1
    assert not out and "closes a cycle" in err


@pytest.mark.parametrize("builtin,variable", [("square", "0"), ("prism", "7")])
def test_certificate_of_a_variable_scaled_to_one_is_domain_error(
        capsys, builtin, variable):
    code, out, err = run(capsys, "certificate", "--builtin", builtin,
                         "--variable", variable)
    assert code == 1
    assert not out and f"x{variable} is scaled to one" in err


def test_certificate_of_the_unit_ideal(capsys):
    # sphere #1963 has no realization at all: eliminating down to x38
    # leaves <1>, whose minimal polynomial 1 has no rational root
    code, out, err = run(capsys, "certificate", "-d", "4",
                         "--builtin", "sphere1963-reduced", "--variable", "38")
    assert code == 0 and not err
    assert json.loads(out) == {"kind": "irrational", "variable": 38,
                               "minimal_polynomial": "1", "rational_roots": []}


def test_graphic_ideal_of_scaled_builtin_is_domain_error(capsys):
    code, _, err = run(capsys, "graphic-ideal", "--builtin", "sphere1963-reduced")
    assert code == 1
    assert err.strip()


@pytest.mark.parametrize("d", ["-1", "-2", "-5"])
def test_negative_d_is_usage_error(capsys, d):
    code, out, err = run(capsys, "ideal", "--builtin", "square", "-d", d)
    assert code == 2
    assert not out and "-d" in err


def test_count_minors_negative_rows_is_usage_error(capsys):
    code, out, err = run(capsys, "count-minors", "--rows", "-3", "--cols", "4",
                         "-d", "1")
    assert code == 2
    assert not out and "--rows" in err


def test_object_without_vertices_is_usage_error(capsys):
    # --object picks the columns of a vertex set; no other source reads it
    code, out, err = run(capsys, "slack-matrix", "--builtin", "square",
                         "--object", "matroid")
    assert code == 2
    assert not out and "--object" in err


@pytest.mark.parametrize("sizes", [("--rows", "3", "--cols", "3"),
                                   ("--rows", "3")], ids=["both", "rows-only"])
def test_count_minors_sizes_with_a_source_is_usage_error(capsys, sizes):
    code, out, err = run(capsys, "count-minors", "-d", "1", *sizes,
                         "--builtin", "square")
    assert code == 2
    assert not out and "--rows" in err


def test_count_minors_of_a_source(capsys):
    # d is inferred from the prism's rank: its one 6 x 5 matrix has six
    # 5-minors, as a 6 x 5 grid of nonzeros does
    assert run(capsys, "count-minors", "--builtin", "prism") == (0, "6\n", "")
    assert run(capsys, "count-minors", "-d", "3", "--rows", "6",
               "--cols", "5") == (0, "6\n", "")


def test_d_not_fitting_numeric_input_is_usage_error(capsys):
    code, out, err = run(capsys, "ideal", "-d", "5", "--builtin", "square")
    assert code == 2
    assert not out and "rank 3" in err


def test_reduce_without_a_flag_is_domain_error(capsys, tmp_path):
    # no column of this matrix has a zero, so no column starts a flag
    path = tmp_path / "no-zeros.txt"
    path.write_text("1 2\n3 4")
    assert run(capsys, "reduce", "--matrix", str(path)) == (
        1, "", "error: no flag found among the columns\n")


def test_scaled_verbs_infer_d_from_numeric_input(capsys, square_file, tmp_path):
    # d is read off the numeric source matrix before its pattern is scaled
    matrix = tmp_path / "square-slack.txt"
    matrix.write_text(run(capsys, "slack-matrix", "--vertices", square_file)[1])
    for argv in (("dehomogenize", "--vertices", square_file),
                 ("rehomogenize", "--matrix", str(matrix)),
                 ("certificate", "--vertices", square_file, "--variable", "1")):
        code, out, err = run(capsys, *argv)
        assert code == 0 and out and not err
        assert run(capsys, *argv, "-d", "2") == (code, out, err)


@pytest.mark.parametrize("indices", ["99", "-1"])
def test_contains_flag_column_out_of_range_is_domain_error(capsys, prism_file,
                                                          indices):
    code, out, err = run(capsys, "contains-flag", "--vertices", prism_file,
                         "--indices", f"0,{indices}")
    assert code == 1
    assert not out and f"column {indices}" in err


@pytest.mark.parametrize("source", ["--vertices", "--pattern"])
def test_reduce_flag_column_out_of_range_is_domain_error(capsys, prism_file,
                                                         tmp_path, source):
    path = tmp_path / "prism-pattern.txt"
    path.write_text(PRISM_PATTERN)
    given = prism_file if source == "--vertices" else str(path)
    code, out, err = run(capsys, "reduce", "-d", "3", source, given,
                         "--flag-indices", "0,99")
    assert code == 1
    assert not out and "column 99" in err


def test_gale_slack_cofacet_out_of_range_is_domain_error(capsys, tmp_path):
    path = tmp_path / "gale.txt"
    path.write_text("1 -1 1 -1")
    code, out, err = run(capsys, "gale-slack", "--gale", str(path),
                         "--cofacets", "0,99")
    assert code == 1
    assert not out and "99" in err


def test_gale_slack_repeated_cofacet_is_domain_error(capsys, tmp_path,
                                                    square_file):
    # the square's Gale transform with the cofacet {0, 1} given twice once
    # printed a 4 x 4 matrix with two equal columns and exited 0
    code, gale, _ = run(capsys, "gale", "--vertices", square_file)
    assert code == 0
    path = tmp_path / "gale.txt"
    path.write_text(gale)
    code, out, err = run(capsys, "gale-slack", "--gale", str(path),
                         "--cofacets", "0,1;0,1;2,3;0,3")
    assert (code, out, err) == (1, "", "error: cofacet [0, 1] is given twice\n")
    # a partial list of distinct cofacets is still allowed
    code, out, _ = run(capsys, "gale-slack", "--gale", str(path),
                       "--cofacets", "0,1;2,3")
    assert (code, out) == (0, "0 1\n0 1\n1 0\n1 0\n")


def test_one_point_matroid_has_the_empty_hyperplane(capsys, tmp_path):
    path = tmp_path / "point.txt"
    path.write_text("2 3")
    assert run(capsys, "slack-matrix", "--vertices", str(path),
               "--object", "matroid") == (0, "1\n", "")


@pytest.mark.parametrize("verb", [("slack-matrix",), ("gale",),
                                  ("ideal", "-d", "2")])
def test_repeated_point_is_domain_error(capsys, tmp_path, verb):
    path = tmp_path / "repeated.txt"
    path.write_text("0 0\n1 0\n0 1\n1 0")
    code, out, err = run(capsys, *verb, "--vertices", str(path))
    assert (code, out, err) == (1, "", "error: duplicate points\n")


@pytest.mark.parametrize("verb", [("slack-matrix",), ("gale",),
                                  ("ideal", "-d", "2")])
def test_empty_vertex_file_is_domain_error(capsys, tmp_path, verb):
    path = tmp_path / "empty.txt"
    path.write_text("")
    code, out, err = run(capsys, *verb, "--vertices", str(path))
    assert (code, out, err) == (1, "", "error: empty point configuration\n")


@pytest.mark.parametrize("verb", [("slack-matrix",), ("ideal",),
                                  ("contains-flag", "--indices", "0"),
                                  ("count-minors",)], ids=lambda v: v[0])
@pytest.mark.parametrize("text,message", [
    ("0 0\n0 0", "all-zero row 0"),
    ("1 0\n1 0", "all-zero column 1"),
    ("", "empty pattern"),
], ids=["zero", "zero-column", "empty"])
def test_degenerate_numeric_matrix_is_domain_error(capsys, tmp_path, verb,
                                                   text, message):
    # checked as a pattern is: the zero matrix once gave d = -1 from its
    # rank 0, and count-minors printed 4 minors of it
    path = tmp_path / "matrix.txt"
    path.write_text(text)
    code, out, err = run(capsys, *verb, "--matrix", str(path))
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_gale_slack_empty_cofacet_list_is_domain_error(capsys, tmp_path):
    path = tmp_path / "gale.txt"
    path.write_text("1 -1 1 -1")
    code, out, err = run(capsys, "gale-slack", "--gale", str(path),
                         "--cofacets", "")
    assert code == 1
    assert not out and "[]" in err


def test_subset_bound_is_domain_error(capsys, tmp_path):
    # 40 points on the moment curve in Q^6: C(40, 6) subsets exceed the bound
    path = tmp_path / "moment.txt"
    path.write_text("\n".join(" ".join(str(t ** k) for k in range(1, 7))
                              for t in range(40)))
    for obj in ("polytope", "matroid"):
        code, out, err = run(capsys, "slack-matrix", "--vertices", str(path),
                             "--object", obj)
        assert code == 1
        assert not out and "3838380 subsets" in err


def test_pattern_keeps_its_zeros(capsys, tmp_path):
    path = tmp_path / "pattern.txt"
    path.write_text("1 0\n0 1")
    code, out, _ = run(capsys, "symbolic", "--pattern", str(path))
    assert (code, out) == (0, "x0 0\n0 x1\n")


def test_ideal_of_a_pattern_equals_ideal_of_its_matrix(capsys, square_file,
                                                        tmp_path):
    code, slack, _ = run(capsys, "slack-matrix", "--vertices", square_file)
    assert code == 0
    matrix = tmp_path / "square-slack.txt"
    matrix.write_text(slack)
    pattern = tmp_path / "square-pattern.txt"
    pattern.write_text("\n".join(" ".join("0" if x == "0" else "1" for x in line.split())
                                 for line in slack.splitlines()))
    from_matrix = run(capsys, "ideal", "--matrix", str(matrix))
    from_pattern = run(capsys, "ideal", "-d", "2", "--pattern", str(pattern))
    assert from_pattern == from_matrix == (0, "x0*x3*x5*x6 - x1*x2*x4*x7\n", "")


@pytest.mark.parametrize("gale,bad", [
    ("1 0 0 1 -2\n0 1 1 0 -2", "[4]"),  # the square plus its centre
    ("1 -1 0", "[0, 1]"),  # a repeated point
], ids=["interior-point", "repeated-point"])
def test_gale_slack_of_a_non_vertex_set_is_domain_error(capsys, tmp_path, gale,
                                                         bad):
    path = tmp_path / "gale.txt"
    path.write_text(gale)
    code, out, err = run(capsys, "gale-slack", "--gale", str(path))
    assert (code, out) == (1, "")
    assert err == f"error: points {bad} are not vertices of the hull\n"


def test_gale_slack_cofacets_of_a_non_vertex_set_is_domain_error(capsys,
                                                                 tmp_path):
    # the square plus its centre: the centre lies in all four cofacets, so
    # it is on no facet; this route once printed a row 1 1 1 1 and exited 0
    vertices = tmp_path / "square-centre.txt"
    vertices.write_text("0 0\n1 0\n1 1\n0 1\n1/2 1/2")
    code, gale, _ = run(capsys, "gale", "--vertices", str(vertices))
    assert code == 0
    path = tmp_path / "gale.txt"
    path.write_text(gale)
    assert run(capsys, "gale-slack", "--gale", str(path), "--cofacets",
               "2,3,4;0,3,4;0,1,4;1,2,4") == (
        1, "", "error: points [4] are not vertices of the hull\n")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_gale_slack_of_an_empty_gale_transform_is_domain_error(capsys, tmp_path,
                                                                fmt):
    # a triangle's Gale transform has no rows, so its printed form loses n
    vertices = tmp_path / "triangle.txt"
    vertices.write_text("0 0\n1 0\n0 1")
    code, gale, _ = run(capsys, "gale", "--vertices", str(vertices),
                        "--format", fmt)
    assert (code, gale) == (0, "\n" if fmt == "text" else "[]\n")
    path = tmp_path / "gale.txt"
    path.write_text(gale)
    assert run(capsys, "gale-slack", "--gale", str(path)) == (
        1, "", "error: empty Gale transform (a simplex): it does not record "
               "its number of points\n")


@pytest.mark.parametrize("verb", [("ideal",), ("dehomogenize",),
                                  ("rehomogenize",), ("count-minors",)])
def test_d_beyond_the_rows_of_a_pattern_is_usage_error(capsys, tmp_path, verb):
    # a d-polytope has at least d + 1 vertices and a rank-(d + 1) matroid at
    # least d + 1 elements, so a 2-row pattern cannot have d = 5
    path = tmp_path / "pattern.txt"
    path.write_text("1 1\n1 0")
    assert run(capsys, *verb, "-d", "5", "--pattern", str(path)) == (
        2, "", "error: -d 5 does not fit the input: it has 2 rows, "
               "fewer than d + 1\n")


# the scaled pattern of sphere #1963, as `scale`, `symbolic` and `builtin`
# print it
SPHERE1963 = """\
0 1 0 0 0 0
0 x1 0 0 1 0
0 1 0 x4 0 0
0 1 x6 x7 0 0
0 x8 x9 0 x10 1
0 x12 x13 x14 x15 1
0 1 0 1 1 1
x21 0 x22 0 x23 1
x25 0 x26 x27 0 1
x29 0 x30 x31 x32 1
x34 0 0 1 0 0
1 0 1 0 x38 1
x40 0 x41 x42 x43 1
x45 0 x46 x47 x48 1
"""


# (argv, text of the input file FILE or None, (exit code, stdout, stderr)):
# reachable paths of the verbs that no other test runs
CLI_PATHS = [
    pytest.param(("reduce", "-d", "8", "--builtin", "perles-reduced"), None,
                 (1, "", "error: flag search needs a numeric slack matrix\n"),
                 id="reduce-symbolic-without-flag"),
    pytest.param(("slack-matrix", "--builtin", "perles-reduced"), None,
                 (2, "", "error: this command needs a numeric slack matrix\n"),
                 id="slack-matrix-of-a-pattern"),
    pytest.param(("ideal", "--pattern", "FILE"), "1 1\n1 0",
                 (2, "", "error: -d is required with pattern input\n"),
                 id="ideal-pattern-without-d"),
    pytest.param(("scale", "--builtin", "sphere1963-reduced", "--ones", "1"),
                 None, (2, "", "error: this input already has its ones fixed\n"),
                 id="scale-scaled-with-ones"),
    pytest.param(("count-minors", "--rows", "3", "--cols", "3"), None,
                 (2, "", "error: -d is required\n"), id="count-minors-without-d"),
    pytest.param(("gale", "--vertices", "FILE"), "0 0\n1 0",
                 (1, "", "error: need at least d+1 points\n"),
                 id="gale-two-points-in-the-plane"),
    pytest.param(("gale-slack", "--gale", "FILE"), "1 1",
                 (1, "", "error: no positive circuit: not a polytope Gale "
                         "transform\n"), id="gale-slack-no-positive-circuit"),
    pytest.param(("scale", "--builtin", "sphere1963-reduced"), None,
                 (0, SPHERE1963, ""), id="scale-scaled-builtin"),
    pytest.param(("symbolic", "--builtin", "sphere1963-reduced"), None,
                 (0, SPHERE1963, ""), id="symbolic-scaled-builtin"),
    pytest.param(("builtin", "sphere1963-reduced"), None,
                 (0, SPHERE1963, ""), id="builtin-scaled"),
    pytest.param(("slack-matrix", "--matrix", "FILE"), "[1, 2",
                 (2, "", "error: bad JSON matrix: Expecting ',' delimiter: "
                         "line 1 column 6 (char 5)\n"), id="matrix-bad-json"),
    pytest.param(("slack-matrix", "--matrix", "FILE"), "[1, 2]",
                 (2, "", "error: JSON matrix must be an array of arrays\n"),
                 id="matrix-json-not-nested"),
    pytest.param(("symbolic", "--pattern", "FILE"), "",
                 (1, "", "error: empty pattern\n"), id="symbolic-empty-pattern"),
    pytest.param(("symbolic", "--pattern", "FILE"), "1 0 1\n1 0 1",
                 (1, "", "error: all-zero column 1\n"),
                 id="symbolic-zero-column"),
]


@pytest.mark.parametrize("argv,text,expected", CLI_PATHS)
def test_cli_path(capsys, tmp_path, argv, text, expected):
    path = tmp_path / "input.txt"
    if text is not None:
        path.write_text(text)
    argv = [str(path) if a == "FILE" else a for a in argv]
    assert run(capsys, *argv) == expected
