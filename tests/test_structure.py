"""Source structure: every import sits at module level, no module imports
``dataclasses`` or ``inspect``, ``slack`` does not import ``scaling``,
which builds on it, ``engine`` imports only ``heapq`` and ``math``, only
``Polynomial._of`` skips the checking constructor and only ``poly`` calls
it, neither ``cli`` nor ``scaling`` builds a ``SlackMatrix`` or checks a
support (``slack`` reads numeric slack matrices), ``groebner`` runs the
engine's Buchberger loop in three places only, no ``Reducer`` carries a
``scale`` attribute, no module of the package or the tests imports a name
it never uses, and the CLI adds its options at one site from one table
whose every entry a verb uses."""

import ast
from pathlib import Path

import pytest

import slackkit
from slackkit import cli

PACKAGE = Path(slackkit.__file__).parent
TESTS = Path(__file__).parent


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda path: path.name)
def test_no_import_inside_a_function(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    nested = [f"{path.name}:{node.lineno}"
              for fn in ast.walk(tree)
              if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda))
              for node in ast.walk(fn)
              if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not nested


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda path: path.name)
def test_no_import_of_dataclasses_or_inspect(path):
    # importing dataclasses imports inspect, about 14 ms of every process's
    # start-up; the records of slackkit.record cover what they gave
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module or ""]
        else:
            continue
        found += [f"{path.name}:{node.lineno} {name}" for name in names
                  if name.split(".")[0] in ("dataclasses", "inspect")]
    assert not found


def test_slack_does_not_import_scaling():
    # any spelling: from .scaling import f, from . import scaling,
    # import slackkit.scaling
    for node in ast.walk(ast.parse((PACKAGE / "slack.py").read_text())):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [getattr(node, "module", None) or ""]
            names += [alias.name for alias in node.names]
            assert not any("scaling" in name.split(".") for name in names), \
                f"slack.py:{node.lineno} imports scaling"


def test_engine_imports_only_heapq_and_math():
    # the engine works on ints; poly holds the conversions to Fractions
    names = set()
    for node in ast.walk(ast.parse((PACKAGE / "engine.py").read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):  # "from . import x" is "."
            names.add("." * node.level + (node.module or ""))
    assert names == {"__future__", "heapq", "math"}


def functions_naming(tree, attr):
    """The names of the functions of ``tree`` that read the attribute or
    name ``attr``, ``None`` for a read at module or class level."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if (isinstance(node, ast.Attribute) and node.attr == attr
                or isinstance(node, ast.Name) and node.id == attr):
            found.append(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, None)
    return found


def test_only_polynomial_of_skips_the_checking_constructor():
    # Polynomial.__new__ is called in _of alone, and _of is called in poly
    # alone: every other module builds polynomials through the checks
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        if path.name == "poly.py":
            assert set(functions_naming(tree, "__new__")) == {"_of"}
            assert functions_naming(tree, "_of")
        else:
            assert not functions_naming(tree, "_of"), path.name
            assert not [node.lineno for node in ast.walk(tree)
                        if isinstance(node, ast.Attribute)
                        and node.attr == "__new__"
                        and isinstance(node.value, ast.Name)
                        and node.value.id == "Polynomial"], path.name


def test_the_constructor_guard_sees_a_new_outside_of():
    tree = ast.parse("def _of(cls):\n    return cls.__new__(cls)\n"
                     "def f():\n    return Polynomial._of(1, {})\n"
                     "x = Polynomial.__new__(Polynomial)\n")
    assert functions_naming(tree, "__new__") == ["_of", None]
    assert functions_naming(tree, "_of") == ["f"]


def calls_to(tree, names):
    """``(line, name)`` for each call in ``tree`` of a function or method
    named in ``names``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            fn = node.func
            name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
            if name in names:
                found.append((node.lineno, name))
    return sorted(found)


@pytest.mark.parametrize("name", ["cli.py", "scaling.py"])
def test_only_slack_reads_a_numeric_slack_matrix(name):
    # slack.numeric_slack_matrix decides what is numeric and checks its
    # support; its callers neither build a SlackMatrix nor check a support
    tree = ast.parse((PACKAGE / name).read_text())
    assert not calls_to(tree, {"SlackMatrix", "check_support"})


def test_the_numeric_reader_guard_sees_a_new_call():
    tree = ast.parse("S = SlackMatrix(M)\nerrors.check_support(M.rows)\n"
                     "ok = isinstance(S, SlackMatrix)\n")
    assert calls_to(tree, {"SlackMatrix", "check_support"}) == \
        [(1, "SlackMatrix"), (2, "check_support")]


def test_groebner_runs_the_engine_in_three_places_only():
    # every order but grevlex is reached by converting the reduced grevlex
    # basis; only the conversion, the grevlex run and the Rabinowitsch run
    # of the saturation call the engine's Buchberger loop
    tree = ast.parse((PACKAGE / "groebner.py").read_text())
    allowed = {"convert_basis", "_reduced_basis", "saturate"}
    calls = set()

    def visit(node, scope):
        if scope is None and isinstance(node, (ast.FunctionDef,
                                               ast.AsyncFunctionDef)):
            scope = node.name  # a module-level function or a method
        if isinstance(node, ast.Call):
            fn = node.func
            name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
            if name == "groebner":
                calls.add((scope, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, None)
    scopes = {scope for scope, _ in calls}
    assert scopes and scopes <= allowed, sorted(calls)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda path: path.name)
def test_no_reducer_scale_attribute(path):
    # Reducer.reduce returns its scale with the remainder; no hidden state
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [f"{path.name}:{node.lineno}"
             for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "scale"
             and isinstance(node.ctx, ast.Store)]
    assert not found


def unused_imports(source):
    """``(line, name)`` for each name a module-level import binds that the
    module never reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(node.lineno, alias.asname or alias.name.split(".")[0])
                      for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, alias.asname or alias.name)
                      for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in bound if name not in used]


# __init__.py and conftest.py exist to re-export what they import
@pytest.mark.parametrize(
    "path", [path for path in sorted(PACKAGE.glob("*.py"))
             + sorted(TESTS.glob("*.py"))
             if path.name not in ("__init__.py", "conftest.py")],
    ids=lambda path: f"{path.parent.name}/{path.name}")
def test_no_unused_import(path):
    found = unused_imports(path.read_text())
    assert not found


def test_the_unused_import_guard_sees_an_unused_import():
    source = "import os\nfrom a.b import c as d, e\nimport x.y\nprint(e, x)\n"
    assert unused_imports(source) == [(1, "os"), (2, "d")]


def test_the_cli_adds_its_options_at_one_site():
    # every option is an entry of cli._OPTIONS, added by the loop that
    # builds a verb's parser
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    sites = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "add_argument"]
    assert len(sites) == 1, sites


def unused_options(options, verbs):
    """The names of ``options`` that no row of ``verbs`` lists."""
    listed = {name for *_, names in verbs for name in names.split()}
    return sorted(set(options) - listed)


def test_every_cli_option_is_listed_by_a_verb():
    assert not unused_options(cli._OPTIONS, cli._VERBS)


def test_the_unused_option_guard_sees_an_unused_option():
    verbs = [("a", None, None, "x y"), ("b", "help", None, "y")]
    assert unused_options({"x": 0, "y": 0, "z": 0}, verbs) == ["z"]
