"""Source structure: every import sits at module level, no module imports
``dataclasses`` or ``inspect``, ``slack`` does not import ``scaling``,
which builds on it, ``groebner`` runs the engine's Buchberger loop in three
places only, and no ``Reducer`` carries a ``scale`` attribute."""

import ast
from pathlib import Path

import pytest

import slackkit

PACKAGE = Path(slackkit.__file__).parent


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
