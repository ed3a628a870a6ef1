"""Source structure: every import sits at module level, no module imports
``dataclasses`` or ``inspect``, and ``slack`` does not import ``scaling``,
which builds on it."""

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
