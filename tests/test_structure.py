"""Source structure: every import sits at module level, and ``slack`` does
not import ``scaling``, which builds on it."""

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


def test_slack_does_not_import_scaling():
    # any spelling: from .scaling import f, from . import scaling,
    # import slackkit.scaling
    for node in ast.walk(ast.parse((PACKAGE / "slack.py").read_text())):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [getattr(node, "module", None) or ""]
            names += [alias.name for alias in node.names]
            assert not any("scaling" in name.split(".") for name in names), \
                f"slack.py:{node.lineno} imports scaling"
