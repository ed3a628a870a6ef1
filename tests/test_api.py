"""The public API against a recorded copy.

``golden_api.json`` holds ``slackkit.__all__`` in order and, for each
exported name, the ``str(inspect.signature(...))`` of a callable defined in
slackkit, the dotted name of a callable defined elsewhere (such as
``Rational``) and null for anything else.  Running this file as a script
records the current API again: ``python tests/test_api.py``.
"""

import inspect
import json
from pathlib import Path

import slackkit

GOLDEN = Path(__file__).with_name("golden_api.json")


def describe(obj):
    if not callable(obj):
        return None
    if not obj.__module__.startswith("slackkit"):
        return f"{obj.__module__}.{obj.__qualname__}"
    return str(inspect.signature(obj))


def api():
    return {"__all__": list(slackkit.__all__),
            "signatures": {name: describe(getattr(slackkit, name))
                           for name in slackkit.__all__}}


def test_public_api_matches_recorded_api():
    golden = json.loads(GOLDEN.read_text())
    now = api()
    assert now["__all__"] == golden["__all__"]
    for name, signature in golden["signatures"].items():
        assert now["signatures"][name] == signature, name


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(api(), indent=1) + "\n")
