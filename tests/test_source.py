"""Source-level guards over the `nhmetro` package."""

import ast
from pathlib import Path

import nhmetro

MODULES = sorted(Path(nhmetro.__file__).parent.glob("*.py"))


def test_no_assert_statements():
    # `python -O` strips assert statements, so a check written as one
    # silently vanishes; checks raise typed errors instead.
    found = [f"{path.name}:{node.lineno}"
             for path in MODULES
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert len(MODULES) > 1
    assert found == []
