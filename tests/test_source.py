"""Checks on the library's source text."""

import ast
from pathlib import Path

import prymdice


def test_library_has_no_assert_statements():
    # ``python -O`` strips assert statements, so a runtime check written as
    # one would vanish there; library checks raise exceptions instead
    sources = sorted(Path(prymdice.__file__).parent.glob("*.py"))
    assert len(sources) >= 10
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
