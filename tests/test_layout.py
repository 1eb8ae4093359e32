"""Source-layout rules for the library package."""

import ast
from pathlib import Path

import pytest

import detsing

SOURCES = sorted(Path(detsing.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_library_has_no_assert_statements(path):
    # asserts vanish under `python -O`; checks that matter raise, cross-checks
    # live in the tests
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} has assert statements on lines {lines}"
