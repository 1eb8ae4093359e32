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


# modules whose arithmetic is exact: every quotient goes through
# `_linalg.div`, since `/` on two ints gives a float
EXACT_MODULES = ("_linalg.py", "polyalg.py", "grobner.py", "detvar.py")


def _true_divisions(node, module):
    if (module == "_linalg.py" and isinstance(node, ast.FunctionDef)
            and node.name == "div"):
        return
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
        yield node.lineno
    for child in ast.iter_child_nodes(node):
        yield from _true_divisions(child, module)


@pytest.mark.parametrize("name", EXACT_MODULES)
def test_exact_modules_divide_only_through_div(name):
    path = Path(detsing.__file__).parent / name
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = list(_true_divisions(tree, name))
    assert lines == [], f"{name} divides with '/' outside div on lines {lines}"


def test_grobner_has_one_reduction_route():
    # Buchberger, normal_form and autoreduction divide on packed monomials;
    # importing the tuple product or divisibility helpers would open a
    # second reduction route on exponent tuples
    path = Path(detsing.__file__).parent / "grobner.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.asname or alias.name for alias in node.names)
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    assert not names & {"_mono_mul", "_mono_divides"}
