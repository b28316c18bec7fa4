"""Import hygiene of the package: imports sit at module top, criteria is a leaf."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "vcpde"
MODULES = sorted(PACKAGE.glob("*.py"))


def _imports(tree):
    return [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_relative_import_inside_a_function(path):
    # any import inside a function is flagged, relative or not
    tree = ast.parse(path.read_text(), filename=str(path))
    nested = sorted({
        f"{path.name}:{node.lineno}"
        for function in ast.walk(tree)
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in _imports(function)
    })
    assert not nested, f"function-level imports: {nested}"


def test_criteria_is_a_leaf():
    tree = ast.parse((PACKAGE / "criteria.py").read_text())
    imported = {node.module for node in _imports(tree) if isinstance(node, ast.ImportFrom)}
    assert not imported & {"tbglss", "selection", "baselines", "pipeline"}
