"""The library raises typed errors for its invariant checks, never
``assert``: ``python -O`` strips assert statements, and the check with them.
Nor does it randomize: no function takes an ``rng`` and no module imports
``random``, so the randomization that tests use stays in the tests."""

import ast
import pathlib

import pytest

SOURCES = sorted((pathlib.Path(__file__).parent.parent / "src" / "cising")
                 .glob("*.py"))


def test_sources_are_found():
    assert "ciext.py" in {path.name for path in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_assert_statement(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} has assert statements on lines {lines}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_rng_parameter_or_random_import(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arguments):
            found += [(arg.lineno, arg.arg) for arg in
                      node.posonlyargs + node.args + node.kwonlyargs
                      + [node.vararg, node.kwarg] if arg and arg.arg == "rng"]
        elif isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names
                      if alias.name.split(".")[0] == "random"]
        elif isinstance(node, ast.ImportFrom) and node.module == "random":
            found.append((node.lineno, "random"))
    assert found == [], f"{path.name}: rng parameter or random import {found}"
