"""The package declares numpy as its only dependency; scipy and hypothesis
may be installed next to it, so an import of either from ``src`` would
otherwise pass every other test."""

import ast
import pathlib
import sys

import pytest

SOURCES = sorted((pathlib.Path(__file__).parents[1] / "src" / "blockpart").glob("*.py"))


def absolute_imports(path):
    """Top-level module names of every absolute import in ``path``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "formats.py", "kernels.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_only_numpy_and_the_standard_library(path):
    allowed = sys.stdlib_module_names | {"numpy"}
    assert sorted(set(absolute_imports(path)) - allowed) == []
