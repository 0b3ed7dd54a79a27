"""The package declares numpy as its only dependency; scipy and hypothesis
may be installed next to it, so an import of either from ``src`` would
otherwise pass every other test. No module calls ``np.dot`` either, which
would reach BLAS, and only ``VbrMatrix.__init__`` stores a multiply plan."""

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


def dot_calls(path):
    """Line of every call of ``np.dot`` or ``numpy.dot`` in ``path``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        func = node.func if isinstance(node, ast.Call) else None
        if (isinstance(func, ast.Attribute) and func.attr == "dot"
                and isinstance(func.value, ast.Name) and func.value.id in ("np", "numpy")):
            yield node.lineno


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_blas_dot(path):
    # np.dot is a BLAS call, which took about 8 ms in some processes whose
    # BLAS threads were not pinned; nothing in the package needs one
    assert list(dot_calls(path)) == []


def plan_writes(path):
    """Enclosing ``Class.function`` of every store to, or deletion of, a
    ``_plan`` attribute in ``path``."""
    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = f"{scope}.{child.name}".lstrip(".")
            elif (isinstance(child, ast.Attribute) and child.attr == "_plan"
                  and not isinstance(child.ctx, ast.Load)):
                yield scope
            yield from walk(child, inner)

    yield from walk(ast.parse(path.read_text(encoding="utf-8")), "")


def test_plan_is_written_only_by_the_constructor():
    # a container is immutable: VbrMatrix.__init__ builds its multiply plan
    # once, and nothing else may store, replace or delete one
    writes = [(path.name, scope) for path in SOURCES for scope in plan_writes(path)]
    assert writes == [("formats.py", "VbrMatrix.__init__")]
