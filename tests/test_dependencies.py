"""The package declares numpy as its only dependency; scipy and hypothesis
may be installed next to it, so an import of either from ``src`` would
otherwise pass every other test. No module calls ``np.dot`` either, which
would reach BLAS, only ``VbrMatrix._finish`` stores a multiply plan, and
every module-level def and class is used somewhere in the package."""

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


DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def references(tree):
    """(enclosing module-level def or class, or None; name) of every Name,
    Attribute, imported name and ``__all__`` entry in the module ``tree``."""
    for top in tree.body:
        owner = top.name if isinstance(top, DEFS) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                yield owner, node.id
            elif isinstance(node, ast.Attribute):
                yield owner, node.attr
            elif isinstance(node, ast.alias):
                yield owner, node.name
            elif isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                yield from ((owner, leaf.value) for leaf in ast.walk(node.value)
                            if isinstance(leaf, ast.Constant) and isinstance(leaf.value, str))


def test_every_module_level_def_is_used():
    # a def or class that nothing else in the package names is dead code;
    # its own body naming it (recursion, isinstance) does not count
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    used = {(module, owner, name) for module, tree in trees.items()
            for owner, name in references(tree)}
    unused = [f"{module}:{top.name}" for module, tree in trees.items() for top in tree.body
              if isinstance(top, DEFS)
              and not any(name == top.name and (where, owner) != (module, top.name)
                          for where, owner, name in used)]
    assert unused == []


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
    # a container is immutable: VbrMatrix._finish builds its multiply plan
    # once, and nothing else may store, replace or delete one
    writes = [(path.name, scope) for path in SOURCES for scope in plan_writes(path)]
    assert writes == [("formats.py", "VbrMatrix._finish")]
