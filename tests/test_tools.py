"""``tools/src_lines.py`` counts the lines that hold code: not blank lines,
comments or docstrings, though other strings count, line by line."""

import importlib.util
import pathlib
import sys

from test_dependencies import absolute_imports

TOOL = pathlib.Path(__file__).parents[1] / "tools" / "src_lines.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("src_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_code_lines_only():
    source = '''"""Module docstring,
over two lines."""

import os  # a comment

# a comment line
def f(a,
      b):
    """One-line docstring."""
    x = """a string that is
    not a docstring"""
    return a


class C:
    """Class docstring."""
    y = 1
'''
    # import; def f(a,; b):; the two lines of x; return; class C:; y = 1
    assert load_tool().code_lines(source) == 8


def test_imports_only_the_standard_library():
    assert set(absolute_imports(TOOL)) <= sys.stdlib_module_names
