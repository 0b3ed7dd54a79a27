"""The tools: ``tools/src_lines.py`` counts the lines that hold code, not
blank lines, comments or docstrings, though other strings count, line by
line; ``tools/ab_stages.py`` times two checkouts' set-up stages in one
process."""

import importlib.util
import pathlib
import subprocess
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


AB_STAGES = pathlib.Path(__file__).parents[1] / "tools" / "ab_stages.py"


def test_ab_stages_times_a_checkout_against_itself():
    root = str(AB_STAGES.parents[1])
    out = subprocess.run([sys.executable, str(AB_STAGES), root, root, "--seed", "3",
                          "--calls", "2", "--scale", "0.02"],
                         capture_output=True, text=True, check=True).stdout
    # workload, stage (one or two words), two medians, change, spread, same
    rows = [line.split() for line in out.splitlines()[2:]]
    stages = {(row[0], " ".join(row[1:-5])) for row in rows}
    assert len(stages) == len(rows) == 21
    assert {w for w, _ in stages} == {"rowruns-1d", "blocks-2d", "scatter-heuristic",
                                      "calibrate-fit"}
    assert {("rowruns-1d", "optimal_partition"), ("blocks-2d", "to_vbr"),
            ("scatter-heuristic", "to_1dvbr"), ("calibrate-fit", "read")} <= stages
    # both sides run the same code, so every stage gives the same result
    assert all(row[-1] == "yes" for row in rows)


def test_ab_stages_imports_only_the_standard_library_and_numpy():
    assert set(absolute_imports(AB_STAGES)) <= sys.stdlib_module_names | {"numpy"}
