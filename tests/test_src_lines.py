"""The code-line count of `benchmarks/src_lines.py`."""
import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "src_lines", Path(__file__).resolve().parent.parent / "benchmarks" / "src_lines.py"
)
src_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(src_lines)

MODULE = '''"""A module docstring
over two lines."""
import os

# a comment


def f(x):
    """One line."""
    s = """a string that
    is code"""  # a trailing comment
    return s + x


class C:
    """A class
    docstring."""

    y = "not a docstring"
'''


def test_counts_only_code_lines():
    # import, def f, s = (2 lines), return, class C, y
    assert src_lines.code_lines(MODULE) == 7
