"""The code-line counter of ``tools/code_lines.py``, on an inline module."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

MODULE = '''"""A module docstring,
over two lines."""

# a comment
total = (1 +
         2)  # a trailing comment


def f():
    """A function docstring."""
    return "a string, not a docstring"
'''


def test_counts_code_lines_only():
    """The two lines of the expression, the def and the return count;
    the docstrings, the comment and the blank lines do not."""
    assert code_lines.code_lines(MODULE) == 4
