"""Count the code lines of each module under ``src/pointideal``.

A code line is a non-blank line outside docstrings and comments.  The
lines that carry a token other than a comment or a line break are read
with `tokenize`, a token spanning several lines counting on each; the
docstrings of the module, its classes and its functions are found with
`ast`, and their lines are dropped.

Run from the repository root::

    python tools/code_lines.py

It prints one line per module, its code lines and its path, and the
total last.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """The number of code lines in a module's source."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _SCOPES) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.difference_update(range(doc.lineno, doc.end_lineno + 1))
    return len(lines)


def main() -> int:
    root = Path(__file__).resolve().parent.parent / "src" / "pointideal"
    total = 0
    for path in sorted(root.rglob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path.relative_to(root.parent)}")
    print(f"{total:6d}  total")
    return total


if __name__ == "__main__":
    main()
