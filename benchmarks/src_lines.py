"""Count the code lines of the package: lines that are not blank, not
comments and not part of a docstring.

Usage, from the repository root:

    python3 benchmarks/src_lines.py [DIR]

Prints one line per module of DIR (default `src/localantimagic`) and the
total.  A docstring is the string statement that opens a module, class or
function, found with `ast`; every line it spans is left out.  Any other
string, multi-line or not, is code.
"""
from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(text: str) -> int:
    """Lines of `text` that are neither blank, a comment nor a docstring."""
    doc = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                doc.update(range(first.lineno, first.end_lineno + 1))
    return sum(
        1
        for number, line in enumerate(text.splitlines(), 1)
        if number not in doc and line.strip() and not line.lstrip().startswith("#")
    )


def main(argv: list[str]) -> None:
    top = Path(argv[0]) if argv else ROOT / "src" / "localantimagic"
    total = 0
    for path in sorted(top.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6,d}  {path.name}")
    print(f"{total:6,d}  total")


if __name__ == "__main__":
    main(sys.argv[1:])
