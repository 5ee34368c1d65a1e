"""Count code lines of Python modules: lines that hold a token other than a
comment, and that are not part of a docstring.

A line counts once however many tokens it holds; every line of a statement
that spans several lines counts (a multi-line string literal included).  A
docstring is the string-literal expression that opens a module, class or
function body, as `ast` defines it.

    python3 tools/code_lines.py src/oldb2d

prints one `<count>  <path>` line per module, in path order, then the
total.  Arguments are files or directories (searched for `*.py`).
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

import closed_stdout  # a sibling: a script's directory is on the path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in the Python source text `source`."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv: list) -> int:
    paths = []
    for arg in argv or ["."]:
        p = Path(arg)
        paths.extend(sorted(p.rglob("*.py")) if p.is_dir() else [p])
    total = 0
    for path in paths:
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    closed_stdout.run(main, sys.argv[1:])
