"""Count the code, docstring and comment-or-blank lines of Python files.

A docstring line is a line spanned by the docstring of a module, class or
function, nested ones included. A comment-or-blank line holds nothing but
whitespace or a comment. Every other line is code, a multi-line string that
is not a docstring included. Each line counts once.

    python3 tools/count_lines.py src/kpoqcr

prints one row per file (code, docstring, comment-or-blank, total) and the
totals; the arguments are files or directories, which are searched for
``*.py`` files.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path


def docstring_lines(tree: ast.AST) -> set[int]:
    """The 1-based line numbers spanned by every docstring in ``tree``."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        body = node.body
        if (body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int, int]:
    """(code, docstring, comment-or-blank) line counts of one module."""
    docs = docstring_lines(ast.parse(source))
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
                        tokenize.INDENT, tokenize.DEDENT,
                        tokenize.ENDMARKER):
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    code -= docs
    total = len(source.splitlines())
    return len(code), len(docs), total - len(code) - len(docs)


def python_files(paths: list[str]) -> list[Path]:
    files: list[Path] = []
    for arg in paths:
        path = Path(arg)
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return files


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: count_lines.py PATH...", file=sys.stderr)
        return 2
    totals = [0, 0, 0]
    print(f"{'code':>6} {'doc':>6} {'other':>6} {'total':>6}  file")
    for path in python_files(argv):
        counts = count(path.read_text(encoding="utf-8"))
        totals = [a + b for a, b in zip(totals, counts)]
        print(f"{counts[0]:6d} {counts[1]:6d} {counts[2]:6d} "
              f"{sum(counts):6d}  {path}")
    print(f"{totals[0]:6d} {totals[1]:6d} {totals[2]:6d} "
          f"{sum(totals):6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
