"""Code lines of the package: per module and in total.

A code line is a source line that holds part of a statement: blank lines,
comment-only lines and docstrings (a string literal standing alone as the
first statement of a module, class or function) do not count.

    python3 tools/code_lines.py [TREE]

TREE is a directory holding ``src/reachflow``, the repository by default.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The lines of every docstring in the module."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                out.update(range(body[0].lineno, body[0].end_lineno + 1))
    return out


def code_lines(source: str) -> int:
    docs = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    src = (Path(argv[0]) if argv else REPO) / "src" / "reachflow"
    total = 0
    for path in sorted(src.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{path.stem:<14}{count:>6}")
    print(f"{'total':<14}{total:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
