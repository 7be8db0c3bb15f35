"""Code-line counter for `src/thetadim`: the count ROADMAP and CHANGES cite.

A code line is a line that holds a code token.  Comments, blank lines and
the docstrings of modules, classes and functions are not code; a string
that is not a docstring is, on every line it spans.

    python tests/code_lines.py

prints each module's count, largest first, and the total.
"""

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "thetadim"

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def count_code_lines(source: str) -> int:
    """The number of lines of `source` that hold a code token."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def main() -> None:
    counts = {path.stem: count_code_lines(path.read_text()) for path in PACKAGE.glob("*.py")}
    for name, count in sorted(counts.items(), key=lambda item: (-item[1], item[0])):
        print(f"{name:12} {count:5}")
    print(f"{'total':12} {sum(counts.values()):5}")


if __name__ == "__main__":
    main()
