"""Count each Python file's lines that hold code: no docstring, comment or blank line.

Usage: ``python tools/code_lines.py FILE...``.  Prints one ``count path``
line per file, then the total when there are several.  A line holds code
when it carries a token other than a comment, a line break or an indent;
a docstring (a string that is a whole statement opening a module, class or
function body) counts as no code, on every line it spans.
"""

from __future__ import annotations

import ast
import sys
import tokenize


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: str) -> int:
    """The number of lines of ``path`` that hold code."""
    with open(path, "rb") as f:
        source = f.read()
    skip = _docstring_lines(ast.parse(source, path))
    ignored = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
               tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
    with open(path, "rb") as f:
        tokens = list(tokenize.tokenize(f.readline))
    return len({line for tok in tokens if tok.type not in ignored
                for line in range(tok.start[0], tok.end[0] + 1) if line not in skip})


def main(paths: list[str]) -> int:
    if not paths:
        print("usage: python tools/code_lines.py FILE...", file=sys.stderr)
        return 2
    counts = [(code_lines(p), p) for p in paths]
    for n, p in counts:
        print(f"{n} {p}")
    if len(counts) > 1:
        print(f"{sum(n for n, _ in counts)} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
