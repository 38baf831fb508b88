"""Print the code lines of each Python file given, and their total.

A code line holds a token that is neither a comment nor part of a docstring,
so blank lines, comment lines and docstrings are not counted; a statement
that spans several lines counts each of them.

    python tools/code_lines.py src/diracfluid/*.py
"""

import ast
import io
import sys
import tokenize

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.Module) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(paths) -> None:
    total = 0
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            n = code_lines(fh.read())
        total += n
        print(f"{n:7d} {path}")
    print(f"{total:7d} total")


if __name__ == "__main__":
    main(sys.argv[1:])
