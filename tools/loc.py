"""Count the lines of each module of the ``tiebound`` package: all of them, and the code lines.

Usage::

    python tools/loc.py [PACKAGE_DIR]

PACKAGE_DIR defaults to ``src/tiebound`` beside this script.  Prints, for
each ``*.py`` module and then for their total, the lines as ``wc -l``
counts them (newline characters) and the code lines.  A code line holds a
token outside comments, blank lines and docstrings; a docstring is the
first string statement of a module, class or function body, or a string
statement right after an assignment in a module or class body (an
attribute docstring).  A string token over several lines holds each of
them.
"""

from __future__ import annotations

import ast
import io
import pathlib
import sys
import tokenize

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def _is_string(node) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def _docstring_lines(tree: ast.AST) -> set:
    """The lines of every module, class, function and attribute docstring."""
    lines = set()
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if not isinstance(body, list):
            continue
        docs = body[:1] if body and _is_string(body[0]) else []
        if isinstance(node, (ast.Module, ast.ClassDef)):
            docs += [b for a, b in zip(body, body[1:])
                     if isinstance(a, (ast.Assign, ast.AnnAssign)) and _is_string(b)]
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            for doc in docs:
                lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def count(source: str) -> tuple:
    """(lines by ``wc -l``, code lines) of one module's source."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return source.count("\n"), len(code - _docstring_lines(ast.parse(source)))


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    default = pathlib.Path(__file__).resolve().parents[1] / "src" / "tiebound"
    package = pathlib.Path(args[0]) if args else default
    totals = [0, 0]
    print(f"{'module':<24}{'lines':>7}{'code':>7}")
    for path in sorted(package.glob("*.py")):
        lines, code = count(path.read_text())
        totals = [totals[0] + lines, totals[1] + code]
        print(f"{path.name:<24}{lines:>7}{code:>7}")
    print(f"{'total':<24}{totals[0]:>7}{totals[1]:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
