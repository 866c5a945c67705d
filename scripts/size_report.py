#!/usr/bin/env python3
"""Print the size of the package source: its line count, its settable values,
and its lines split into code, docstring and comment lines.

Usage: python scripts/size_report.py [srcdir]

The line count is that of ``wc -l src/qmultimeter/*.py``. A settable value is
a parameter with a default of a public function or method (its name, and the
names of the classes around it, do not start with an underscore), or a
dataclass field with a default.

A docstring line lies in the span of a module, class or function docstring.
Any other line is a code line if it holds a Python token other than a
comment (a line of a multi-line string included), a comment line if it holds
only a comment, and blank otherwise. A comment after code is part of a code
line.
"""

import argparse
import ast
import io
import pathlib
import sys
import tokenize

DEFAULT_SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "qmultimeter"


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def _defaulted_parameters(fn) -> int:
    args = fn.args
    return len(args.defaults) + sum(d is not None for d in args.kw_defaults)


def settable_values(tree: ast.Module) -> int:
    """Defaulted parameters of public functions and methods, plus defaulted
    dataclass fields, in one module."""
    count = 0

    def visit(body, public: bool):
        nonlocal count
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if public and not node.name.startswith("_"):
                    count += _defaulted_parameters(node)
            elif isinstance(node, ast.ClassDef):
                inner = public and not node.name.startswith("_")
                if inner and _is_dataclass(node):
                    count += sum(
                        isinstance(s, ast.AnnAssign) and s.value is not None for s in node.body
                    )
                visit(node.body, inner)

    visit(tree.body, True)
    return count


# tokens that hold no code: layout, the encoding and the end of the file
LAYOUT = {
    tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING, tokenize.ENDMARKER, tokenize.COMMENT,
}


def line_kinds(text: str, tree: ast.Module) -> tuple:
    """(code, docstring, comment) line counts of one module."""
    docstring = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                if isinstance(first.value.value, str):
                    docstring.update(range(first.lineno, first.end_lineno + 1))
    code, comment = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.COMMENT:
            comment.add(tok.start[0])
        elif tok.type not in LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    code -= docstring
    return len(code), len(docstring), len(comment - code - docstring)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("srcdir", nargs="?", default=str(DEFAULT_SRC))
    args = ap.parse_args()

    files = sorted(pathlib.Path(args.srcdir).glob("*.py"))
    if not files:
        print(f"no Python files in {args.srcdir}", file=sys.stderr)
        return 2
    lines = settable = 0
    kinds = [0, 0, 0]
    for path in files:
        text = path.read_text()
        tree = ast.parse(text, filename=str(path))
        lines += text.count("\n")
        settable += settable_values(tree)
        kinds = [a + b for a, b in zip(kinds, line_kinds(text, tree))]
    print(f"lines {lines}")
    print(f"settable values {settable}")
    for name, count in zip(("code", "docstring", "comment"), kinds):
        print(f"{name} lines {count}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
