#!/usr/bin/env python3
"""Print the size of the package source: its line count and its settable values.

Usage: python scripts/size_report.py [srcdir]

The line count is that of ``wc -l src/qmultimeter/*.py``. A settable value is
a parameter with a default of a public function or method (its name, and the
names of the classes around it, do not start with an underscore), or a
dataclass field with a default.
"""

import argparse
import ast
import pathlib
import sys

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


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("srcdir", nargs="?", default=str(DEFAULT_SRC))
    args = ap.parse_args()

    files = sorted(pathlib.Path(args.srcdir).glob("*.py"))
    if not files:
        print(f"no Python files in {args.srcdir}", file=sys.stderr)
        return 2
    lines = settable = 0
    for path in files:
        text = path.read_text()
        lines += text.count("\n")
        settable += settable_values(ast.parse(text, filename=str(path)))
    print(f"lines {lines}")
    print(f"settable values {settable}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
