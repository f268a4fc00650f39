#!/usr/bin/env python3
"""Count the code lines of a package, per module and in total.

A code line is a non-blank line that is neither a comment nor part of a
docstring (the first string statement of a module, class or function,
as `ast` finds it).  Usage:

    python scripts/code_lines.py [DIR ...]

Each DIR (default: the package under src/stpcs) is read for its *.py
files, not recursively.  Prints one "module lines" row per file and a
total per directory; gates nothing and exits 0.
"""

import ast
import sys
from pathlib import Path

DEFAULT = Path(__file__).resolve().parent.parent / "src" / "stpcs"


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers spanned by the docstrings of the module and its classes and functions."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    docs = docstring_lines(ast.parse(source))
    return sum(1 for number, line in enumerate(source.splitlines(), 1)
               if line.strip() and not line.lstrip().startswith("#") and number not in docs)


def main(argv: list[str]) -> int:
    for directory in map(Path, argv or [DEFAULT]):
        total = 0
        for path in sorted(directory.glob("*.py")):
            count = code_lines(path.read_text(encoding="utf-8"))
            total += count
            print(f"{path.name} {count}")
        print(f"total {directory} {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
