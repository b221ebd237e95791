"""Count the code lines of each module under ``src/bdts``.

A code line is one that is not blank, not only a comment, and not part of
a docstring (the first string statement of a module, class or function).
Prints one ``module lines`` row per module and then the total.

    python3 tools/loc.py [package_dir]
"""
from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "bdts"


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers that docstrings cover."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    skip = docstring_lines(ast.parse(source))
    return sum(
        1 for number, line in enumerate(source.splitlines(), start=1)
        if number not in skip and line.strip() and not line.strip().startswith("#")
    )


def main(argv: list[str]) -> None:
    package = Path(argv[0]) if argv else PACKAGE
    total = 0
    for path in sorted(package.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{path.stem:<10} {count:>5,}")
    print(f"{'total':<10} {total:>5,}")


if __name__ == "__main__":
    main(sys.argv[1:])
