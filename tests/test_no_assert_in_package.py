"""Checks survive ``python -O``.

The optimizer strips ``assert`` statements, so a guard written as one is
gone from an optimized run.  The package raises explicitly instead, and this
test walks its AST to keep it that way.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "carnot_bcp"


def test_package_has_no_assert_statement():
    found = [f"{path.relative_to(PACKAGE)}:{node.lineno}"
             for path in sorted(PACKAGE.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []
