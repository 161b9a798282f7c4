"""Checks on the package source itself."""

from __future__ import annotations

import ast
from pathlib import Path

import frobstab


def test_no_assert_statements_in_the_package():
    """`python -O` strips asserts, so no check may live in one."""
    sources = sorted(Path(frobstab.__file__).parent.rglob("*.py"))
    assert {p.name for p in sources} >= {"__init__.py", "algebra.py", "stab.py"}
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
