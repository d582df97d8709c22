"""Rules on the library source itself."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "zonecost"


def test_no_assert_statements_in_library():
    # ``python -O`` strips asserts, so runtime invariants must raise typed errors
    sources = sorted(SRC.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_float_only_for_the_infinity_sentinels():
    # costs, bounds and witnesses are ints and Fractions; the only floats are
    # dbm's two infinity sentinels
    calls = [
        (path.name, ast.unparse(node))
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "float"
    ]
    assert sorted(calls) == [("dbm.py", "float('-inf')"), ("dbm.py", "float('inf')")]
