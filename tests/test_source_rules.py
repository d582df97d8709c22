"""Rules on the library source itself."""

from __future__ import annotations

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "zonecost"


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


def test_no_function_level_imports_in_library():
    # the benchmark's tracer patches names bound in a module; a name imported
    # inside a function is a local and escapes the patch
    found = sorted({
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    })
    assert found == []


def test_traced_names_stay_bound():
    # the benchmark's tracer patches these names where they are bound; a
    # refactor that drops one breaks the benchmark, not just its smoke test
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        (getattr(owner, "__name__", owner), attr)
        for table in (tracing.SPANNED, tracing.COUNTED)
        for entries in table.values()
        for owner, attr in entries
        if attr not in owner.__dict__
    ]
    assert missing == []
