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


def test_only_the_model_matches_edges_to_locations():
    # Automaton.leaving answers which edges leave a location; a comparison
    # with an edge's source elsewhere is a scan of its own
    found = [
        f"{path.name}:{node.lineno} {ast.unparse(node)}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "model.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Compare)
        and any(
            isinstance(operand, ast.Attribute) and operand.attr == "source"
            for operand in [node.left, *node.comparators]
        )
    ]
    assert found == []


def test_no_subset_enumeration_in_library():
    # cells, vertices and LPs are all built from the zone's structure; a loop
    # over every clock subset is the 2^n search each of them replaced
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if (isinstance(node, ast.Attribute) and node.attr == "combinations")
        or (
            isinstance(node, ast.ImportFrom)
            and node.module == "itertools"
            and any(alias.name == "combinations" for alias in node.names)
        )
    ]
    assert found == []


def _name(expr: ast.expr) -> str | None:
    """The name a call or decorator refers to: ``f`` or ``mod.f``."""
    return expr.id if isinstance(expr, ast.Name) else getattr(expr, "attr", None)


def _import_time_nodes(tree: ast.Module):
    """Every node evaluated when the module is imported: all but the bodies
    of functions, whose decorators and defaults are still included."""
    stack: list[ast.AST] = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            stack += args.defaults + [d for d in args.kw_defaults if d is not None]
            stack += getattr(node, "decorator_list", [])
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def test_no_module_level_mutable_state():
    # derived data lives on values or in one call's locals (explore's intern
    # table dies with the call), never in state shared between calls
    displays = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
    factories = {"dict", "list", "set", "defaultdict", "Counter"}
    caches = {"cache", "lru_cache"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in _import_time_nodes(tree):
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and isinstance(node.value, displays):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                if not all(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                    found.append(f"{path.name}:{node.lineno} {ast.unparse(node)[:60]}")
            elif isinstance(node, ast.Call) and _name(node.func) in factories:
                found.append(f"{path.name}:{node.lineno} {ast.unparse(node)[:60]}")
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for dec in fn.decorator_list:
                name = _name(dec.func if isinstance(dec, ast.Call) else dec)
                if name in caches:
                    found.append(f"{path.name}:{dec.lineno} @{name} on {fn.name}")
    assert found == []
