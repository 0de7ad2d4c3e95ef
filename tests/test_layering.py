"""Layering of the lacunary package, read from its source.

Every import sits at module level, so the dependencies between modules are
visible at a glance, and the intra-package import graph has no cycle. Every
exception the package defines has one of two roots.
"""

import ast
import importlib
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import lacunary
from lacunary.arith import BudgetExceeded

PACKAGE = Path(lacunary.__file__).resolve().parent
MODULES = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
           for path in sorted(PACKAGE.glob("*.py"))}


def _local_imports(tree: ast.Module) -> set[str]:
    """Names of the package modules one module imports ("__init__" for the package)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                out.add(node.module.split(".")[0])
            else:
                out.update(a.name if a.name in MODULES else "__init__" for a in node.names)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else [node.module]
            out.update(n.split(".")[1] for n in names
                       if n and n.startswith("lacunary.") and n.split(".")[1] in MODULES)
    return out


def test_no_import_inside_a_function():
    found = []
    for name, tree in MODULES.items():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                found += [f"{name}.py:{node.lineno}" for node in ast.walk(fn)
                          if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert found == []


def test_import_graph_is_acyclic():
    graph = {name: _local_imports(tree) - {name} for name, tree in MODULES.items()}
    try:
        order = list(TopologicalSorter(graph).static_order())
    except CycleError as exc:
        raise AssertionError(f"import cycle: {exc.args[1]}") from None
    assert order.index("arith") < order.index("sets") < order.index("dependence")
    assert "dependence" not in graph["sets"]


def test_every_exception_has_one_of_two_roots():
    # Bad input raises a ValueError, a search out of budget an arith.BudgetExceeded.
    # NotApplicable is an outcome (exit 1), and SpecError stays apart so that
    # cli._read does not wrap a nested field's error a second time.
    modules = [lacunary if name == "__init__" else importlib.import_module(f"lacunary.{name}")
               for name in MODULES]
    classes = [obj for module in modules for obj in vars(module).values()
               if isinstance(obj, type) and issubclass(obj, BaseException)
               and obj.__module__ == module.__name__]
    assert {c.__name__ for c in classes} >= {"BudgetExceeded", "SpecError", "NotApplicable"}
    assert [f"{c.__module__}.{c.__name__}" for c in classes
            if not issubclass(c, (ValueError, BudgetExceeded))] == [
        "lacunary.cli.SpecError", "lacunary.dependence.NotApplicable"]
