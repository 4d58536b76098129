"""Imported names that a module of the package never uses.

``perfbench/trace_run.py`` times a call where its caller binds the name, so
a few modules import a name only for the trace tool to wrap.  Each such
binding is listed here with the span that wraps it; any other import that
goes unused fails, so no binding is added or kept silently.  A name used
in a doctest counts as used.
"""

import ast
import doctest
import importlib
import importlib.util
import inspect
from pathlib import Path

import igmax

TRACE_RUN = Path(__file__).resolve().parent.parent / "perfbench" / "trace_run.py"

# (module, name): the trace span that wraps the name in that module
TRACE_ONLY = {
    ("cli", "enumerate_squares"): "squares.enumerate_squares",
    ("cli", "is_singular_sq3"): "squares.is_singular_sq3",
    ("cli", "square_record"): "squares.square_record",
    ("labels", "enumerate_transversal_pairs"): "combinatorics.enumerate_transversal_pairs",
    ("presentation", "build_schreier"): "schreier.build_schreier",
    ("verification", "presentations_match"): "verification.presentations_match",
}


def names_in(tree: ast.AST) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def unused_imports(source: str) -> set[str]:
    """The names ``source`` imports (``__future__`` aside) and never reads,
    in its code or in the examples of its docstrings."""
    tree = ast.parse(source)
    imported, used = set(), names_in(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            for example in doctest.DocTestParser().get_examples(ast.get_docstring(node) or ""):
                used |= names_in(ast.parse(example.source))
    return imported - used


def test_unused_imports_are_exactly_the_trace_only_bindings():
    package = Path(igmax.__file__).parent
    found = {
        (path.stem, name)
        for path in sorted(package.glob("*.py"))
        for name in unused_imports(path.read_text())
    }
    assert found == set(TRACE_ONLY)


def test_each_trace_only_binding_is_wrapped_by_the_trace_tool():
    spec = importlib.util.spec_from_file_location("perfbench_trace_run", TRACE_RUN)
    trace_run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace_run)
    undo = trace_run.install(trace_run.Tracer())
    try:
        for (module, name), span in TRACE_ONLY.items():
            wrapper = getattr(importlib.import_module(f"igmax.{module}"), name)
            assert inspect.getclosurevars(wrapper).nonlocals.get("name") == span, (module, name)
    finally:
        trace_run.uninstall(undo)


def test_unused_imports_reads_code_and_doctests():
    source = '''
from __future__ import annotations
import os
from json import dumps, loads
from math import pi


def f():
    """
    >>> loads("1")
    1
    """
    return dumps(1)
'''
    assert unused_imports(source) == {"os", "pi"}
