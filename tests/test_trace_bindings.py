"""Imported names that a module of the package never uses, and top-level
definitions that nothing in the package names.

``perfbench/trace_run.py`` times a call where its caller binds the name, so
a few modules import a name only for the trace tool to wrap.  Each such
binding is listed here with the span that wraps it; any other import that
goes unused fails, so no binding is added or kept silently.  A name used
in a doctest counts as used.

A top-level function or class of the package, and each method or property
of such a class but its dunders, must be named in the package's code
outside its own definition (docstrings and imports do not count), or be
listed in ``UNCALLED`` with the reason it stays.  A function or class
counts as named wherever its name is read; a method or property only where
an attribute of its name is read (``x.block``), not a bare variable of it.
"""

import ast
import doctest
from collections import Counter
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
    ("pipeline", "build_presentation"): "presentation.build_presentation[pipeline]",
    ("pipeline", "build_schreier"): "schreier.build_schreier",
    ("pipeline", "replay_log"): "pipeline.replay_log",
    ("presentation", "build_schreier"): "schreier.build_schreier",
    ("presentation", "enumerate_singular_squares"): "squares.enumerate_singular_squares",
    ("verification", "build_presentation"): "presentation.build_presentation[verification]",
    ("verification", "presentations_match"): "verification.presentations_match",
}


# top-level definitions no code of the package names -> why each stays
UNCALLED = {
    ("squares", "is_singular_sq2"): "the SQ2 test on objects, the reference is_singular_ids is tested against",
    ("combinatorics", "enumerate_transversal_pairs"): "wrapped by the trace tool through its labels binding",
    ("presentation", "presentations_match"): "wrapped by the trace tool through its verification binding",
    ("squares", "enumerate_squares"): "wrapped by the trace tool through its cli binding",
    ("squares", "enumerate_singular_squares"): "wrapped by the trace tool through its presentation binding",
    ("squares", "square_record"): "wrapped by the trace tool through its cli binding",
    ("schreier", "build_schreier"): "wrapped by the trace tool through its pipeline and presentation bindings",
    ("schreier", "SchreierSystem.word_to"): "the words the tests evaluate; schreier.py stays only for the trace tool",
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


def names_read(tree: ast.AST, kinds: tuple = (ast.Name, ast.Attribute)) -> Counter:
    """How many times each name and attribute name is read in ``tree``,
    of the node ``kinds`` given."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, kinds)
    )


def is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def uncalled_definitions(sources: dict[str, str]) -> set[tuple[str, str]]:
    """The (module, name) of each top-level function or class in ``sources``,
    a module name -> source map, and the (module, "Class.name") of each
    method or property of a top-level class, dunders aside, that no code of
    the modules names outside its own definition: a method only as an
    attribute."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = sum(map(names_read, trees.values()), Counter())
    attributes = (ast.Attribute,)
    read_as_attribute = sum((names_read(tree, attributes) for tree in trees.values()), Counter())
    found = set()
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            # the reads outside the definition: all of them but its own
            if read[node.name] == names_read(node)[node.name]:
                found.add((module, node.name))
            if isinstance(node, ast.ClassDef):
                for m in node.body:
                    if not isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef)) or is_dunder(m.name):
                        continue
                    if read_as_attribute[m.name] == names_read(m, attributes)[m.name]:
                        found.add((module, f"{node.name}.{m.name}"))
    return found


def test_every_top_level_definition_is_named_or_listed():
    package = Path(igmax.__file__).parent
    assert uncalled_definitions({path.stem: path.read_text() for path in sorted(package.glob("*.py"))}) == set(UNCALLED)


def test_uncalled_definitions_reads_code_only():
    sources = {
        # f names itself, h is only imported and in a docstring: neither counts
        "a": 'from b import g, h\n\ndef f():\n    """h"""\n    return f() + g()\n\nclass C:\n    pass\n',
        "b": "def g():\n    return C\n\ndef h():\n    return 1\n",
        # D.m is read outside its own definition, D.p only inside it, D.q nowhere, and
        # D.v only as a bare variable, which names no method; dunders are aside
        "c": (
            "class D:\n    def __init__(self):\n        self.m()\n\n    def m(self):\n        pass\n\n"
            "    @property\n    def p(self):\n        return self.p\n\n    def q(self):\n        pass\n\n"
            "    def v(self):\n        pass\n\nv = 1\nD(v)\n"
        ),
    }
    assert uncalled_definitions(sources) == {
        ("a", "f"), ("b", "h"), ("c", "D.p"), ("c", "D.q"), ("c", "D.v")
    }


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
