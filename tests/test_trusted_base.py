"""The checker stands apart from the producer.

``igmax.replay`` holds the log format and the checker a verdict rests on.
It imports nothing from the producer (``igmax.pipeline``) or from the
verdict assembly, ``replay`` does not load the producer at all, and neither
``replay`` nor ``verify`` without the coset oracle builds a presentation or
makes a generator or square object.  A log cites generators, kernels and
images by id, so reading one parses no kernel or image text.  The checker
reads the top and middle relations off the index's id tables, so it
imports nothing from the Schreier words or the combinatorics, and neither
it nor the relation families build a Schreier word, a kernel or an image.

The checker has a line budget: the package modules that ``igmax.replay``
loads, itself included, may hold at most ``CHECKER_LINE_BUDGET`` lines.
A change may lower the budget; it raises it only with a line in CHANGES.md
that says why.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import igmax
import igmax.pipeline as pipeline
import igmax.presentation as presentation
import igmax.replay as replay
import igmax.schreier as schreier
import igmax.squares as squares
import igmax.verification as verification
from igmax.cli import main
from igmax.combinatorics import Partition, Subset
from igmax.presentation import GeneratorId
from igmax.squares import Square

PACKAGE = Path(igmax.__file__).resolve().parent
CHECKER_LINE_BUDGET = 2930


def import_closure(module: str) -> list[str]:
    """The package modules that ``igmax.<module>`` loads through the
    package's relative imports, anywhere in a module, itself included; read
    by ``ast``, sorted."""
    seen, todo = set(), [module]
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            for node in ast.walk(ast.parse((PACKAGE / f"{name}.py").read_text())):
                if isinstance(node, ast.ImportFrom) and node.level:
                    todo += [node.module] if node.module else [alias.name for alias in node.names]
    return sorted(seen)


def line_count(modules: list[str]) -> int:
    return sum(len((PACKAGE / f"{name}.py").read_text().splitlines()) for name in modules)


def test_the_checker_keeps_to_its_line_budget():
    closure = import_closure("replay")
    assert {"replay", "presentation", "squares", "perms", "errors"} <= set(closure)
    assert not {"pipeline", "verification", "cli"} & set(closure)
    assert line_count(closure) <= CHECKER_LINE_BUDGET, (closure, line_count(closure))


FORBIDDEN_MODULES = {"pipeline", "verification"}
FORBIDDEN_NAMES = {"build_presentation", "Derivation"}


def _outside_the_checker(source: str) -> list[str]:
    """Each import of the producer or the verdict assembly in ``source``,
    and each use of a producer name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").removeprefix("igmax.")
            names = {alias.name for alias in node.names}
            if module in FORBIDDEN_MODULES or (module in ("", "igmax") and names & FORBIDDEN_MODULES):
                found.append(f"line {node.lineno}: from {'.' * node.level}{node.module or ''} import ...")
            found += [f"line {node.lineno}: imports {name}" for name in names & FORBIDDEN_NAMES]
        elif isinstance(node, ast.Import):
            found += [
                f"line {node.lineno}: import {alias.name}"
                for alias in node.names
                if alias.name.removeprefix("igmax.") in FORBIDDEN_MODULES
            ]
        elif isinstance(node, ast.Name) and node.id in FORBIDDEN_NAMES:
            found.append(f"line {node.lineno}: {node.id}")
        elif isinstance(node, ast.Attribute) and node.attr in FORBIDDEN_NAMES:
            found.append(f"line {node.lineno}: .{node.attr}")
    return found


def test_the_checker_imports_nothing_from_the_producer():
    assert _outside_the_checker(Path(replay.__file__).read_text()) == []


def test_the_checker_imports_nothing_from_the_schreier_words_or_the_combinatorics():
    tree = ast.parse(Path(replay.__file__).read_text())
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").removeprefix("igmax.")
            modules |= {alias.name for alias in node.names} if module in ("", "igmax") else {module}
        elif isinstance(node, ast.Import):
            modules |= {alias.name.removeprefix("igmax.") for alias in node.names}
    assert "squares" in modules and modules.isdisjoint({"schreier", "combinatorics"})


def test_relation_families_and_the_replay_build_no_schreier_word_kernel_or_image(monkeypatch):
    # the top and middle relations are the index's tables top_of and
    # min_image: once the index is made, writing the (7,4) relation families
    # and replaying the (7,4) log call no builder of the Schreier words and
    # make no kernel or image object
    doc = json.loads(json.dumps(pipeline.run_pipeline(7, 4)[1].to_json()))
    presentation.relation_families.cache_clear()
    squares._singular_index.cache_clear()
    squares._singular_index(7, 4)
    calls = []

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        return wrapper

    for name in ("predecessor", "convex_partition_of", "build_schreier"):
        for module in list(sys.modules.values()):
            if module.__name__.startswith("igmax") and hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    for cls in (Partition, Subset):
        monkeypatch.setattr(cls, "__init__", counted(cls.__name__, cls.__init__))
    presentation.relation_families(7, 4)
    assert replay.replay_log(replay.DerivationLog.from_json(doc)).ok
    assert calls == []
    # the stand-ins count
    schreier.build_schreier(3, 2)
    assert {"build_schreier", "predecessor", "convex_partition_of", "Subset", "Partition"} <= set(calls)


# the names of words as (generator, exponent) pairs over generator objects
PAIR_WORD_NAMES = {"Relation", "GroupWord", "GeneratorId", "letter_images"}


def test_the_checker_reads_int_letter_words_only():
    # the checker's words are int letters from one end to the other: it
    # neither imports nor names the pair-word types
    tree = ast.parse(Path(replay.__file__).read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    named |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert PAIR_WORD_NAMES.isdisjoint(imported | named)


def test_the_import_walk_sees_each_way_in():
    for source in (
        "from .pipeline import run_pipeline",
        "from . import verification",
        "from igmax import pipeline",
        "import igmax.pipeline",
        "from igmax.verification import verify_theorem",
        "from .presentation import build_presentation",
        "x = Derivation(5, 3)",
        "x = presentation.build_presentation(5, 3)",
    ):
        assert _outside_the_checker(source) != [], source
    assert _outside_the_checker("from .presentation import relation_families\nDerivationLog(5, 3)") == []


# the layers above the squares, which stats, squares and label do without
UPPER_LAYERS = {"igmax.presentation", "igmax.replay", "igmax.pipeline", "igmax.verification", "igmax.schreier"}
# each command at a small case, and the igmax modules it must not load
IMPORT_CLOSURE = {
    "stats": (["stats", "--n", "5", "--r", "3"], UPPER_LAYERS),
    "squares": (["squares", "--n", "4", "--r", "2"], UPPER_LAYERS),
    "label": (["label", "--P", "{{1},{2,3,5},{4,7},{6}}", "--A", "{1,4,5,6}"], UPPER_LAYERS),
    "present": (["present", "--n", "4", "--r", "2"], {"igmax.replay", "igmax.pipeline", "igmax.verification"}),
    "reduce": (["reduce", "--n", "5", "--r", "3"], {"igmax.verification"}),
    "replay": (["replay", "--log", "LOG"], {"igmax.pipeline", "igmax.verification"}),
    "verify": (["verify", "--n", "4", "--r", "2", "--with-coset-oracle"], set()),
}


@pytest.mark.parametrize("command", list(IMPORT_CLOSURE))
def test_each_command_loads_only_the_layers_it_needs(tmp_path, command):
    # every command is a short process that compiles the package first, so
    # none loads dataclasses (and the inspect module under it), and the
    # commands that stay below the presentation do not compile the layers
    # above it; replay, the checker, loads no producer
    argv, absent = IMPORT_CLOSURE[command]
    path = tmp_path / "log.json"
    if command == "replay":
        assert main(["reduce", "--n", "5", "--r", "3", "--log", str(path)]) == 0
    src = str(Path(igmax.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    # -X importtime lists on stderr every module the process imports
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "igmax.cli", *(str(path) if a == "LOG" else a for a in argv)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    loaded = {line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines() if "|" in line}
    assert "igmax.squares" in loaded  # the listing is read
    assert not loaded & ({"dataclasses", "inspect"} | absent), sorted(loaded & ({"dataclasses", "inspect"} | absent))
    if command == "replay":
        assert done.stdout.endswith("replay: PASS\n") and "igmax.replay" in loaded


def test_replay_and_verify_build_no_presentation(monkeypatch, tmp_path, capsys):
    path = str(tmp_path / "log.json")
    assert main(["reduce", "--n", "5", "--r", "3", "--log", path]) == 0
    made = []

    def counted(what, real):
        def wrapper(*args, **kwargs):
            made.append(what)
            return real(*args, **kwargs)

        return wrapper

    build = counted("build_presentation", presentation.build_presentation)
    for module in (presentation, pipeline, verification):
        monkeypatch.setattr(module, "build_presentation", build)
    monkeypatch.setattr(GeneratorId, "of", classmethod(counted("GeneratorId", GeneratorId.of.__func__)))
    monkeypatch.setattr(Square, "_trusted", classmethod(counted("Square", Square._trusted.__func__)))
    monkeypatch.setattr(Square, "__init__", counted("Square", Square.__init__))
    assert main(["replay", "--log", path]) == 0
    assert main(["verify", "--n", "5", "--r", "3"]) == 0
    # the coset oracle reads the relation families the replay read
    assert main(["verify", "--n", "5", "--r", "3", "--with-coset-oracle"]) == 0
    assert made == []
    # the stand-ins count: present builds one presentation
    assert main(["present", "--n", "5", "--r", "3"]) == 0
    capsys.readouterr()
    assert made.count("build_presentation") == 1 and "GeneratorId" in made


def test_reading_and_replaying_a_log_parses_no_text(monkeypatch, tmp_path, capsys):
    path = tmp_path / "log.json"
    assert main(["reduce", "--n", "5", "--r", "3", "--log", str(path)]) == 0
    parsed = []

    def counted(cls, real):
        def parse(*args, **kwargs):
            parsed.append(cls.__name__)
            return real(*args, **kwargs)

        return parse

    for cls in (Partition, Subset):
        monkeypatch.setattr(cls, "parse", counted(cls, cls.parse))
    assert main(["replay", "--log", str(path)]) == 0
    # a tampered log too: a square of another kernel, which the replay refuses
    text = path.read_text()
    head, tail = text.split('"square":[', 1)
    first, rest = tail.split(",", 1)
    path.write_text(head + '"square":[' + str((int(first) + 1) % 25) + "," + rest)
    assert main(["replay", "--log", str(path)]) == 4
    capsys.readouterr()
    assert parsed == []
    # the stand-ins count
    assert Partition.parse("{{1},{2,3}}") and Subset.parse("{1,2}", 3) and parsed == ["Partition", "Subset"]
