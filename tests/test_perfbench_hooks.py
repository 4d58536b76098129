"""The benchmark's trace tool must still find every igmax name it wraps."""

import gc
import importlib.util
import json
import sys
import weakref
from collections import Counter
from pathlib import Path

import pytest

import igmax.pipeline as pipeline
import igmax.presentation as presentation
import igmax.squares as squares
import igmax.verification as verification

TRACE_RUN = Path(__file__).resolve().parent.parent / "perfbench" / "trace_run.py"


def test_trace_run_installs_and_uninstalls():
    spec = importlib.util.spec_from_file_location("perfbench_trace_run", TRACE_RUN)
    trace_run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace_run)
    original = verification.presentations_match
    undo = trace_run.install(trace_run.Tracer())
    try:
        assert verification.presentations_match is not original
    finally:
        trace_run.uninstall(undo)
    assert verification.presentations_match is original


@pytest.fixture()
def trace_run():
    spec = importlib.util.spec_from_file_location("perfbench_trace_run", TRACE_RUN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_run_counts_every_pipeline_rule(trace_run):
    # pipeline.steps.<rule> reads 0 for a rule the trace tool does not know
    assert trace_run.RULES == pipeline.RULES


def test_trace_run_wraps_discharge_all(trace_run):
    # pipeline.discharge_s is the time spent in this one method
    original = pipeline.Derivation.discharge_all
    undo = trace_run.install(trace_run.Tracer())
    try:
        assert pipeline.Derivation.discharge_all is not original
    finally:
        trace_run.uninstall(undo)
    assert pipeline.Derivation.discharge_all is original


def test_trace_run_sees_the_bottom_family_enumerator(trace_run):
    # squares.enumerate_singular_s is the self time of the enumerator called by
    # build_presentation; a build that bypassed the name would book it as
    # presentation.build_s
    tracer = trace_run.Tracer()
    undo = trace_run.install(tracer)
    try:
        presentation.build_presentation(5, 3)
    finally:
        trace_run.uninstall(undo)
    assert "squares.enumerate_singular_squares" in tracer.names


def test_trace_spans_every_replayed_step(trace_run, tmp_path, capsys):
    # the per-rule step counts and per-step spans of a traced reduce -> replay
    # at (5,3): a replay that stopped iterating log.steps would zero them
    import igmax.cli as cli

    path = tmp_path / "log.json"
    tracer = trace_run.Tracer()
    undo = trace_run.install(tracer)
    try:
        assert cli.main(["reduce", "--n", "5", "--r", "3", "--log", str(path)]) == 0
        assert cli.main(["replay", "--log", str(path)]) == 0
    finally:
        trace_run.uninstall(undo)
    capsys.readouterr()
    logged = Counter(sd["rule"] for sd in json.loads(path.read_text())["steps"])
    assert len(logged) > 5
    spans = Counter(
        name.removeprefix(trace_run.STEP_SPAN) for name in tracer.names if name.startswith(trace_run.STEP_SPAN)
    )
    assert spans == logged
    metrics, _ = trace_run.layer_metrics(tracer, 2, 0, 0.0)
    assert {rule: metrics[f"pipeline.steps.{rule}"] for rule in trace_run.RULES} == {
        rule: logged[rule] for rule in trace_run.RULES
    }
    assert metrics["pipeline.steps"] == sum(logged.values())


# ---------------------------------------------------------------------------
# the lookup tables are scoped to one (n, r)
# ---------------------------------------------------------------------------


def six_three_objects():
    """Weak references to the (6,3) index, its product table, and the kernels
    and images of the witness squares of a (6,3) run (its steps hold their ids)."""
    _, log = pipeline.run_pipeline(6, 3)
    index = squares._singular_index(6, 3)
    refs = [weakref.ref(index), weakref.ref(index.product_table)]
    for st in log.steps:
        if st.square is not None:
            p, q, a, b = st.square
            refs += [weakref.ref(index.parts[p]), weakref.ref(index.parts[q])]
            refs += [weakref.ref(index.subsets[a]), weakref.ref(index.subsets[b])]
    return refs


def test_no_table_outlives_its_case():
    refs = six_three_objects()
    pipeline.run_pipeline(5, 3)
    gc.collect()
    assert [ref for ref in refs if ref() is not None] == []


def test_clear_caches_empties_the_tables(trace_run):
    refs = six_three_objects()
    trace_run.clear_caches()
    assert [ref for ref in refs if ref() is not None] == []


def module_containers() -> dict:
    """The size of each dict, list and set bound at module level in igmax."""
    return {
        (name, attr): len(value)
        for name, module in list(sys.modules.items())
        if name.startswith("igmax")
        for attr, value in vars(module).items()
        if not attr.startswith("__") and type(value) in (dict, list, set)
    }


def test_no_module_level_container_escapes_clear_caches(trace_run, tmp_path):
    import igmax.cli as cli

    trace_run.clear_caches()
    before = module_containers()
    path = str(tmp_path / "log.json")
    assert cli.main(["reduce", "--n", "6", "--r", "3", "--log", path]) == 0
    assert cli.main(["replay", "--log", path]) == 0
    assert cli.main(["verify", "--n", "5", "--r", "3", "--with-coset-oracle"]) == 0
    trace_run.clear_caches()
    assert module_containers() == before
