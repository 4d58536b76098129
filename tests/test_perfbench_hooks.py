"""The benchmark's trace tool must still find every igmax name it wraps."""

import importlib.util
from pathlib import Path

import pytest

import igmax.pipeline as pipeline
import igmax.presentation as presentation
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
