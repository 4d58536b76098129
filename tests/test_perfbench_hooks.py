"""The benchmark's trace tool must still find every igmax name it wraps."""

import importlib.util
from pathlib import Path

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
