"""The benchmark's own tests: failures are counted as failed operations, never as passes.

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import run  # noqa: E402
import trace_run  # noqa: E402

ENV = run.child_env(0)


def cli(argv, workdir, checker):
    out, *_ = run.run_command(argv, workdir, ENV)
    return out, checker.check(out)


def test_trust_loop_passes_then_tampered_log_fails(tmp_path):
    checker = gate.Gate()
    reduce = ["reduce", "--n", "5", "--r", "3", "--log", "l.json", "--format", "json"]
    replay = ["replay", "--log", "l.json", "--format", "json"]
    assert cli(reduce, tmp_path, checker)[1] == []
    assert cli(replay, tmp_path, checker)[1] == []

    doc = json.loads((tmp_path / "l.json").read_text())
    discharges = [s for s in doc["steps"] if s["rule"] == "discharge"]
    discharges[1]["pz"] = discharges[0]["pz"]  # one relation discharged twice, another never
    (tmp_path / "l.json").write_text(json.dumps(doc))
    out, problems = cli(replay, tmp_path, checker)
    assert out.exit_code == 4 and problems
    assert (checker.attempted, checker.failed) == (3, 1)


def test_wrong_counts_fail(tmp_path):
    checker = gate.Gate()
    stats = ["stats", "--n", "5", "--r", "3", "--format", "json"]
    out, problems = cli(stats, tmp_path, checker)
    assert problems == []
    doc = json.loads(out.stdout)
    doc["partitions"] += 1
    wrong = gate.outcome_from_bytes(stats, 0, json.dumps(doc).encode(), tmp_path)
    assert any("partitions" in p for p in gate.Gate().check(wrong))

    squares = ["squares", "--n", "5", "--r", "3", "--only-singular"]
    out, problems = cli(squares, tmp_path, checker)
    assert problems == [] and out.stdout_lines == doc["singular_total"]
    short = gate.outcome_from_bytes(squares, 0, b'{"x":1}\n' * (out.stdout_lines - 1), tmp_path)
    assert any("singular records" in p for p in checker.check(short))
    assert (checker.attempted, checker.failed) == (3, 1)


def test_nonzero_exit_and_changed_output_fail(tmp_path):
    checker = gate.Gate()
    out, problems = cli(["verify", "--n", "4", "--r", "3", "--format", "json"], tmp_path, checker)
    assert out.exit_code == 2 and problems

    verify = ["verify", "--n", "4", "--r", "2", "--with-coset-oracle", "--format", "json"]
    out, problems = cli(verify, tmp_path, checker)
    assert problems == []
    changed = gate.outcome_from_bytes(verify, 0, out.stdout + b"\n", tmp_path)
    assert any("differ" in p for p in checker.check(changed))
    assert (checker.attempted, checker.failed) == (3, 2)


def test_closed_forms():
    assert [gate.stirling2(7, r) for r in range(1, 6)] == [1, 63, 301, 350, 140]
    assert gate.generator_count(7, 4) == 2240
    assert [gate.coxeter_relation_count(r) for r in (2, 3, 4, 5)] == [1, 3, 6, 10]


def test_tracer_self_time_and_generators():
    tr = trace_run.Tracer()
    inner = tr.wrap("inner", lambda: sum(range(1000)))
    gen = tr.wrap("gen", lambda: (inner() for _ in range(3)))
    outer = tr.wrap("outer", lambda: list(gen()))
    outer()
    assert not tr.stack
    assert tr.names.count("inner") == 3 and tr.names.count("gen") == 5  # call + 4 resumptions
    dur, self_t = trace_run.self_times(tr)
    for i, name in enumerate(tr.names):
        assert 0 <= self_t[i] <= dur[i] + 1e-9
        if tr.parent[i] >= 0:
            p = tr.parent[i]
            assert tr.start[p] <= tr.start[i] <= tr.end[i] <= tr.end[p]
    assert all(tr.names[tr.parent[i]] == "gen" for i, n in enumerate(tr.names) if n == "inner")


def test_benchmark_json_lists_what_the_runners_report():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["end_to_end"]] == [name for name, _ in run.END_TO_END]
    assert [m["unit"] for m in bench["end_to_end"]] == [unit for _, unit in run.END_TO_END]
    assert [m["name"] for m in bench["per_layer"]] == [name for name, _ in trace_run.PER_LAYER]
    assert [m["unit"] for m in bench["per_layer"]] == [unit for _, unit in trace_run.PER_LAYER]
    assert [w["name"] for w in bench["workloads"]] == list(gate.PLAN["workloads"])


@pytest.mark.parametrize("workload", list(gate.PLAN["workloads"]))
def test_every_workload_command_is_checked(workload):
    checker = gate.Gate()
    for argv in gate.workload_commands(workload):
        assert argv[0] in ("stats", "squares", "reduce", "replay", "verify")
        assert hasattr(checker, "_" + argv[0])
