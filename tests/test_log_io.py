"""Discharge steps in runs: the streaming log writer, the chunked reader,
and what the benchmark's trace tool reads off a step.

The writer must give the bytes of the one-shot encoder, and a log read
through :func:`read_log` must be the log ``json.loads`` gives, step for step
and byte for byte when written, or fail with json's message, whatever shape
its discharge steps (or anything made to look like one) have, whatever its
layout and however its text is split into reads.
"""

import copy
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import igmax
import igmax.replay as replay_module
import igmax.squares as squares_module
from igmax.cli import main
from igmax.errors import VerificationFailed
from igmax.pipeline import Derivation, run_pipeline
from igmax.replay import (
    RULES,
    DerivationLog,
    DischargeStep,
    read_log,
    replay_log,
)
from igmax.presentation import build_presentation

LADDER = [(n, r) for n in range(3, 7) for r in range(1, n - 1)]


def reference_text(log):
    return json.dumps(log.to_json(), sort_keys=True, separators=(",", ":")) + "\n"


def written(log):
    fh = io.StringIO()
    log.write(fh)
    return fh.getvalue()


@pytest.fixture(scope="module")
def five_three():
    return run_pipeline(5, 3)[1]


# ---------------------------------------------------------------------------
# the writer
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n,r", LADDER)
def test_writer_gives_the_encoder_bytes(n, r):
    log = run_pipeline(n, r)[1]
    assert written(log) == reference_text(log)


def hand_made_logs(log):
    """Logs of other step orders than the producer's, each with a label."""
    others = [st for st in log.steps if type(st) is not DischargeStep]
    discharges = [st for st in log.steps if type(st) is DischargeStep]

    def like(steps):
        return DerivationLog(n=log.n, r=log.r, steps=list(steps), final=log.final, meta=dict(log.meta))

    interleaved = []
    for i, st in enumerate(others):
        interleaved.append(st)
        interleaved.extend(discharges[3 * i: 3 * i + (i % 4)])
    return {
        "no discharge step": like(others),
        "only discharge steps": like(discharges),
        "discharge steps between other steps": like(interleaved),
        "a discharge step out of order": like(others[:5] + [DischargeStep(4)] + discharges[:9] + others[5:]),
        "no step": like([]),
        "empty meta and final": DerivationLog(n=log.n, r=log.r, steps=list(log.steps)),
    }


@pytest.mark.parametrize("chunk", [1, 3, 1024])
def test_writer_gives_the_encoder_bytes_on_hand_made_logs(five_three, monkeypatch, chunk):
    # a chunk of 1 or 3 steps splits every run of discharge steps (and of
    # other steps) into many writes
    monkeypatch.setattr(replay_module, "WRITE_CHUNK", chunk)
    for what, log in hand_made_logs(five_three).items():
        assert written(log) == reference_text(log), what


def test_writer_splits_a_long_run_into_chunks(five_three, monkeypatch):
    monkeypatch.setattr(replay_module, "WRITE_CHUNK", 7)
    run = sum(type(st) is DischargeStep for st in five_three.steps)
    assert run > 7
    writes = []

    class Recorder(io.StringIO):
        def write(self, text):
            writes.append(text)
            return super().write(text)

    fh = Recorder()
    five_three.write(fh)
    assert fh.getvalue() == reference_text(five_three)
    longest = max(text.count('"rule":"discharge"') for text in writes)
    assert longest == 7


# ---------------------------------------------------------------------------
# the chunked reader
# ---------------------------------------------------------------------------


def as_read(doc):
    """The log ``DerivationLog.from_json`` makes of ``doc``, as its written
    text and its steps, or the error it raises."""
    try:
        log = DerivationLog.from_json(doc)
    except VerificationFailed as exc:
        return f"VerificationFailed: {exc}"
    return written(log), list(log.steps)


def read_plain(text):
    """``text`` read by json.loads, a failure as ``igmax replay`` reported it."""
    try:
        doc = json.loads(text)
    except ValueError as exc:
        return f"VerificationFailed: malformed derivation log: {exc}"
    return as_read(doc)


def read_streamed(text):
    try:
        return as_read(read_log(io.StringIO(text)))
    except VerificationFailed as exc:
        return f"VerificationFailed: {exc}"


DISCHARGE = {"pz": 1, "rule": "discharge"}


def first_index(doc, rule):
    return next(i for i, sd in enumerate(doc["steps"]) if sd["rule"] == rule)


def extra_key(doc):
    doc["steps"][first_index(doc, "discharge")]["extra"] = 1


def rule_first(doc):
    i = first_index(doc, "discharge")
    doc["steps"][i] = {"rule": "discharge", "pz": doc["steps"][i]["pz"]}


def in_meta(doc):
    doc["meta"]["extra"] = dict(DISCHARGE)


def as_meta(doc):
    doc["meta"] = dict(DISCHARGE)


def in_final(doc):
    doc["final"]["relations"][0]["lhs"][0][1] = dict(DISCHARGE)


def as_final(doc):
    doc["final"] = dict(DISCHARGE)


def as_data(doc):
    doc["steps"][first_index(doc, "corner")]["data"] = dict(DISCHARGE)


def in_data(doc):
    doc["steps"][first_index(doc, "corner")]["data"]["extra"] = [dict(DISCHARGE)]


def as_exponent(doc):
    # an exponent of 1 turned into a dict that an int subclass would equal
    doc["steps"][first_index(doc, "middle")]["conclusion"]["lhs"][0][1] = dict(DISCHARGE)


def as_premise(doc):
    i = first_index(doc, "transitive")
    doc["steps"][i]["premises"][0] = {"pz": doc["steps"][i]["premises"][0], "rule": "discharge"}


def as_rule(doc):
    doc["steps"][first_index(doc, "middle")]["rule"] = dict(DISCHARGE)


def as_rule_rule_first(doc):
    # read back in the other key order, the dict would print differently
    doc["steps"][first_index(doc, "middle")]["rule"] = {"rule": "discharge", "pz": 1}


def as_version(doc):
    doc["version"] = dict(DISCHARGE)


def as_steps(doc):
    doc["steps"] = dict(DISCHARGE)


def in_nested_log(doc):
    doc["meta"]["copy"] = copy.deepcopy(doc)


TAMPERS = {
    "extra key": extra_key,
    "rule key first": rule_first,
    "inside meta": in_meta,
    "as meta": as_meta,
    "inside final": in_final,
    "as final": as_final,
    "as a step's data": as_data,
    "inside a step's data": in_data,
    "as an exponent": as_exponent,
    "as a premise": as_premise,
    "as a rule": as_rule,
    "as a rule, rule key first": as_rule_rule_first,
    "as the version": as_version,
    "as the steps": as_steps,
    "a log inside meta": in_nested_log,
}
for value in (True, False, 1.0, "1", None):
    TAMPERS[f"pz {value!r}"] = lambda doc, value=value: doc["steps"][first_index(doc, "discharge")].update(
        pz=value
    )


@pytest.mark.parametrize("tamper", list(TAMPERS))
def test_the_hook_reads_a_log_as_the_plain_parser_does(five_three, tamper):
    # read_log and json.loads give the same log, or the same failure, and
    # the two logs replay alike
    doc = json.loads(written(five_three))
    TAMPERS[tamper](doc)
    for text in (json.dumps(doc), json.dumps(doc, sort_keys=True, separators=(",", ":"))):
        plain = read_plain(text)
        assert read_streamed(text) == plain
        if type(plain) is tuple:
            logs = [DerivationLog.from_json(d) for d in (json.loads(text), read_log(io.StringIO(text)))]
            assert replay_log(logs[0]) == replay_log(logs[1])


LAYOUTS = {
    "written": written,
    "json.dumps": lambda log: json.dumps(log.to_json()),  # discharge objects rule first
    "indent 2": lambda log: json.dumps(log.to_json(), indent=2),
    "sorted, indent 2": lambda log: json.dumps(log.to_json(), indent=2, sort_keys=True),
}


@pytest.mark.parametrize("chunk", [1, 7, 4096])
@pytest.mark.parametrize("layout", list(LAYOUTS))
def test_read_log_gives_the_log_json_loads_gives(five_three, monkeypatch, layout, chunk):
    # reads of 1 and 7 characters split every step, number and run of
    # discharge text; reads of 4096 split runs of the writer's discharge text
    monkeypatch.setattr(replay_module, "READ_CHUNK", chunk)
    text = LAYOUTS[layout](five_three)
    assert read_streamed(text) == read_plain(text) == (written(five_three), list(five_three.steps))


def test_read_log_reads_the_writer_s_discharge_run_as_one_range(five_three, monkeypatch):
    # the run's 394 steps are split across reads of 1024 characters, read a
    # regex match at a time, and joined again
    monkeypatch.setattr(replay_module, "READ_CHUNK", 1024)
    text = written(five_three)
    runs = [sd for sd in read_log(io.StringIO(text))["steps"] if type(sd) is range]
    assert len(runs) > 3
    back = DerivationLog.from_json(read_log(io.StringIO(text)))
    assert [part for part in back.steps.parts if type(part) is range] == [range(five_three.meta["relations"])]


def test_read_log_hands_on_the_steps_after_format_n_and_r(five_three):
    doc = five_three.to_json()
    lazy = read_log(io.StringIO(written(five_three)))
    assert not isinstance(lazy["steps"], list)
    assert "version" not in lazy  # the writer puts it after the steps
    assert read_streamed(written(five_three))[0] == written(five_three)
    # steps before n are read whole, then the rest
    steps_first = json.dumps({"steps": doc["steps"], **{k: v for k, v in doc.items() if k != "steps"}})
    eager = read_log(io.StringIO(steps_first))
    assert isinstance(eager["steps"], list) and eager["version"] == 2
    assert read_streamed(steps_first) == read_plain(steps_first)
    # json.loads keeps the last value of a key that repeats; read_log refuses it
    text = written(five_three)
    repeated = text[:-2] + ',"n":6}\n'
    assert read_streamed(repeated) == "VerificationFailed: malformed derivation log: key 'n' repeats"


@pytest.mark.parametrize("chunk", [7, 4096])
def test_read_log_reports_a_cut_text_as_json_loads_does(monkeypatch, chunk):
    monkeypatch.setattr(replay_module, "READ_CHUNK", chunk)
    text = json.dumps(run_pipeline(4, 2)[1].to_json(), indent=1, sort_keys=True)
    cuts = [*range(0, len(text), 17), *range(len(text) - 40, len(text))]
    for cut in cuts:
        assert read_streamed(text[:cut]) == read_plain(text[:cut]), cut
    for bad in ("", "[1,]", '{"n":1,}', '{"n" 1}', '{"n":1} x', '{"steps":[{"pz":01,"rule":"discharge"}]}', "\ufeff{}"):
        assert read_streamed(bad) == read_plain(bad)


@pytest.mark.parametrize("streamed", [False, True])
def test_from_json_consumes_the_steps(five_three, streamed):
    doc = read_log(io.StringIO(written(five_three))) if streamed else json.loads(written(five_three))
    count = len(five_three)
    back = DerivationLog.from_json(doc)
    assert list(doc["steps"]) == []
    assert len(back) == count
    assert written(back) == written(five_three)


def retexted(five_three, slot, new):
    """The written log with the first kernel id (``slot`` 0) or the first
    image id (1) of the last bottom step's square replaced by ``new``, a
    kernel or image text as format version 1 wrote it, or, when ``new`` is
    None, by another id of the log that keeps the square's corners
    generators.  The old id occurs in other squares of the log too."""
    doc = json.loads(written(five_three))
    index = squares_module._singular_index(five_three.n, five_three.r)
    squares = [sd["square"] for sd in doc["steps"] if "square" in sd]
    square = next(sd for sd in reversed(doc["steps"]) if sd["rule"] == "bottom")["square"]
    at = 2 * slot
    old = square[at]
    assert sum(other[at] == old for other in squares) > 1
    if new is None:
        # an id from another square of the log under which all four corners
        # stay generators
        def corners_are_generators(sq):
            p, q, a, b = sq
            return all(i in index.generator_of[k] for k in (p, q) for i in (a, b))

        new = next(
            other[at] for other in squares
            if other[at] != old and corners_are_generators(square[:at] + [other[at]] + square[at + 1:])
        )
    square[at] = new
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


@pytest.mark.parametrize(
    "index, new",
    [
        (0, "{{1},{2}}"),  # does not cover [1, 5]
        (0, "{{1,2},{2,3,4,5}}"),  # 2 in two blocks
        (1, "{1,1,2}"),  # a repeated element
        (1, "{1,2,9}"),  # 9 outside [1, 5]
        (0, None),  # a kernel of the log, in the wrong square
        (1, None),  # an image of the log, in the wrong square
    ],
)
def test_replay_cli_rejects_a_tampered_kernel_or_image_text(five_three, tmp_path, capsys, index, new):
    # version 2 cites kernels and images by id: a text where an id belongs
    # is malformed, and another id of the log fails the replay
    path = tmp_path / "log.json"
    path.write_text(retexted(five_three, index, new))
    assert main(["replay", "--log", str(path)]) == 4
    captured = capsys.readouterr()
    if new is not None:
        assert captured.out == ""
        assert captured.err.startswith("error: malformed derivation log: InvalidParameters: square [")
        assert "must be four int ids" in captured.err
    else:
        assert captured.err == ""
        assert "replay: FAIL" in captured.out


def last_bottom(doc):
    return next(sd for sd in reversed(doc["steps"]) if sd["rule"] == "bottom")


def with_generator_id(g):
    def tamper(doc, index):
        last_bottom(doc)["conclusion"]["lhs"][0][0] = g(index)
        return "err", "is not a generator id: the ids run from 0 to 89"

    return tamper


def with_exponent(e):
    def tamper(doc, index):
        last_bottom(doc)["conclusion"]["lhs"][0][1] = e
        return "err", f"{e!r} is not an exponent: an exponent is the int 1 or -1"

    return tamper


def with_square_entry(at, value, found):
    def tamper(doc, index):
        square = last_bottom(doc)["square"]
        square[at] = value(index, square)
        return "err", found

    return tamper


def not_transversal(index, square):
    # an image of (5,3) that is not a transversal of the square's first kernel
    return next(a for a in range(len(index.subsets)) if a not in index.generator_of[square[0]])


def degenerate(doc, index):
    i = next(i for i, sd in enumerate(doc["steps"]) if sd["rule"] == "bottom")
    square = doc["steps"][i]["square"]
    square[3] = square[2]
    return "out", f"step {i}: witness square is degenerate"


def with_canonical(value):
    def tamper(doc, index):
        i = len(doc["steps"]) - 1
        data = doc["steps"][i]["data"]
        assert doc["steps"][i]["rule"] == "coxeter-match" and len(data["canonical"]) == 2
        data["canonical"] = value(data["canonical"])
        return "out", f"step {i}: stated canonical pairs are not the expected ones"

    return tamper


ID_TAMPERS = {
    "generator id out of range": with_generator_id(lambda index: len(index.pairs)),
    "generator id negative": with_generator_id(lambda index: -1),
    "generator id a bool": with_generator_id(lambda index: True),
    "generator id a float": with_generator_id(lambda index: 1.0),
    **{f"exponent {e!r}": with_exponent(e) for e in (0, 2, -2, True, 1.0)},
    "kernel id out of range": with_square_entry(
        0, lambda index, sq: len(index.parts), "needs kernel ids from 0 to 24 and image ids from 0 to 9"
    ),
    "image id negative": with_square_entry(
        3, lambda index, sq: -1, "needs kernel ids from 0 to 24 and image ids from 0 to 9"
    ),
    "kernel id a bool": with_square_entry(1, lambda index, sq: True, "must be four int ids"),
    "image id a float": with_square_entry(2, lambda index, sq: float(sq[2]), "must be four int ids"),
    "a pair that is not transversal": with_square_entry(2, not_transversal, "is not a transversal of kernel"),
    "a degenerate square": degenerate,
    "canonical ids reversed": with_canonical(lambda ids: ids[::-1]),
    "canonical ids as floats": with_canonical(lambda ids: [float(g) for g in ids]),
    "canonical ids out of range": with_canonical(lambda ids: [g + 90 for g in ids]),
    "canonical ids as pairs of texts": with_canonical(
        lambda ids: [["{{1,3,4},{2},{5}}", "{1,2,5}"], ["{{1},{2,3,4},{5}}", "{1,2,5}"]]
    ),
}


@pytest.mark.parametrize("tamper", list(ID_TAMPERS))
def test_replay_cli_rejects_a_tampered_id(five_three, tmp_path, capsys, tamper):
    # a letter's generator id and a square's kernel and image ids are ints
    # inside the (5,3) index (90 generators, 25 kernels, 10 images) whose
    # corners are generators, and a letter's exponent is the int 1 or -1,
    # else the log is malformed; a degenerate square or other canonical ids
    # fail the replay
    doc = json.loads(written(five_three))
    stream, found = ID_TAMPERS[tamper](doc, squares_module._singular_index(5, 3))
    path = tmp_path / "log.json"
    path.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")))
    assert main(["replay", "--log", str(path)]) == 4
    captured = capsys.readouterr()
    if stream == "err":
        assert captured.out == ""
        assert captured.err.startswith("error: malformed derivation log: InvalidParameters: ")
        assert found in captured.err
    else:
        assert captured.err == ""
        assert f"  {found}\n" in captured.out and captured.out.endswith("replay: FAIL\n")


@pytest.mark.parametrize("entry", ["5", "[5]", '"discharge"'])
def test_replay_cli_reports_a_bare_entry_in_steps(five_three, tmp_path, capsys, entry):
    text = written(five_three)
    head, tail = text.split('"steps":[', 1)
    path = tmp_path / "log.json"
    path.write_text(head + '"steps":[' + entry + "," + tail)
    assert main(["replay", "--log", str(path)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: malformed derivation log: TypeError: ")


def test_replay_cli_reports_a_log_that_is_not_utf_8(five_three, tmp_path, capsys):
    path = tmp_path / "log.json"
    path.write_bytes(written(five_three)[:100].encode() + b"\xff")
    assert main(["replay", "--log", str(path)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: malformed derivation log: 'utf-8' codec can't decode byte 0xff")


def test_replay_cli_reads_a_log_of_rule_first_discharge_steps(five_three, tmp_path, capsys):
    # json.dumps without sort_keys writes "rule" first: the parser's general path
    path = tmp_path / "log.json"
    path.write_text(json.dumps(five_three.to_json()))
    assert main(["replay", "--log", str(path), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True


@pytest.mark.parametrize(
    "record",
    [
        '{"extra":1,"pz":0,"rule":"discharge"}',  # the writer's key order
        '{"pz":0,"rule":"discharge","zz":1}',  # the writer's key order, the key last
        '{"rule":"discharge","pz":0,"extra":1}',  # rule first
    ],
)
def test_replay_cli_rejects_a_discharge_record_with_an_extra_key(five_three, tmp_path, capsys, record):
    # a discharge step is exactly {"pz": i, "rule": "discharge"}: any other
    # key makes the log malformed, and the message names the record
    text = written(five_three)
    assert text.count('{"pz":0,"rule":"discharge"}') == 1
    path = tmp_path / "log.json"
    path.write_text(text.replace('{"pz":0,"rule":"discharge"}', record))
    assert main(["replay", "--log", str(path)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: malformed derivation log: InvalidParameters: discharge step {")
    assert repr(json.loads(record)) in captured.err


# the keys of a step of each rule, as LOG_FORMAT.md's "Steps" table gives them
PLAIN = {"rule", "premises", "conclusion"}
STEP_KEYS = {
    **{rule: PLAIN for rule in ("middle", "top", "transitive", "rewrite", "combine")},
    **{rule: PLAIN | {"square"} for rule in ("bottom", "flush-row", "flush-column")},
    **{rule: PLAIN | {"square", "data"} for rule in ("corner", "three-quarter")},
    "coxeter-match": {"rule", "premises", "data"},
    "discharge": {"pz", "rule"},
}


@pytest.mark.parametrize("n,r", [(5, 3), (6, 3)])
def test_every_written_step_has_the_keys_of_its_rule(n, r):
    assert STEP_KEYS.keys() == set(RULES)
    steps = json.loads(written(run_pipeline(n, r)[1]))["steps"]
    for i, sd in enumerate(steps):
        assert sd.keys() == STEP_KEYS[sd["rule"]], (i, sd)
    assert {sd["rule"] for sd in steps} == set(RULES)


# ---------------------------------------------------------------------------
# what the trace tool reads off a step
# ---------------------------------------------------------------------------


def test_every_step_answers_the_trace_tool(five_three):
    # perfbench/trace_run.py counts steps by .rule and names a span per step
    back = DerivationLog.from_json(read_log(io.StringIO(written(five_three))))
    for log in (five_three, back):
        discharges = 0
        for st in log.steps:
            assert st.rule in RULES
            if st.rule == "discharge":
                assert st.conclusion is None and st.premises == () and st.square is None
                assert st.to_json() == {"rule": "discharge", "pz": discharges}
                discharges += 1
            else:
                assert st.conclusion is not None or st.rule == "coxeter-match"
        assert discharges == log.meta["relations"]


def test_discharge_steps_cost_under_64_bytes_a_relation():
    # discharge_all adds one range for the run, under 1 KB in all
    eng = Derivation(6, 3)
    pres = build_presentation(6, 3)
    for p, a in eng.index.pairs:
        eng.resolve(p, a)
    relations = pres.families.relation_count
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        eng.discharge_all()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert relations > 10_000
    assert after - before < 1024


# ---------------------------------------------------------------------------
# memory guards at (6,3)
# ---------------------------------------------------------------------------


# Each guard measures in a new interpreter, so that it reads the same alone
# as in the suite.  It measures twice there: cold, and then again warm.  A
# warm run peaks lower because it builds its tuples out of the free lists
# that the cold run filled, which tracemalloc does not see as allocations:
# filling those lists by hand before a cold run_pipeline(6, 3) takes its
# peak from 1.32 to 1.03 MB.  The cold peak counts every allocation.  Each
# bound is the peak measured plus 10%.


def fresh_peaks(script, tmp_path):
    """The lines ``script`` prints, each split into ints, run by a new
    interpreter in ``tmp_path``."""
    src = str(Path(igmax.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return [list(map(int, line.split())) for line in done.stdout.splitlines()]


READ = """
import tracemalloc
from igmax.replay import DerivationLog, read_log
from igmax.squares import _singular_index

index = _singular_index(6, 3)
index.pairs, index.generator_of
for _ in range(2):
    log = None
    tracemalloc.start()
    with open("log.json") as fh:
        log = DerivationLog.from_json(read_log(fh))
    print(*tracemalloc.get_traced_memory())
    tracemalloc.stop()
"""


def test_reading_a_log_peaks_under_0_63_mb(tmp_path):
    # read_log and from_json, each step decoded as it is parsed: 0.75 MB
    # for a text of 0.87 MB, against 2.69 MB for json.loads with an
    # object_hook; with each fact concluded once, 0.57 MB for a text of
    # 0.75 MB.  With ids in the log (version 2) the text is 0.60 MB: cold,
    # 0.80 MB, of which 0.63 MB is the log it makes, and warm 0.55 MB (0.84
    # and 0.58 MB for the version 1 text).  The text is never held whole:
    # beyond the log that is kept, the read holds less than the text.
    (path := tmp_path / "log.json").write_text(written(run_pipeline(6, 3)[1]))
    text = len(path.read_text())
    (cold_kept, cold), (_, warm) = fresh_peaks(READ, tmp_path)
    assert cold - cold_kept < text
    assert warm < text
    assert cold < 0.88 * 2**20
    assert warm < 0.63 * 2**20


CUT = """
import tracemalloc
from igmax.errors import VerificationFailed
from igmax.replay import DerivationLog, read_log

tracemalloc.start()
try:
    with open("log.json") as fh:
        DerivationLog.from_json(read_log(fh))
except VerificationFailed as exc:
    print(int(str(exc).startswith("malformed derivation log: ")), tracemalloc.get_traced_memory()[1])
tracemalloc.stop()
"""


def test_reading_a_log_cut_short_peaks_under_5_times_its_text(tmp_path):
    # a cut text fails at its end, where json.load reads it again for its
    # message: 3.4 times the text of 0.60 MB, against 11.5 times while that
    # read built every step again as a dict
    text = written(run_pipeline(6, 3)[1])[:-1000]
    (tmp_path / "log.json").write_text(text)
    ((failed, peak),) = fresh_peaks(CUT, tmp_path)
    assert failed
    assert peak < 5 * len(text)


PIPELINE = """
import tracemalloc
import igmax.squares as squares_module
from igmax.pipeline import run_pipeline

for _ in range(2):
    squares_module._singular_index.cache_clear()
    tracemalloc.start()
    run_pipeline(6, 3)
    print(tracemalloc.get_traced_memory()[1])
    tracemalloc.stop()
"""


def test_run_pipeline_peaks_under_1_11_mb(tmp_path):
    # the index built cold, every kernel, image, generator and square made
    # once: 2.81 MB, against 4.46 MB when each use built its own; labels
    # kept on the index and steps of ids: 2.45 MB; measured again with
    # each fact concluded once, 1.01 MB (1.08 MB with the repeats).  In a
    # new interpreter: 1.32 MB cold, 1.02 MB warm
    (cold,), (warm,) = fresh_peaks(PIPELINE, tmp_path)
    assert cold < 1.46 * 2**20
    assert warm < 1.11 * 2**20


REPLAY = """
import tracemalloc
from igmax.pipeline import run_pipeline
from igmax.replay import replay_log

_, log = run_pipeline(6, 3)
_, longer = run_pipeline(6, 3)
for _ in range(10):
    longer.steps.add_run(range(log.meta["relations"]))
replay_log(log)
for replayed in (log, longer):
    tracemalloc.start()
    report = replay_log(replayed)
    print(tracemalloc.get_traced_memory()[1], int(report.ok), report.discharged, report.steps_checked)
    tracemalloc.stop()
"""


def test_the_replay_memory_does_not_grow_with_the_discharge_count(tmp_path):
    # LOG_FORMAT.md lets a relation be discharged more than once: the same
    # log with ten more runs of every relation passes as well, and the
    # replay, which keeps its failures and its discharged runs only, peaks
    # alike on both (72.5 KB each, against 147 KB and 300 KB while it held
    # a byte per step and per relation)
    (peak, ok, discharged, steps), (longer_peak, longer_ok, longer_discharged, longer_steps) = fresh_peaks(
        REPLAY, tmp_path
    )
    assert ok and longer_ok and discharged == longer_discharged
    assert longer_steps == steps + 10 * discharged
    assert abs(longer_peak - peak) < 4096
