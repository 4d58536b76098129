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
import tracemalloc

import pytest

import igmax.logreader as logreader_module
import igmax.pipeline as pipeline_module
import igmax.squares as squares_module
from igmax.cli import main
from igmax.errors import VerificationFailed
from igmax.logreader import read_log
from igmax.pipeline import (
    RULES,
    Derivation,
    DerivationLog,
    DerivationStep,
    DischargeStep,
    replay_log,
    run_pipeline,
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
        "a discharge step as a DerivationStep": like(
            others[:5] + [DerivationStep("discharge", None, (), None, {"pz": 4})] + discharges[:9] + others[5:]
        ),
        "no step": like([]),
        "empty meta and final": DerivationLog(n=log.n, r=log.r, steps=list(log.steps)),
    }


@pytest.mark.parametrize("chunk", [1, 3, 1024])
def test_writer_gives_the_encoder_bytes_on_hand_made_logs(five_three, monkeypatch, chunk):
    # a chunk of 1 or 3 steps splits every run of discharge steps (and of
    # other steps) into many writes
    monkeypatch.setattr(pipeline_module, "WRITE_CHUNK", chunk)
    for what, log in hand_made_logs(five_three).items():
        assert written(log) == reference_text(log), what


def test_writer_splits_a_long_run_into_chunks(five_three, monkeypatch):
    monkeypatch.setattr(pipeline_module, "WRITE_CHUNK", 7)
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
    doc["steps"][first_index(doc, "middle")]["conclusion"]["lhs"][0][2] = dict(DISCHARGE)


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
    monkeypatch.setattr(logreader_module, "READ_CHUNK", chunk)
    text = LAYOUTS[layout](five_three)
    assert read_streamed(text) == read_plain(text) == (written(five_three), list(five_three.steps))


def test_read_log_reads_the_writer_s_discharge_run_as_one_range(five_three, monkeypatch):
    # the run's 394 steps are split across reads of 1024 characters, read a
    # regex match at a time, and joined again
    monkeypatch.setattr(logreader_module, "READ_CHUNK", 1024)
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
    assert isinstance(eager["steps"], list) and eager["version"] == 1
    assert read_streamed(steps_first) == read_plain(steps_first)
    # json.loads keeps the last value of a key that repeats; read_log refuses it
    text = written(five_three)
    repeated = text[:-2] + ',"n":6}\n'
    assert read_streamed(repeated) == "VerificationFailed: malformed derivation log: key 'n' repeats"


@pytest.mark.parametrize("chunk", [7, 4096])
def test_read_log_reports_a_cut_text_as_json_loads_does(monkeypatch, chunk):
    monkeypatch.setattr(logreader_module, "READ_CHUNK", chunk)
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


def retexted(five_three, index, new):
    """The written log with the kernel (``index`` 0) or the image (1) of the
    first letter of the last bottom conclusion replaced by ``new``, or, when
    ``new`` is None, by the text of another letter of the log that keeps
    the pair a generator.  The old text occurs elsewhere in the log too."""
    doc = json.loads(written(five_three))
    letters = [
        letter for sd in doc["steps"] if "conclusion" in sd
        for letter in sd["conclusion"]["lhs"] + sd["conclusion"]["rhs"]
    ]
    letter = next(sd for sd in reversed(doc["steps"]) if sd["rule"] == "bottom")["conclusion"]["lhs"][0]
    old = letter[index]
    assert sum(other[index] == old for other in letters) > 1
    if new is None:
        # the other text of a letter that shares this letter's other half
        new = next(
            other[index] for other in letters
            if other[1 - index] == letter[1 - index] and other[index] != old
        )
    letter[index] = new
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


@pytest.mark.parametrize(
    "index, new",
    [
        (0, "{{1},{2}}"),  # does not cover [1, 5]
        (0, "{{1,2},{2,3,4,5}}"),  # 2 in two blocks
        (1, "{1,1,2}"),  # a repeated element
        (1, "{1,2,9}"),  # 9 outside [1, 5]
        (0, None),  # a kernel of the log, in the wrong letter
        (1, None),  # an image of the log, in the wrong letter
    ],
)
def test_replay_cli_rejects_a_tampered_kernel_or_image_text(five_three, tmp_path, capsys, index, new):
    path = tmp_path / "log.json"
    path.write_text(retexted(five_three, index, new))
    assert main(["replay", "--log", str(path)]) == 4
    captured = capsys.readouterr()
    if new is not None:
        assert captured.out == ""
        assert captured.err.startswith("error: malformed derivation log: ")
    else:
        assert captured.err == ""
        assert "replay: FAIL" in captured.out


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
                assert st.data == {"pz": discharges}
                assert st.to_json() == {"rule": "discharge", "pz": discharges}
                discharges += 1
            else:
                assert st.conclusion is not None or st.rule == "coxeter-match"
        assert discharges == log.meta["relations"]


def test_discharge_steps_cost_under_64_bytes_a_relation():
    # discharge_all adds one range for the run, under 1 KB in all
    eng = Derivation(6, 3)
    pres = build_presentation(6, 3)
    for g in pres.generators:
        eng.resolve(g.partition, g.subset)
    relations = pres.relation_count
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


def traced_peak(fn):
    """The peak of memory traced while ``fn()`` runs, in bytes; its result is dropped."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_reading_a_log_peaks_under_0_63_mb(tmp_path):
    # read_log and from_json, each step decoded as it is parsed: 0.75 MB
    # for a text of 0.87 MB, against 2.69 MB for json.loads with an
    # object_hook; with each fact concluded once, 0.57 MB for a text of
    # 0.75 MB, and the bound is that plus 10%
    text = written(run_pipeline(6, 3)[1])
    path = tmp_path / "log.json"
    path.write_text(text)

    def read():
        with open(path) as fh:
            DerivationLog.from_json(read_log(fh))

    peak = traced_peak(read)
    assert peak < len(text)  # the text is never held whole
    assert peak < 0.63 * 2**20


def test_run_pipeline_peaks_under_1_11_mb():
    # the index built cold, every kernel, image, generator and square made
    # once: 2.81 MB, against 4.46 MB when each use built its own; labels
    # kept on the index and steps of ids: 2.45 MB; measured again with
    # each fact concluded once, 1.01 MB (1.08 MB with the repeats), and
    # the bound is that plus 10%
    squares_module._singular_index.cache_clear()
    peak = traced_peak(lambda: run_pipeline(6, 3))
    assert peak < 1.11 * 2**20
