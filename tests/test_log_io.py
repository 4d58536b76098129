"""Discharge steps as ints: the streaming log writer, the reading hook, and
what the benchmark's trace tool reads off a step.

The writer must give the bytes of the one-shot encoder, and a log read
through :class:`DischargeHook` must replay exactly as the same text read
without it, whatever shape its discharge steps (or anything made to look
like one) have.
"""

import copy
import io
import json
import tracemalloc

import pytest

import igmax.pipeline as pipeline_module
import igmax.squares as squares_module
from igmax.cli import main
from igmax.errors import VerificationFailed
from igmax.pipeline import (
    RULES,
    Derivation,
    DerivationLog,
    DerivationStep,
    DischargeHook,
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
# the reading hook
# ---------------------------------------------------------------------------


def read_plain(text):
    """The log as a parser without the hook reads it: a report or an error."""
    try:
        return replay_log(DerivationLog.from_json(json.loads(text)))
    except VerificationFailed as exc:
        return f"VerificationFailed: {exc}"


def read_hooked(text):
    try:
        return replay_log(DerivationLog.from_json(json.loads(text, object_hook=DischargeHook())))
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


def as_plain(doc):
    """A hooked parse with its DischargeSteps read back as the plain parser's dicts."""
    if type(doc) is dict and type(doc.get("steps")) is list:
        return {**doc, "steps": [st.to_json() if type(st) is DischargeStep else st for st in doc["steps"]]}
    return doc


@pytest.mark.parametrize("tamper", list(TAMPERS))
def test_the_hook_reads_a_log_as_the_plain_parser_does(five_three, tamper):
    # keys stay in the order the writer put them, tampered ones in theirs;
    # the hook only swaps equal strings for one another and gives back every
    # dict it read as a step anywhere but in the steps, so the documents are
    # equal too
    doc = json.loads(written(five_three))
    TAMPERS[tamper](doc)
    text = json.dumps(doc)
    assert as_plain(json.loads(text, object_hook=DischargeHook())) == json.loads(text)
    assert read_hooked(text) == read_plain(text)


def test_the_hook_reads_the_writer_s_discharge_steps(five_three):
    doc = json.loads(written(five_three), object_hook=DischargeHook())
    assert [st for st in doc["steps"] if type(st) is DischargeStep] == list(range(five_three.meta["relations"]))
    assert type(doc["steps"][0]) is dict
    assert read_hooked(written(five_three)).ok


def test_the_hook_gives_back_the_dicts_it_made_elsewhere(five_three):
    doc = copy.deepcopy(five_three.to_json())
    as_data(doc)
    in_meta(doc)
    back = json.loads(json.dumps(doc, sort_keys=True), object_hook=DischargeHook())
    steps = back.pop("steps")
    assert back == {key: value for key, value in doc.items() if key != "steps"}
    assert [st for st in steps if type(st) is not DischargeStep] == [
        sd for sd in doc["steps"] if sd["rule"] != "discharge"
    ]
    assert type(back["meta"]["extra"]) is dict
    assert type(steps[first_index(doc, "corner")]["data"]) is dict


def shared_texts(doc):
    """Every rule string and every string of a witness square or a letter,
    discharge steps aside."""
    out = []
    for sd in doc["steps"]:
        if type(sd) is DischargeStep or sd["rule"] == "discharge":
            continue
        out.append(sd["rule"])
        out.extend(sd.get("square", ()))
        for side in ("lhs", "rhs"):
            for letter in sd.get("conclusion", {}).get(side, ()):
                out.extend(letter[:2])
    return out


def test_the_hook_keeps_one_string_per_text(five_three):
    hook = DischargeHook()
    texts = shared_texts(json.loads(written(five_three), object_hook=hook))
    assert len(texts) > 3 * len(set(texts))
    assert len({id(t) for t in texts}) == len(set(texts))
    assert set(hook.texts) == set(texts)
    # the plain parser makes one string per occurrence
    assert len({id(t) for t in shared_texts(json.loads(written(five_three)))}) == len(texts)


@pytest.mark.parametrize("hooked", [False, True])
def test_from_json_consumes_the_steps(five_three, hooked):
    doc = json.loads(written(five_three), object_hook=DischargeHook() if hooked else None)
    count = len(doc["steps"])
    back = DerivationLog.from_json(doc)
    assert doc["steps"] == []
    assert len(back) == count == len(five_three)
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
    back = DerivationLog.from_json(json.loads(written(five_three), object_hook=DischargeHook()))
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
    assert (after - before) / relations < 64


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


def test_reading_a_log_peaks_under_2_97_mb():
    # one string per kernel or image text and the steps consumed as they
    # are read: 2.70 MB, against 5.19 MB with neither; steps of ids, one
    # tuple per letter: 2.69 MB, and the bound is that plus 10%
    text = written(run_pipeline(6, 3)[1])
    peak = traced_peak(lambda: DerivationLog.from_json(json.loads(text, object_hook=DischargeHook())))
    assert peak < 2.97 * 2**20


def test_run_pipeline_peaks_under_2_7_mb():
    # the index built cold, every kernel, image, generator and square made
    # once: 2.81 MB, against 4.46 MB when each use built its own; labels
    # kept on the index and steps of ids: 2.45 MB, and the bound is that
    # plus 10%
    squares_module._singular_index.cache_clear()
    peak = traced_peak(lambda: run_pipeline(6, 3))
    assert peak < 2.7 * 2**20
