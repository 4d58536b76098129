"""Command-line interface: output goldens, exit codes, schemas, determinism."""

import gc
import hashlib
import importlib.resources
import io
import json
import os
import subprocess
import sys
from functools import cached_property
from pathlib import Path

import jsonschema
import pytest

import igmax
import igmax.cli as cli
import igmax.pipeline as pipeline
import igmax.squares as squares_module
from igmax.cli import main
from igmax.errors import InvalidParameters
from igmax.squares import _singular_index, enumerate_squares, is_singular_sq3, square_census, square_record

GOLDEN_P = "{{1},{2,3,5},{4,7},{6}}"
GOLDEN_A = "{1,4,5,6}"


def schema(name: str) -> dict:
    path = importlib.resources.files("igmax") / "schemas" / name
    return json.loads(path.read_text())


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def igmax_env(**changes) -> dict:
    """The environment with this checkout's package first on PYTHONPATH;
    a change to None removes that variable."""
    src = str(Path(igmax.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for name, value in changes.items():
        env.pop(name, None)
        if value is not None:
            env[name] = value
    return env


# ---------------------------------------------------------------------------
# stats
# ---------------------------------------------------------------------------


def test_stats_text_golden(capsys):
    code, out, _ = run(capsys, "stats", "--n", "4", "--r", "2")
    assert code == 0
    assert out == (
        "n=4 r=2\n"
        "partitions: 7\n"
        "subsets: 6\n"
        "transversal pairs: 24\n"
        "ordered squares: 216\n"
        "proper squares: 60\n"
        "singular squares: 204 (proper 48, degenerate 156)\n"
        "singular squares, unordered proper: 12\n"
        "label spectrum:\n"
        "  (): 18\n"
        "  (1 2): 6\n"
    )


def test_stats_json_schema(capsys):
    code, out, _ = run(capsys, "stats", "--n", "4", "--r", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, schema("stats.schema.json"))
    assert doc["singular_total"] == 204
    assert doc["label_spectrum"] == {"()": 18, "(1 2)": 6}


def test_stats_deterministic(capsys):
    _, first, _ = run(capsys, "stats", "--n", "5", "--r", "3", "--format", "json")
    _, second, _ = run(capsys, "stats", "--n", "5", "--r", "3", "--format", "json")
    assert first == second


def test_stats_rejects_bad_rank(capsys):
    code, _, err = run(capsys, "stats", "--n", "3", "--r", "4")
    assert code == 2
    assert "error:" in err


def test_cap_gate(capsys):
    code, _, err = run(capsys, "stats", "--n", "13", "--r", "2")
    assert code == 2
    assert "--override-cap" in err


def test_missing_argument_is_usage(capsys):
    assert main(["stats", "--n", "4"]) == 2
    assert main(["no-such-command"]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# label
# ---------------------------------------------------------------------------


def test_label_text_golden(capsys):
    code, out, _ = run(capsys, "label", "--P", GOLDEN_P, "--A", GOLDEN_A)
    assert code == 0
    assert out == "(2 3)\n"


def test_label_json_schema(capsys):
    code, out, _ = run(
        capsys, "label", "--P", GOLDEN_P, "--A", GOLDEN_A, "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, schema("label.schema.json"))
    assert doc["label"] == "(2 3)"
    assert doc["images"] == [1, 3, 2, 4]


def test_label_infers_ground_set(capsys):
    # without --n the ground set is the largest element mentioned in P
    code, out, _ = run(capsys, "label", "--P", "{{1,3},{2}}", "--A", "{2,3}")
    assert code == 0 and out == "(1 2)\n"


def test_label_ground_set_mismatch(capsys):
    code, _, err = run(capsys, "label", "--P", GOLDEN_P, "--A", GOLDEN_A, "--n", "8")
    assert code == 3
    assert "error:" in err


def test_label_non_transversal(capsys):
    code, _, err = run(capsys, "label", "--P", "{{1,2},{3,4}}", "--A", "{1,2}")
    assert code == 3
    assert "error:" in err


def test_label_names_an_element_in_two_blocks(capsys):
    # not the order of the minima, which the repeated 1 also breaks
    code, out, err = run(capsys, "label", "--P", "{{1},{1,2}}", "--A", "{1,2}")
    assert (code, out, err) == (3, "", "error: element 1 appears in two blocks\n")


def test_label_reads_blocks_in_any_order(capsys):
    # the text's blocks are put in order of their minima; only a Partition
    # built out of that order is refused for it (tests/test_combinatorics.py)
    code, out, err = run(capsys, "label", "--P", "{{2,3},{1}}", "--A", "{1,2}")
    assert (code, err) == (0, "")
    assert out == run(capsys, "label", "--P", "{{1},{2,3}}", "--A", "{1,2}")[1]


def test_label_override_cap(capsys):
    big_p = "{" + ",".join("{%d}" % i for i in range(1, 13)) + ",{13}}"
    code, _, _ = run(capsys, "label", "--P", big_p, "--A", "{2}")
    assert code == 2  # n=13 without the override
    code, out, _ = run(
        capsys, "label", "--P", "{{1,13},%s}" % "{2}", "--A", "{2,13}",
        "--override-cap",
    )
    assert code == 3  # still validates the pair itself
    code, out, _ = run(capsys, "label", "--P", big_p, "--A", "{5}", "--override-cap")
    assert code == 3  # r=13 > n is impossible; subset size must match
    code, out, _ = run(
        capsys, "label",
        "--P", "{{1,2,3,4,5,6,7,8,9,10,11,12},{13}}",
        "--A", "{3,13}",
        "--override-cap",
    )
    assert code == 0 and out == "()\n"


# ---------------------------------------------------------------------------
# squares
# ---------------------------------------------------------------------------


def test_squares_stream(capsys):
    code, out, err = run(capsys, "squares", "--n", "4", "--r", "2")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert len(lines) == 216
    sq_schema = schema("square-record.schema.json")
    records = [json.loads(line) for line in lines]
    for rec in records:
        jsonschema.validate(rec, sq_schema)
    assert sum(1 for rec in records if rec["singular"]) == 204


def test_squares_only_singular(capsys):
    code, out, _ = run(capsys, "squares", "--n", "4", "--r", "2", "--only-singular")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 204
    assert all(json.loads(line)["singular"] for line in lines)


def test_squares_deterministic(capsys):
    _, first, _ = run(capsys, "squares", "--n", "4", "--r", "3")
    _, second, _ = run(capsys, "squares", "--n", "4", "--r", "3")
    assert first == second


@pytest.mark.parametrize(
    "n, r, only_singular",
    [
        pytest.param(n, r, only, id=f"{n}-{r}-{'only-singular' if only else 'all'}")
        for n in range(1, 7)
        for r in range(1, n + 1)
        for only in (False, True)
    ]
    # the benchmark's (7,5) stream
    + [pytest.param(7, 5, True, id="7-5-only-singular")],
)
def test_squares_stream_is_the_record_of_every_square(capsys, n, r, only_singular):
    expected = record_stream(n, r, only_singular)
    flags = ["--only-singular"] if only_singular else []
    code, out, err = run(capsys, "squares", "--n", str(n), "--r", str(r), *flags)
    assert code == 0 and err == ""
    assert out == expected
    census = square_census(n, r)
    singular = census.singular_proper + census.singular_degenerate
    assert out.count("\n") == (singular if only_singular else census.squares)


def record_stream(n: int, r: int, only_singular: bool) -> str:
    """The reference stream: one square_record per enumerated square, filtered by SQ3."""
    return "".join(
        json.dumps(square_record(sq), sort_keys=True, separators=(",", ":")) + "\n"
        for sq in enumerate_squares(n, r)
        if not only_singular or is_singular_sq3(sq)
    )


def test_square_record_schema_refuses_evidence_kind(capsys):
    # a record of an older stream, with its always-null evidence_kind, fails:
    # the schema admits no key it does not name
    code, out, _ = run(capsys, "squares", "--n", "3", "--r", "2")
    assert code == 0 and "evidence_kind" not in out
    sq_schema = schema("square-record.schema.json")
    record = json.loads(out.splitlines()[0])
    jsonschema.validate(record, sq_schema)
    for value in (None, "both"):
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(dict(record, evidence_kind=value), sq_schema)


def test_squares_computes_one_label_per_pair(capsys, monkeypatch):
    # (5,3) has 90 (kernel, transversal) pairs and 1,470 ordered squares;
    # the index and the stream may each label every pair once
    checked = counted_calls(monkeypatch, "label", (squares_module,))
    unchecked = counted_calls(monkeypatch, "pick_label", (squares_module,))
    squares_module._singular_index.cache_clear()
    code, out, _ = run(capsys, "squares", "--n", "5", "--r", "3")
    assert code == 0 and out.count("\n") == 1470
    assert len(checked + unchecked) <= 2 * 90


def counted_calls(monkeypatch, name, modules):
    """Wrap ``name`` where each of ``modules`` binds it; the list of the
    calls' arguments grows as they are made."""
    calls = []
    for module in modules:
        real = getattr(module, name)

        def counted(*args, real=real, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize(
    "argv,pairs",
    [(["stats", "--n", "7", "--r", "4"], 2240), (["squares", "--n", "7", "--r", "5", "--only-singular"], 525)],
    ids=["stats", "squares"],
)
def test_stats_and_squares_label_each_pair_once(capsys, monkeypatch, argv, pairs):
    # the index labels every pair once, from its transversal's pick of one
    # element per block, with no check; the spectrum and the stream read its
    # labels (the labels themselves are held to the pick route, label, in
    # tests/test_squares.py)
    import igmax.labels as labels_module
    import igmax.presentation as presentation_module

    modules = (labels_module, squares_module, presentation_module)
    checked = counted_calls(monkeypatch, "label", modules)
    unchecked = counted_calls(monkeypatch, "pick_label", (squares_module,))
    squares_module._singular_index.cache_clear()
    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert checked == []
    assert len(unchecked) == pairs


def test_reduce_builds_no_presentation(capsys, monkeypatch):
    import igmax.verification as verification_module

    calls = counted_calls(monkeypatch, "build_presentation", (pipeline, verification_module))
    code, out, _ = run(capsys, "reduce", "--n", "6", "--r", "3")
    assert code == 0 and "generators: 540\n" in out
    assert calls == []


@pytest.mark.parametrize("command", ["stats", "squares"])
def test_stats_and_squares_build_no_lookup_table(capsys, command):
    # the index's lookups and numbering tables serve the trust path only
    squares_module._singular_index.cache_clear()
    code, _, _ = run(capsys, command, "--n", "5", "--r", "3")
    assert code == 0
    built = vars(squares_module._singular_index(5, 3))
    tables = {
        name for name, value in vars(squares_module._SingularIndex).items() if isinstance(value, cached_property)
    }
    assert tables >= {
        "kernel_of", "image_of", "top_of", "min_image", "generator_of", "pairs", "product_table", "letter_label_ids",
        "block_of",
    }
    assert tables.isdisjoint(built)


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_squares_takes_no_format(capsys, fmt):
    code, out, err = run(capsys, "squares", "--n", "4", "--r", "2", "--format", fmt)
    assert code == 2 and out == ""
    assert "unrecognized arguments: --format" in err


class _Breaker:
    """A stdout that goes away after a fixed number of writes."""

    def __init__(self, limit: int):
        self.limit = limit
        self.writes = 0

    def write(self, text: str) -> int:
        self.writes += 1
        if self.writes > self.limit:
            raise BrokenPipeError
        return len(text)

    def flush(self) -> None:
        pass


def test_squares_broken_pipe_and_size_warning(capsys, monkeypatch):
    # n > 8 warns on stderr; a closed pipe ends the stream quietly
    breaker = _Breaker(3)
    monkeypatch.setattr(sys, "stdout", breaker)
    code = main(["squares", "--n", "9", "--r", "7"])
    monkeypatch.undo()
    err = capsys.readouterr().err
    assert code == 0
    assert "may take a while" in err
    assert breaker.writes == 4


class _Recorder:
    """A stdout that keeps each write."""

    def __init__(self):
        self.writes: list[str] = []

    def write(self, text: str) -> int:
        self.writes.append(text)
        return len(text)

    def flush(self) -> None:
        pass


def recorded_writes(monkeypatch, argv) -> list[str]:
    recorder = _Recorder()
    monkeypatch.setattr(sys, "stdout", recorder)
    code = main(argv)
    monkeypatch.undo()
    assert code == 0
    return recorder.writes


@pytest.mark.parametrize("block", [cli.BLOCK_LINES, 100, 1])
@pytest.mark.parametrize(
    "argv,digest",
    [
        # the digests of the goldens squares-5-3 and present-5-3 in tests/test_golden.py
        (["squares", "--n", "5", "--r", "3"], "56aa48b95c9a5f7c72c7cf4120cfc59ca4fc78983846b700fcddea2a59890ff2"),
        (["present", "--n", "5", "--r", "3"], "05ee58fb9e313c3f872503888817c7992a74b240f55e0470a489f7833fbf5f0b"),
    ],
    ids=["squares", "present"],
)
def test_line_output_goes_out_in_blocks(monkeypatch, argv, digest, block):
    # every write but the last holds exactly BLOCK_LINES lines, and the
    # bytes are those of one write per line
    monkeypatch.setattr(cli, "BLOCK_LINES", block)
    writes = recorded_writes(monkeypatch, argv)
    text = "".join(writes)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    if argv[0] == "squares":
        assert text == record_stream(5, 3, False)
    full, rest = divmod(text.count("\n"), block)
    assert [w.count("\n") for w in writes] == [block] * full + ([rest] if rest else [])


@pytest.mark.parametrize("unbuffered", ["1", None], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize(
    "argv",
    [("squares", "--n", "7", "--r", "5", "--only-singular"), ("present", "--n", "6", "--r", "3")],
    ids=["squares", "present"],
)
def test_a_closed_pipe_ends_the_command_quietly(argv, unbuffered):
    # the reader takes one line and goes away; the pipe's buffer holds far
    # less than the output, so a later write meets the closed pipe
    child = subprocess.Popen(
        [sys.executable, "-m", "igmax.cli", *argv],
        env=igmax_env(PYTHONUNBUFFERED=unbuffered),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    first = child.stdout.readline()
    child.stdout.close()
    err = child.stderr.read()
    child.stderr.close()
    assert child.wait(timeout=120) == 0
    assert err == b"" and first.endswith(b"\n")


@pytest.mark.parametrize("unbuffered", ["1", None], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize(
    "argv",
    [("stats", "--n", "5", "--r", "3"), ("squares", "--n", "3", "--r", "2")],
    ids=["stats", "squares"],
)
def test_a_pipe_closed_before_any_write_ends_the_command_quietly(argv, unbuffered):
    # output far below the 8 KiB of a buffered stdout stays in its buffer
    # until the end; that flush meets the closed pipe too
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "igmax.cli", *argv],
            env=igmax_env(PYTHONUNBUFFERED=unbuffered),
            stdout=write_end, stderr=subprocess.PIPE, timeout=120,
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (0, b"")


# ---------------------------------------------------------------------------
# present
# ---------------------------------------------------------------------------


def test_present_text(capsys):
    code, out, _ = run(capsys, "present", "--n", "4", "--r", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "generators: 24"
    assert lines[1] == "f[{{1},{2,3,4}}|{1,2}]"
    assert lines[25] == "relations: 60"
    assert all("  ## " in line and " = 1 " in line for line in lines[26:])


def test_present_family_filter(capsys):
    for family, count in [("top", 5), ("middle", 7), ("bottom", 48)]:
        code, out, _ = run(
            capsys, "present", "--n", "4", "--r", "2", "--family", family
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[25] == f"relations: {count}"
        assert sum(1 for l in lines if l.endswith(f"## {family}")) == count


@pytest.mark.parametrize("family", ["top", "middle"])
def test_present_top_and_middle_read_no_bottom_relation(capsys, monkeypatch, family):
    # each prints the bytes of the full presentation filtered to its family,
    # and reading the bottom family fails the run
    import igmax.presentation as presentation_module

    _, text, _ = run(capsys, "present", "--n", "6", "--r", "3")
    _, doc, _ = run(capsys, "present", "--n", "6", "--r", "3", "--format", "json")
    head, _, rels = text.partition("relations: ")
    kept = [line for line in rels.splitlines()[1:] if line.endswith(f"## {family}")]
    want_text = head + f"relations: {len(kept)}\n" + "".join(line + "\n" for line in kept)
    want_doc = json.loads(doc)
    want_doc["relations"] = [rel for rel in want_doc["relations"] if rel["tag"] == family]

    def unread(index):
        raise AssertionError("the bottom family was read")

    monkeypatch.setattr(presentation_module, "read_bottom", unread)
    for fmt, want in [("text", want_text), ("json", json.dumps(want_doc, indent=2, sort_keys=True) + "\n")]:
        code, out, _ = run(capsys, "present", "--n", "6", "--r", "3", "--family", family, "--format", fmt)
        assert code == 0
        assert out == want


def test_present_json_schema(capsys):
    code, out, _ = run(
        capsys, "present", "--n", "4", "--r", "2", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, schema("presentation.schema.json"))
    assert len(doc["generators"]) == 24
    assert len(doc["relations"]) == 60


def test_present_at_the_boundary_prints_no_warning(capsys):
    # the presentation at r = n-1 is as valid as below it: only its bottom family is empty
    code, out, err = run(capsys, "present", "--n", "5", "--r", "4")
    assert code == 0 and out.startswith("generators: 20\n") and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == "1b87edc016eb2a806edef27104cab6433a8cd0aaf34bfc5275cf31bfc3938881"


# ---------------------------------------------------------------------------
# reduce / replay round trip
# ---------------------------------------------------------------------------


@pytest.fixture()
def log_path(tmp_path, capsys):
    path = tmp_path / "log.json"
    code, out, _ = run(
        capsys, "reduce", "--n", "4", "--r", "2", "--log", str(path)
    )
    assert code == 0
    assert out == (
        "n=4 r=2\n"
        "generators: 24\n"
        "relations: 60\n"
        "derivation steps: 107\n"
        "surviving generators: 1\n"
        "final presentation: 1 generators, 1 relations\n"
        f"log written: {path}\n"
    )
    return path


def test_reduce_log_schema(log_path):
    doc = json.loads(log_path.read_text())
    jsonschema.validate(doc, schema("derivation-log.schema.json"))
    assert doc["format"] == "igmax-derivation-log"
    assert len(doc["steps"]) == 107


def test_reduce_json_summary(capsys):
    code, out, _ = run(capsys, "reduce", "--n", "4", "--r", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["steps"] == 107
    assert doc["survivors"] == 1
    assert doc["log_written"] is None


def test_reduce_boundary_gate(capsys):
    code, _, err = run(capsys, "reduce", "--n", "4", "--r", "3")
    assert code == 2  # the pipeline has no boundary mode, and no flag offers one
    assert err.startswith("error:")
    assert "r <= n-2" in err
    assert "--allow-boundary" not in err
    code, _, err = run(capsys, "reduce", "--n", "4", "--r", "3", "--allow-boundary")
    assert code == 2
    assert "unrecognized arguments: --allow-boundary" in err


def test_reduce_log_bytes_match_the_python_encoder(tmp_path, capsys):
    from igmax.pipeline import run_pipeline

    path = tmp_path / "log.json"
    code, _, _ = run(capsys, "reduce", "--n", "5", "--r", "3", "--log", str(path))
    assert code == 0
    expected = io.StringIO()
    json.dump(run_pipeline(5, 3)[1].to_json(), expected, sort_keys=True, separators=(",", ":"))
    assert path.read_text() == expected.getvalue() + "\n"


def test_replay_pass(capsys, log_path):
    code, out, _ = run(capsys, "replay", "--log", str(log_path))
    assert code == 0
    assert out == (
        "log: n=4 r=2\n"
        "steps checked: 107\n"
        "failures: 0\n"
        "relations discharged: 60 / 60\n"
        "final snapshot: matches the Coxeter presentation\n"
        "replay: PASS\n"
    )


def test_replay_json_schema(capsys, log_path):
    code, out, _ = run(capsys, "replay", "--log", str(log_path), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, schema("replay-report.schema.json"))
    assert doc["ok"] is True


def tampered_copy(log_path: Path, tmp_path: Path) -> Path:
    """The log with the sign of its first bottom conclusion's first letter flipped."""
    bad = json.loads(log_path.read_text())
    for sd in bad["steps"]:
        if sd["rule"] == "bottom":
            sd["conclusion"]["lhs"][0][1] *= -1
            break
    bad_path = tmp_path / "tampered.json"
    bad_path.write_text(json.dumps(bad))
    return bad_path


def test_replay_tampered_log(capsys, tmp_path, log_path):
    bad_path = tampered_copy(log_path, tmp_path)
    code, out, _ = run(capsys, "replay", "--log", str(bad_path), "--format", "json")
    assert code == 4
    report = json.loads(out)
    jsonschema.validate(report, schema("replay-report.schema.json"))
    assert report["ok"] is False
    assert report["failures"]

    code, out, _ = run(capsys, "replay", "--log", str(bad_path))
    assert code == 4
    assert "replay: FAIL" in out


def test_replay_checks_the_stored_final_snapshot(capsys, tmp_path):
    # the snapshot must equal the Coxeter presentation's JSON document, so
    # even a reordering of its relations is a mismatch
    path = tmp_path / "log.json"
    code, _, _ = run(capsys, "reduce", "--n", "5", "--r", "3", "--log", str(path))
    assert code == 0
    genuine = path.read_text()

    def junk(final):
        return {"junk": True}

    def reversed_relations(final):
        final["relations"].reverse()
        return final

    for edit in (junk, reversed_relations):
        doc = json.loads(genuine)
        doc["final"] = edit(doc["final"])
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "replay", "--log", str(path))
        assert code == 4, edit.__name__
        assert "failures: 0\n" in out
        assert "final snapshot: MISMATCH\n" in out
        assert out.endswith("replay: FAIL\n")


def test_verification_failure_exits_four(capsys, monkeypatch):
    import igmax.cli as cli
    from igmax.errors import VerificationFailed

    def broken_census(n, r):
        raise VerificationFailed("census check failed")

    monkeypatch.setattr(cli, "square_census", broken_census)
    code, _, err = run(capsys, "stats", "--n", "4", "--r", "2")
    assert code == 4
    assert "census check failed" in err


def test_replay_rejects_foreign_document(capsys, tmp_path):
    path = tmp_path / "foreign.json"
    path.write_text(json.dumps({"format": "something-else"}))
    code, _, err = run(capsys, "replay", "--log", str(path))
    assert code == 3
    assert "error:" in err


@pytest.mark.parametrize(
    "damage", ["missing-n", "generator-as-list", "truncated", "version-7", "version-as-string"]
)
def test_replay_reports_malformed_log(capsys, tmp_path, log_path, damage):
    text = log_path.read_text()
    if damage == "truncated":
        text = text[:500]
    else:
        doc = json.loads(text)
        if damage == "missing-n":
            del doc["n"]
        elif damage == "version-7":
            doc["version"] = 7
        elif damage == "version-as-string":
            doc["version"] = "2"
        else:
            letter = next(sd for sd in doc["steps"] if "conclusion" in sd)["conclusion"]["lhs"][0]
            letter[0] = [letter[0]]
        text = json.dumps(doc)
    path = tmp_path / "malformed.json"
    path.write_text(text)
    code, out, err = run(capsys, "replay", "--log", str(path))
    assert code == 4
    assert out == ""
    assert err.startswith("error: malformed derivation log: ")


@pytest.mark.parametrize("text", ["[" * 200_000, '{"a":' * 200_000], ids=["arrays", "objects"])
def test_replay_reports_a_log_nested_too_deep(capsys, tmp_path, text):
    # the decoder recurses once per level, up to the interpreter's limit
    path = tmp_path / "deep.json"
    path.write_text(text)
    code, out, err = run(capsys, "replay", "--log", str(path))
    assert code == 4
    assert out == ""
    assert err.startswith("error: malformed derivation log: maximum recursion depth exceeded")


def as_version_1(doc):
    """``doc`` as format version 1 wrote it: each letter and square by the
    texts of its kernels and images, the canonical generators as pairs."""
    index = _singular_index(doc["n"], doc["r"])

    def pair(g):
        k, a = index.pairs[g]
        return [str(index.parts[k]), str(index.subsets[a])]

    for sd in doc["steps"]:
        for side in sd.get("conclusion", {}).values():
            side[:] = [[*pair(g), e] for g, e in side]
        if "square" in sd:
            p, q, a, b = sd["square"]
            sd["square"] = [str(index.parts[p]), str(index.parts[q]), str(index.subsets[a]), str(index.subsets[b])]
        if sd["rule"] == "coxeter-match":
            sd["data"]["canonical"] = [pair(g) for g in sd["data"]["canonical"]]
    doc["version"] = 1
    return doc


@pytest.mark.parametrize(
    "damage, found",
    [
        ("version 1", "unsupported log version 1"),
        ("no version", "the log has no version"),
        ("version '2'", "unsupported log version '2'"),
        ("version 2.0", "unsupported log version 2.0"),
        ("version true", "unsupported log version True"),
        ("version null", "unsupported log version None"),
    ],
    ids=["version-1", "no-version", "version-as-string", "version-as-float", "version-as-bool", "version-null"],
)
def test_replay_reads_only_version_2(capsys, tmp_path, log_path, damage, found):
    # the writer puts the version after the steps, so a log of another
    # version is refused for its version, not for the first step that
    # version 2 cannot read
    doc = json.loads(log_path.read_text())
    assert doc["version"] == 2
    if damage == "version 1":
        doc = as_version_1(doc)
    elif damage == "no version":
        del doc["version"]
    else:
        doc["version"] = json.loads(damage.split(" ", 1)[1].replace("'", '"'))
    path = tmp_path / "other-version.json"
    # the version read before the steps, and after them
    head = {key: doc[key] for key in ("format", "version", "n", "r") if key in doc}
    for text in (json.dumps({**head, **doc}), json.dumps(doc, sort_keys=True, separators=(",", ":"))):
        path.write_text(text)
        code, out, err = run(capsys, "replay", "--log", str(path))
        assert (code, out) == (4, "")
        assert err == f"error: malformed derivation log: ValueError: {found}, this replayer reads version 2\n"


def empty_log(tmp_path, n, r):
    path = tmp_path / f"log-{n}-{r}.json"
    path.write_text(json.dumps({"format": "igmax-derivation-log", "version": 2, "n": n, "r": r, "steps": []}))
    return str(path)


class _Built(Exception):
    pass


def test_replay_applies_the_cap(capsys, tmp_path, monkeypatch):
    # the parser numbers a log's texts on the (n, r) index, so the cap must
    # be checked before the index is built: a log with steps at n = 13
    import igmax.replay as replay_module

    doc = pipeline.run_pipeline(5, 3)[1].to_json()
    doc["n"], doc["r"] = 13, 6
    with_steps = tmp_path / "log-13-6-steps.json"
    with_steps.write_text(json.dumps(doc))

    def build(n, r):
        raise _Built(n, r)

    monkeypatch.setattr(replay_module, "relation_families", build)
    monkeypatch.setattr(replay_module, "_singular_index", build)
    for path in (empty_log(tmp_path, 13, 6), str(with_steps)):
        code, out, err = run(capsys, "replay", "--log", path)
        assert code == 2 and out == ""
        assert err == "error: n=13 exceeds the cap n <= 12; pass --override-cap to proceed\n"
        with pytest.raises(_Built):
            main(["replay", "--log", path, "--override-cap"])


@pytest.mark.parametrize("n, r", [(4, 7), (4, 0), (4, -1), (4, 3)])
def test_replay_rejects_a_rank_outside_the_reduction(capsys, tmp_path, n, r):
    code, out, err = run(capsys, "replay", "--log", empty_log(tmp_path, n, r))
    assert code == 4 and out == ""
    assert err == f"error: malformed derivation log: ValueError: a reduction log needs 1 <= r <= n-2, got n={n}, r={r}\n"


def test_checks_survive_optimize_flag(tmp_path, log_path):
    env = igmax_env()

    def igmax_o(*argv):
        return subprocess.run(
            [sys.executable, "-O", "-m", "igmax.cli", *argv],
            env=env, capture_output=True, text=True, timeout=120,
        )

    done = igmax_o("verify", "--n", "4", "--r", "2", "--with-coset-oracle")
    assert done.returncode == 0, done.stderr
    assert done.stdout.endswith("verdict: confirmed S_2\n")
    done = igmax_o("replay", "--log", str(tampered_copy(log_path, tmp_path)))
    assert done.returncode == 4, done.stderr
    assert done.stdout.endswith("replay: FAIL\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("replay", "--log", "missing.json"),
        ("replay", "--log", "."),
        ("reduce", "--n", "4", "--r", "2", "--log", "nodir/x.json"),
    ],
    ids=["replay-missing-file", "replay-directory", "reduce-missing-directory"],
)
def test_unusable_log_path_is_usage(tmp_path, argv):
    done = subprocess.run(
        [sys.executable, "-m", "igmax.cli", *argv],
        cwd=tmp_path, env=igmax_env(), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 2
    assert done.stderr.startswith("error:")
    assert "Traceback" not in done.stderr


def _out_of_memory(*args, **kwargs):
    raise MemoryError


@pytest.mark.parametrize(
    "module,name,argv,line",
    [
        ("verification", "verify_theorem", ("verify", "--n", "10", "--r", "5"), "in verify at n=10, r=5"),
        ("replay", "replay_log", ("replay", "--log", "log.json"), "in replay"),
    ],
    ids=["verify", "replay"],
)
def test_running_out_of_memory_is_one_line_and_exit_1(capsys, monkeypatch, tmp_path, module, name, argv, line):
    # a command whose data outgrows the memory says so on one line of
    # stderr, without a traceback
    monkeypatch.chdir(tmp_path)
    assert run(capsys, "reduce", "--n", "4", "--r", "2", "--log", "log.json")[0] == 0
    monkeypatch.setattr(f"igmax.{module}.{name}", _out_of_memory)
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", f"error: out of memory {line}\n")


def test_reduce_checks_the_log_path_before_the_work(capsys, monkeypatch, tmp_path):
    def no_work(n, r):
        raise AssertionError("run_pipeline was called")

    monkeypatch.setattr(pipeline, "run_pipeline", no_work)
    code, out, err = run(capsys, "reduce", "--n", "8", "--r", "4", "--log", str(tmp_path / "nodir" / "x.json"))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "No such file or directory" in err


@pytest.mark.parametrize("error", [InvalidParameters, RuntimeError])
def test_a_failed_reduce_leaves_no_log(capsys, monkeypatch, tmp_path, error):
    path = tmp_path / "log.json"

    def failing(n, r):
        assert path.is_file()  # the log was opened before the work
        raise error("the reduction failed")

    monkeypatch.setattr(pipeline, "run_pipeline", failing)
    argv = ["reduce", "--n", "4", "--r", "2", "--log", str(path)]
    if error is InvalidParameters:  # a precondition failure, exit 3
        assert run(capsys, *argv)[0] == 3
    else:  # an unexpected error reaches the caller
        with pytest.raises(RuntimeError):
            main(argv)
    assert list(tmp_path.iterdir()) == []


def test_a_failed_reduce_keeps_a_file_it_did_not_create(capsys, monkeypatch, tmp_path):
    path = tmp_path / "log.json"
    path.write_text("an earlier file\n")

    def failing(n, r):
        raise InvalidParameters("the reduction failed")

    monkeypatch.setattr(pipeline, "run_pipeline", failing)
    assert run(capsys, "reduce", "--n", "4", "--r", "2", "--log", str(path))[0] == 3
    assert path.read_text() == "an earlier file\n"


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_text(capsys):
    code, out, _ = run(capsys, "verify", "--n", "4", "--r", "2")
    assert code == 0
    assert out == (
        "n=4 r=2\n"
        "pipeline: ok\n"
        "homomorphism: ok\n"
        "verdict: confirmed S_2\n"
    )


def test_verify_with_coset_oracle(capsys):
    code, out, _ = run(
        capsys, "verify", "--n", "4", "--r", "2", "--with-coset-oracle"
    )
    assert code == 0
    assert "coset order: 2\n" in out


def test_verify_coset_oracle_reaches_eight_six(capsys):
    code, out, _ = run(
        capsys, "verify", "--n", "8", "--r", "6", "--with-coset-oracle"
    )
    assert code == 0
    assert "coset order: 720\n" in out


def test_verify_json_schema(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--n", "4", "--r", "2",
        "--with-coset-oracle", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, schema("verify-report.schema.json"))
    assert doc["verdict"] == "confirmed S_2"
    assert doc["coset_detail"]["order"] == 2


def test_verify_json_schema_ties_the_details_to_the_verdict(capsys):
    # a verdict below the boundary rests on a replay; a boundary verdict has
    # neither a replay nor the oracle
    below = json.loads(run(capsys, "verify", "--n", "4", "--r", "2", "--with-coset-oracle", "--format", "json")[1])
    boundary = json.loads(run(capsys, "verify", "--n", "4", "--r", "3", "--allow-boundary", "--format", "json")[1])
    verify_schema = schema("verify-report.schema.json")
    for doc in (below, boundary):
        jsonschema.validate(doc, verify_schema)
    wrong = [
        {key: value for key, value in below.items() if key != "replay_detail"},
        {**boundary, "replay_detail": below["replay_detail"]},
        {**boundary, "coset_detail": below["coset_detail"]},
        {**boundary, "verdict": "not confirmed: pipeline failed"},
    ]
    for doc in wrong:
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(doc, verify_schema)


def test_verify_budget_exhaustion(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--n", "4", "--r", "2",
        "--with-coset-oracle", "--max-cosets", "1",
    )
    assert code == 5
    assert "coset order: inconclusive" in out


def test_verify_budget_exhaustion_verdict_text(capsys):
    # the verdict line and the exit code agree: the oracle ran out, so
    # nothing is confirmed, though the replay passed
    code, out, _ = run(capsys, "verify", "--n", "5", "--r", "3", "--with-coset-oracle", "--max-cosets", "2")
    assert code == 5
    assert out == (
        "n=5 r=3\n"
        "pipeline: ok\n"
        "homomorphism: ok\n"
        "coset order: inconclusive\n"
        "verdict: inconclusive\n"
    )


def test_verify_budget_exhaustion_verdict_json(capsys):
    code, out, _ = run(
        capsys, "verify", "--n", "5", "--r", "3", "--with-coset-oracle", "--max-cosets", "2", "--format", "json"
    )
    assert code == 5
    doc = json.loads(out)
    jsonschema.validate(doc, schema("verify-report.schema.json"))
    assert (doc["verdict"], doc["coset_order"], doc["coset_detail"]["closed"]) == ("inconclusive", None, False)
    assert doc["pipeline"] is True and doc["homomorphism"] is True and doc["replay_detail"]["ok"] is True


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_verify_rejects_a_budget_below_one(capsys, budget):
    code, out, err = run(
        capsys,
        "verify", "--n", "4", "--r", "2",
        "--with-coset-oracle", "--max-cosets", budget,
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "--max-cosets" in err


def test_verify_oracle_runs_under_the_library_default_budget(capsys, monkeypatch):
    import inspect

    import igmax.verification as verification

    budgets = []
    real = verification.coset_enumerate

    def recorded(pres, max_cosets):
        budgets.append(max_cosets)
        return real(pres, max_cosets)

    monkeypatch.setattr(verification, "coset_enumerate", recorded)
    code, _, _ = run(capsys, "verify", "--n", "4", "--r", "2", "--with-coset-oracle")
    assert code == 0
    default = inspect.signature(real).parameters["max_cosets"].default
    assert budgets == [default] == [verification.DEFAULT_MAX_COSETS]


def test_verify_makes_the_relation_letters_once(capsys):
    # the replay and the coset oracle share one RelationFamilies
    from igmax.presentation import relation_families

    relation_families.cache_clear()
    code, _, _ = run(capsys, "verify", "--n", "6", "--r", "3", "--with-coset-oracle")
    assert code == 0
    info = relation_families.cache_info()
    assert info.misses == 1 and info.hits >= 1


def test_verify_max_cosets_needs_the_oracle(capsys):
    code, out, err = run(capsys, "verify", "--n", "4", "--r", "2", "--max-cosets", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "--with-coset-oracle" in err


# Swaps the witness square of the first bottom step for a proper square that is
# not singular, then runs `igmax verify` on the given arguments.
UNSOUND_VERIFY = """
import sys
import igmax.pipeline as pipeline
from igmax.cli import main
from igmax.replay import DerivationLog, DerivationStep
from igmax.squares import _singular_index, enumerate_squares, is_singular_sq3

bogus = next(
    sq for sq in enumerate_squares(4, 2)
    if sq.kernels[0] != sq.kernels[1] and sq.images[0] != sq.images[1] and not is_singular_sq3(sq)
)
run = pipeline.run_pipeline

def unsound(n, r):
    final, log = run(n, r)
    i = next(i for i, st in enumerate(log.steps) if st.rule == "bottom")
    # a step holds its witness square as the ids of its kernels and images
    index = _singular_index(n, r)
    square = tuple(index.kernel_with(p.blocks) for p in bogus.kernels) + tuple(
        index.image_with(a.elements) for a in bogus.images
    )
    steps = list(log.steps)
    st = steps[i]
    steps[i] = DerivationStep(st.rule, st.conclusion, st.premises, square, st.data)
    return final, DerivationLog(log.n, log.r, steps, log.final, log.meta)

pipeline.run_pipeline = unsound
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize(
    "flags,fmt", [((), "text"), (("-O",), "text"), ((), "json")], ids=["text", "text-O", "json"]
)
def test_verify_rejects_an_unsound_step(flags, fmt):
    done = subprocess.run(
        [sys.executable, *flags, "-c", UNSOUND_VERIFY, "verify", "--n", "4", "--r", "2", "--format", fmt],
        env=igmax_env(), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 4, done.stderr
    if fmt == "json":
        doc = json.loads(done.stdout)
        jsonschema.validate(doc, schema("verify-report.schema.json"))
        assert doc["verdict"].startswith("not confirmed: pipeline")
        assert not doc["replay_detail"]["ok"]
        return
    assert "pipeline: failed\n" in done.stdout
    assert "witness square is not singular" in done.stdout
    assert "\nverdict: not confirmed: pipeline" in done.stdout


def test_verify_boundary(capsys):
    code, out, err = run(capsys, "verify", "--n", "4", "--r", "3")
    assert (code, out) == (2, "")
    assert err == "error: theorem commands need r <= n-2 (got r=3, n=4); pass --allow-boundary to check the boundary's free group\n"

    # at r = n-1 the group is free of rank (n-1)(n-2)/2, and no reduction runs
    code, out, err = run(capsys, "verify", "--n", "4", "--r", "3", "--allow-boundary")
    assert (code, out, err) == (0, "n=4 r=3\nhomomorphism: ok\nverdict: confirmed free of rank 3\n", "")
    for n in range(2, 13):
        code, out, err = run(capsys, "verify", "--n", str(n), "--r", str(n - 1), "--allow-boundary", "--format", "json")
        assert code == 0 and err == ""
        doc = json.loads(out)
        jsonschema.validate(doc, schema("verify-report.schema.json"))
        assert doc["verdict"] == f"confirmed free of rank {(n - 1) * (n - 2) // 2}"
        assert doc["homomorphism"] and not doc["pipeline"]


@pytest.mark.parametrize(
    "argv", [["verify"], ["verify", "--allow-boundary"], ["present"]], ids=["verify", "verify-boundary", "present"]
)
def test_the_presentation_commands_refuse_r_equal_to_n_as_usage(capsys, argv):
    # r = n has no presentation: a usage error naming the range, with no
    # advice to pass --allow-boundary, which would not help
    code, out, err = run(capsys, *argv, "--n", "4", "--r", "4")
    assert code == 2
    assert out == ""
    assert err == "error: need 1 <= r <= n-1, got r=4, n=4\n"


@pytest.mark.parametrize("oracle", [(), ("--with-coset-oracle",)], ids=["plain", "oracle"])
def test_verify_refuses_allow_boundary_below_the_boundary(capsys, oracle):
    # at r <= n-2 the flag would change nothing, so it is refused
    code, out, err = run(capsys, "verify", "--n", "5", "--r", "3", "--allow-boundary", *oracle)
    assert code == 2
    assert out == ""
    assert err == "error: --allow-boundary applies only at r = n-1, got r=3, n=5\n"


def test_verify_refuses_the_oracle_at_the_boundary_before_advising_allow_boundary(capsys):
    # passing --allow-boundary would only lead to the oracle's refusal
    code, out, err = run(capsys, "verify", "--n", "5", "--r", "4", "--with-coset-oracle")
    assert code == 2
    assert out == ""
    assert err.startswith("error: --with-coset-oracle needs r <= n-2")


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("budget", [(), ("--max-cosets", "3")], ids=["default", "max-cosets"])
def test_verify_rejects_the_coset_oracle_at_the_boundary(capsys, fmt, budget):
    code, out, err = run(
        capsys, "verify", "--n", "5", "--r", "4", "--allow-boundary", "--with-coset-oracle",
        *budget, "--format", fmt,
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: --with-coset-oracle needs r <= n-2")
    assert err.count("\n") == 1


# ---------------------------------------------------------------------------
# the cyclic garbage collector
# ---------------------------------------------------------------------------


@pytest.fixture(params=[True, False], ids=["gc-on", "gc-off"])
def gc_state(request):
    was_enabled = gc.isenabled()
    if request.param:
        gc.enable()
    else:
        gc.disable()
    yield request.param
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.parametrize("outcome", ["ok", "usage", "tampered"])
def test_main_restores_the_collector_state(capsys, tmp_path, log_path, gc_state, outcome):
    argv, expected = {
        "ok": (["stats", "--n", "4", "--r", "2"], 0),
        "usage": (["stats", "--n", "4", "--r", "5"], 2),
        "tampered": (["replay", "--log", str(tampered_copy(log_path, tmp_path))], 4),
    }[outcome]
    assert gc.isenabled() is gc_state
    code, _, _ = run(capsys, *argv)
    assert code == expected
    assert gc.isenabled() is gc_state


def test_reduce_runs_without_a_collection(capsys):
    was_enabled = gc.isenabled()
    starts = []

    def hook(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.enable()
    gc.callbacks.append(hook)
    try:
        code = main(["reduce", "--n", "5", "--r", "3"])
    finally:
        gc.callbacks.remove(hook)
        if not was_enabled:
            gc.disable()
    capsys.readouterr()
    assert code == 0
    assert starts == []
