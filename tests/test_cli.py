"""Command-line interface: output goldens, exit codes, schemas, determinism."""

import ast
import gc
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
import igmax.pipeline as pipeline
import igmax.squares as squares_module
from igmax.cli import main
from igmax.labels import label_by_subscripts
from igmax.squares import enumerate_squares, is_singular_sq3, square_census, square_record

GOLDEN_P = "{{1},{2,3,5},{4,7},{6}}"
GOLDEN_A = "{1,4,5,6}"


def schema(name: str) -> dict:
    path = importlib.resources.files("igmax") / "schemas" / name
    return json.loads(path.read_text())


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    # the reference: one square_record per enumerated square, filtered by SQ3
    expected = "".join(
        json.dumps(square_record(sq), sort_keys=True, separators=(",", ":")) + "\n"
        for sq in enumerate_squares(n, r)
        if not only_singular or is_singular_sq3(sq)
    )
    flags = ["--only-singular"] if only_singular else []
    code, out, err = run(capsys, "squares", "--n", str(n), "--r", str(r), *flags)
    assert code == 0 and err == ""
    assert out == expected
    census = square_census(n, r)
    singular = census.singular_proper + census.singular_degenerate
    assert out.count("\n") == (singular if only_singular else census.squares)


def test_squares_computes_one_label_per_pair(capsys, monkeypatch):
    # (5,3) has 90 (kernel, transversal) pairs and 1,470 ordered squares;
    # the index and the stream may each label every pair once
    calls = []

    def counted(p, a):
        calls.append((p, a))
        return label_by_subscripts(p, a)

    squares_module._singular_index.cache_clear()
    monkeypatch.setattr(squares_module, "label_by_subscripts", counted)
    code, out, _ = run(capsys, "squares", "--n", "5", "--r", "3")
    assert code == 0 and out.count("\n") == 1470
    assert len(calls) <= 2 * 90


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
    # the index labels every pair; the spectrum and the stream read its labels
    import igmax.labels as labels_module
    import igmax.presentation as presentation_module

    modules = (labels_module, squares_module, presentation_module, pipeline)
    calls = counted_calls(monkeypatch, "label_by_subscripts", modules)
    squares_module._singular_index.cache_clear()
    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert len(calls) == len(set(calls)) == pairs


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
    assert tables >= {"kernel_ids", "image_ids", "generator_of", "pairs", "product_table", "letter_label_ids", "block_of"}
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


def test_present_json_schema(capsys):
    code, out, _ = run(
        capsys, "present", "--n", "4", "--r", "2", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, schema("presentation.schema.json"))
    assert len(doc["generators"]) == 24
    assert len(doc["relations"]) == 60


def test_present_at_the_boundary_prints_one_warning_line(capsys):
    # each run says it once, in the CLI's own format, with no source location
    for _ in range(2):
        code, out, err = run(capsys, "present", "--n", "4", "--r", "3")
        assert code == 0 and out.startswith("generators: 12\n")
        assert err == "warning: r = n-1 = 3: no proper singular squares exist, the bottom family is empty\n"


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
        "derivation steps: 116\n"
        "surviving generators: 1\n"
        "final presentation: 1 generators, 1 relations\n"
        f"log written: {path}\n"
    )
    return path


def test_reduce_log_schema(log_path):
    doc = json.loads(log_path.read_text())
    jsonschema.validate(doc, schema("derivation-log.schema.json"))
    assert doc["format"] == "igmax-derivation-log"
    assert len(doc["steps"]) == 116


def test_reduce_json_summary(capsys):
    code, out, _ = run(capsys, "reduce", "--n", "4", "--r", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["steps"] == 116
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
        "steps checked: 116\n"
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
            sd["conclusion"]["lhs"][0][2] *= -1
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
            doc["version"] = "1"
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


def test_replay_reads_a_log_without_a_version_as_version_1(capsys, tmp_path, log_path):
    # version 1 is the only version there is; the hand-written logs of the
    # cap and rank tests below carry none
    doc = json.loads(log_path.read_text())
    assert doc["version"] == 1
    del doc["version"]
    path = tmp_path / "unversioned.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "replay", "--log", str(path))
    assert code == 0 and err == ""
    assert out == run(capsys, "replay", "--log", str(log_path))[1]
    assert out.endswith("replay: PASS\n")


def empty_log(tmp_path, n, r):
    path = tmp_path / f"log-{n}-{r}.json"
    path.write_text(json.dumps({"format": "igmax-derivation-log", "n": n, "r": r, "steps": []}))
    return str(path)


class _Built(Exception):
    pass


def test_replay_applies_the_cap(capsys, tmp_path, monkeypatch):
    # the parser numbers a log's texts on the (n, r) index, so the cap must
    # be checked before the index is built: a log with steps at n = 13
    doc = pipeline.run_pipeline(5, 3)[1].to_json()
    doc["n"], doc["r"] = 13, 6
    with_steps = tmp_path / "log-13-6-steps.json"
    with_steps.write_text(json.dumps(doc))

    def build(n, r):
        raise _Built(n, r)

    monkeypatch.setattr(pipeline, "build_presentation", build)
    monkeypatch.setattr(pipeline, "_singular_index", build)
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
    src = str(Path(igmax.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

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


def test_no_assert_statement_in_the_package():
    # python -O strips assert statements, so no check a verdict rests on may be one
    package = Path(igmax.__file__).resolve().parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


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
    src = str(Path(igmax.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-m", "igmax.cli", *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 2
    assert done.stderr.startswith("error:")
    assert "Traceback" not in done.stderr


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


def test_verify_budget_exhaustion(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--n", "4", "--r", "2",
        "--with-coset-oracle", "--max-cosets", "1",
    )
    assert code == 5
    assert "coset order: inconclusive" in out


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


def test_verify_max_cosets_needs_the_oracle(capsys):
    code, out, err = run(capsys, "verify", "--n", "4", "--r", "2", "--max-cosets", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "--with-coset-oracle" in err


# Swaps the witness square of the first bottom step for a proper square that is
# not singular, then runs `igmax verify` on the given arguments.
UNSOUND_VERIFY = """
import dataclasses, sys
import igmax.pipeline as pipeline
from igmax.cli import main
from igmax.squares import _singular_index, enumerate_squares, is_singular_sq3

bogus = next(sq for sq in enumerate_squares(4, 2) if not sq.is_degenerate() and not is_singular_sq3(sq))
run = pipeline.run_pipeline

def unsound(n, r):
    final, log = run(n, r)
    i = next(i for i, st in enumerate(log.steps) if st.rule == "bottom")
    # a step holds its witness square as the ids of its kernels and images
    square = _singular_index(n, r).square(*bogus.kernels, *bogus.images)
    log.steps[i] = dataclasses.replace(log.steps[i], square=square)
    return final, log

pipeline.run_pipeline = unsound
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize(
    "flags,fmt", [((), "text"), (("-O",), "text"), ((), "json")], ids=["text", "text-O", "json"]
)
def test_verify_rejects_an_unsound_step(flags, fmt):
    src = str(Path(igmax.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, *flags, "-c", UNSOUND_VERIFY, "verify", "--n", "4", "--r", "2", "--format", fmt],
        env=env, capture_output=True, text=True, timeout=120,
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
    code, _, err = run(capsys, "verify", "--n", "4", "--r", "3")
    assert code == 2
    assert "--allow-boundary" in err

    code, out, _ = run(
        capsys, "verify", "--n", "4", "--r", "3", "--allow-boundary", "--format", "json"
    )
    assert code == 4  # boundary runs report an unconfirmed verdict
    doc = json.loads(out)
    jsonschema.validate(doc, schema("verify-report.schema.json"))
    assert doc["boundary_free_consistent"] is True
    assert doc["verdict"].startswith("not confirmed: boundary")


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
