"""Mutated logs never replay as sound.

Each test draws one kind of mutation of the written (5,3) log and runs
``igmax replay`` on it in process.  The replay must report the failure: exit
4, or exit 2 for an n over the cap, and neither a pass nor a traceback.
Mutations that keep a log sound (a duplicated step, a reorder that keeps
every premise earlier) are not drawn.  The examples are few and
derandomized, so the suite stays short and runs the same each time.
"""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from igmax.cli import main
from igmax.pipeline import run_pipeline
from igmax.squares import _singular_index, enumerate_squares, is_singular_sq3

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)


@pytest.fixture(scope="module")
def genuine():
    fh = io.StringIO()
    run_pipeline(5, 3)[1].write(fh)
    return fh.getvalue()


@pytest.fixture(scope="module")
def log_path(tmp_path_factory):
    return tmp_path_factory.mktemp("mutations") / "log.json"


def replay(text, path):
    """Exit code, stdout and stderr of ``igmax replay`` on ``text``."""
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["replay", "--log", str(path)])
    return code, out.getvalue(), err.getvalue()


def rejects(text, path, code=4):
    got, out, err = replay(text, path)
    assert got == code, (out, err)
    assert "replay: PASS" not in out and "Traceback" not in err


def cited(doc):
    """(step, slot) of every premise of the log."""
    return [(i, k) for i, sd in enumerate(doc["steps"]) for k in range(len(sd.get("premises", ())))]


def letters(doc):
    """(step, side, position) of every letter of every conclusion."""
    return [
        (i, side, k)
        for i, sd in enumerate(doc["steps"])
        for side in ("lhs", "rhs")
        for k in range(len(sd.get("conclusion", {}).get(side, ())))
    ]


def link(conclusion):
    """A fact as the transitive rule reads it: the set of its two sides."""
    return frozenset(json.dumps(side) for side in (conclusion["lhs"], conclusion["rhs"]))


@SETTINGS
@given(data=st.data())
def test_dropping_a_step_fails(genuine, log_path, data):
    doc = json.loads(genuine)
    del doc["steps"][data.draw(st.integers(0, len(doc["steps"]) - 1))]
    rejects(json.dumps(doc), log_path)


@SETTINGS
@given(data=st.data())
def test_a_premise_pointing_forward_fails(genuine, log_path, data):
    doc = json.loads(genuine)
    i, k = data.draw(st.sampled_from(cited(doc)))
    doc["steps"][i]["premises"][k] = data.draw(st.integers(i, len(doc["steps"]) - 1))
    rejects(json.dumps(doc), log_path)


@SETTINGS
@given(data=st.data())
def test_a_premise_pointing_at_another_fact_fails(genuine, log_path, data):
    # another fact: an earlier step whose conclusion is not the cited one,
    # nor the cited one with its sides swapped
    doc = json.loads(genuine)
    i, k = data.draw(st.sampled_from(cited(doc)))
    premises = doc["steps"][i]["premises"]
    old = doc["steps"][premises[k]]
    others = [
        j for j in range(i)
        if "conclusion" in doc["steps"][j] and link(doc["steps"][j]["conclusion"]) != link(old["conclusion"])
    ]
    premises[k] = data.draw(st.sampled_from(others))
    rejects(json.dumps(doc), log_path)


@SETTINGS
@given(data=st.data())
def test_an_edited_conclusion_letter_fails(genuine, log_path, data):
    doc = json.loads(genuine)
    i, side, k = data.draw(st.sampled_from(letters(doc)))
    letter = doc["steps"][i]["conclusion"][side][k]
    edit = data.draw(st.sampled_from(["generator", "sign", "type"]))
    if edit == "generator":
        index = _singular_index(5, 3)
        named = f"f[{letter[0]}|{letter[1]}]"
        g = data.draw(st.integers(0, len(index.pairs) - 1).filter(lambda g: index.name(g) != named))
        kernel, image = index.pairs[g]
        letter[:2] = [str(index.parts[kernel]), str(index.subsets[image])]
    elif edit == "sign":
        letter[2] = -letter[2]
    else:
        letter[2] = data.draw(st.sampled_from([True, float(letter[2]), str(letter[2]), [letter[2]]]))
    rejects(json.dumps(doc), log_path)


@SETTINGS
@given(data=st.data())
def test_a_swapped_witness_square_fails(genuine, log_path, data):
    doc = json.loads(genuine)
    i = data.draw(st.sampled_from([i for i, sd in enumerate(doc["steps"]) if "square" in sd]))
    if data.draw(st.booleans()):
        squares = [sq for sq in enumerate_squares(5, 3) if not sq.is_degenerate() and not is_singular_sq3(sq)]
        sq = data.draw(st.sampled_from(squares))
        doc["steps"][i]["square"] = [str(x) for x in sq.kernels + sq.images]
    else:  # another image, most often not a transversal of the kernels
        square = doc["steps"][i]["square"]
        square[data.draw(st.integers(2, 3))] = data.draw(st.sampled_from(["{1,2,3}", "{2,3,4}"]))
        if square == json.loads(genuine)["steps"][i]["square"]:
            square[3] = square[2]  # unchanged: make it degenerate instead
    rejects(json.dumps(doc), log_path)


@SETTINGS
@given(data=st.data())
def test_a_changed_kernel_or_image_text_fails(genuine, log_path, data):
    # the text of another kernel or image, or a cut one
    doc = json.loads(genuine)
    i, side, k = data.draw(st.sampled_from(letters(doc)))
    letter = doc["steps"][i]["conclusion"][side][k]
    which = data.draw(st.integers(0, 1))
    index = _singular_index(5, 3)
    others = [str(x) for x in (index.parts if which == 0 else index.subsets) if str(x) != letter[which]]
    if data.draw(st.booleans()):
        letter[which] = data.draw(st.sampled_from(others))
    else:
        letter[which] = letter[which][: data.draw(st.integers(0, len(letter[which]) - 1))]
    rejects(json.dumps(doc), log_path)


@SETTINGS
@given(data=st.data())
def test_a_changed_n_or_r_fails(genuine, log_path, data):
    doc = json.loads(genuine)
    key, value = data.draw(
        st.sampled_from(
            [("n", n) for n in (-1, 0, 2, 3, 4, 6, 13, 40)] + [("r", r) for r in (-1, 0, 1, 2, 4, 5)]
        )
    )
    doc[key] = value
    rejects(json.dumps(doc), log_path, 2 if key == "n" and value > 12 else 4)


@SETTINGS
@given(data=st.data())
def test_truncated_json_fails(genuine, log_path, data):
    # every proper prefix of the document, up to its closing brace
    rejects(genuine[: data.draw(st.integers(0, len(genuine.rstrip()) - 1))], log_path)


def test_the_genuine_log_passes(genuine, log_path):
    code, out, _ = replay(genuine, log_path)
    assert code == 0 and out.endswith("replay: PASS\n")


def test_a_duplicated_step_may_pass(genuine, log_path):
    # a copy of the last step (the Coxeter match) checks again
    doc = json.loads(genuine)
    doc["steps"].append(copy.deepcopy(doc["steps"][-1]))
    code, out, _ = replay(json.dumps(doc), log_path)
    assert code == 0 and out.endswith("replay: PASS\n")
