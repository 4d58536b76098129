"""The int-backed presentation: letters, the lazy bottom family, and a trust
path that makes no Relation object of the presentation."""

import itertools
import json
from collections import Counter

import pytest
from hypothesis import given, strategies as st

import igmax.presentation as presentation
from igmax.cli import main
from igmax.errors import VerificationFailed
from igmax.perms import Permutation, ProductTable, compose, letter_images
from igmax.pipeline import run_pipeline
from igmax.presentation import GroupPresentation, Relation, build_presentation, letter_label_ids

CASES = [(n, r) for n in range(3, 7) for r in range(1, n - 1)]


def letters_of(pres):
    return [pres.letters(i) for i in range(pres.relation_count)]


@pytest.mark.parametrize("n,r", CASES)
def test_letters_are_the_relations(n, r):
    # generator i is letter 2*i, its inverse 2*i + 1
    pres = build_presentation(n, r)
    index = {g: i for i, g in enumerate(pres.generators)}
    want = [
        tuple(tuple(2 * index[g] + (e < 0) for g, e in side) for side in (rel.lhs, rel.rhs))
        for rel in pres.relations
    ]
    assert letters_of(pres) == want
    assert pres.relation_count == len(pres.relations)
    assert pres.meta["bottom"] == Counter(map(pres.tag, range(pres.relation_count)))["bottom"]
    # a presentation made by hand from those relations derives the same letters
    by_hand = GroupPresentation(pres.generators, pres.relations, pres.meta)
    assert letters_of(by_hand) == want
    assert [by_hand.tag(i) for i in range(len(want))] == [rel.tag for rel in pres.relations]


def _unread(n, r):
    raise AssertionError(f"the bottom family of ({n},{r}) was enumerated")
    yield  # a generator function, like the enumerator it stands in for


@pytest.mark.parametrize("n,r", [(5, 3), (6, 3), (6, 4)])
def test_reduce_never_enumerates_the_bottom_family(monkeypatch, n, r):
    # build_presentation makes the enumerator's generator object, so the
    # stand-in raises only when the family is iterated
    with monkeypatch.context() as mp:
        mp.setattr(presentation, "enumerate_singular_squares", _unread)
        _, log = run_pipeline(n, r)
    assert log.meta["relations"] == len(build_presentation(n, r).relations)


@pytest.mark.parametrize("n,r", [(6, 3), (6, 4)])
def test_replay_checks_the_bottom_family_without_reading_it(monkeypatch, tmp_path, capsys, n, r):
    # the bottom family holds on labels when each SQ3 bucket's members agree,
    # so neither replay nor verify's in-memory replay enumerates it
    log = str(tmp_path / "log.json")
    size = ["--n", str(n), "--r", str(r)]
    monkeypatch.setattr(presentation, "enumerate_singular_squares", _unread)
    assert main(["reduce", *size, "--log", log]) == 0
    capsys.readouterr()
    assert main(["replay", "--log", log, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True
    assert main(["verify", *size]) == 0
    assert "confirmed S_" in capsys.readouterr().out


def _label_equations_per_relation(pres, table, label_ids):
    out = bytearray()
    for i in range(pres.relation_count):
        lhs, rhs = pres.letters(i)
        out.append(table.evaluate(lhs, label_ids) == table.evaluate(rhs, label_ids))
    return out


@pytest.mark.parametrize("n,r", [(5, 3), (6, 4)])
def test_a_disagreeing_bucket_names_the_relations_that_fail(n, r):
    pres = build_presentation(n, r)
    table = ProductTable(r)
    label_ids = letter_label_ids(pres.generators, table)
    assert pres.label_equations(table, label_ids) == bytearray([1]) * pres.relation_count
    # the letter p of the first bottom relation p^-1 q = s^-1 t is given
    # another label, so the buckets that hold that p disagree
    first = pres.relation_count - pres.meta["bottom"]
    (p, _), _ = pres.letters(first)
    swap = table.intern((2, 1) + tuple(range(3, r + 1)))
    label_ids[p] = table.product(label_ids[p], swap)
    want = _label_equations_per_relation(pres, table, label_ids)
    assert want[first] == 0 and want.count(1) > first
    assert pres.label_equations(table, label_ids) == want


def test_a_short_bottom_family_is_reported(monkeypatch):
    real = presentation.enumerate_singular_squares

    def one_short(n, r):
        squares = real(n, r)
        next(squares)
        yield from squares

    monkeypatch.setattr(presentation, "enumerate_singular_squares", one_short)
    pres = build_presentation(5, 3)
    with pytest.raises(VerificationFailed, match="the bottom family holds 359 relations, not the 360 counted"):
        pres.letters(pres.relation_count - 1)
    # and again on the next read: a short family is never served
    with pytest.raises(VerificationFailed, match="the bottom family holds 0 relations"):
        pres.letters(pres.relation_count - 2)


@pytest.mark.parametrize("n,r", [(5, 3), (6, 4)])
def test_the_trust_path_makes_no_relation_of_the_presentation(monkeypatch, tmp_path, capsys, n, r):
    made = []
    init = Relation.__init__

    def recording(self, lhs, rhs, tag):
        made.append(tag)
        init(self, lhs, rhs, tag)

    monkeypatch.setattr(Relation, "__init__", recording)
    log = str(tmp_path / "log.json")
    size = ["--n", str(n), "--r", str(r)]
    assert main(["reduce", *size, "--log", log]) == 0
    assert main(["replay", "--log", log]) == 0
    assert main(["verify", *size, "--with-coset-oracle"]) == 0
    capsys.readouterr()
    assert made, "the recording constructor saw no relation at all"
    assert not {"top", "middle", "bottom"} & set(made)
    # reading the relations is what makes them
    build_presentation(n, r).relations
    assert {"top", "middle", "bottom"} <= set(made)


PERMS = [Permutation(p) for p in itertools.permutations(range(1, 5))]


LETTERS = st.tuples(st.integers(0, len(PERMS) - 1), st.sampled_from([1, -1]))


@given(st.lists(st.lists(LETTERS, max_size=8), max_size=6))
def test_one_product_table_evaluates_many_words(words):
    # products filled in for one word must serve the next: each word on the
    # shared table is its left fold from the identity
    table = ProductTable(4)
    images = letter_images(dict(enumerate(PERMS)))
    ids = {letter: table.intern(perm) for letter, perm in images.items()}
    for word in words:
        want = (1, 2, 3, 4)
        for letter in word:
            want = compose(want, images[letter])
        assert table.images[table.evaluate(word, ids)] == want
        assert table.evaluate(word, ids) == table.intern(want)
