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
from igmax.perms import ProductTable, compose, invert
from igmax.pipeline import run_pipeline
from igmax.presentation import (
    GroupPresentation,
    Relation,
    RelationFamilies,
    build_presentation,
    relation_families,
)
from igmax.squares import _singular_index
from words_reference import letter_images

CASES = [(n, r) for n in range(3, 7) for r in range(1, n - 1)]


def letters_of(families):
    return [families.letters(i) for i in range(families.relation_count)]


@pytest.mark.parametrize("n,r", CASES)
def test_letters_are_the_relations(n, r):
    # generator i is letter 2*i, its inverse 2*i + 1
    pres = build_presentation(n, r)
    families = pres.families
    index = {g: i for i, g in enumerate(pres.generators)}
    want = [
        tuple(tuple(2 * index[g] + (e < 0) for g, e in side) for side in (rel.lhs, rel.rhs))
        for rel in pres.relations
    ]
    assert letters_of(families) == want
    assert families.relation_count == len(pres.relations)
    tags = [rel.tag for rel in pres.relations]
    assert [families.tag(i) for i in range(len(want))] == tags
    assert pres.meta["bottom"] == Counter(tags)["bottom"]
    # a presentation made by hand from those letters gives the same relations
    by_hand = GroupPresentation(pres.generators, RelationFamilies(want, tags, generator_count=len(index)), pres.meta)
    assert by_hand.relations == pres.relations


def _unread(index):
    raise AssertionError(f"the bottom family of ({index.n},{index.r}) was read")


@pytest.mark.parametrize("n,r", [(5, 3), (6, 3), (6, 4)])
def test_reduce_never_enumerates_the_bottom_family(monkeypatch, n, r):
    # the families read the bottom relations only when one is asked for,
    # so the stand-in raises only then
    with monkeypatch.context() as mp:
        mp.setattr(presentation, "read_bottom", _unread)
        _, log = run_pipeline(n, r)
    assert log.meta["relations"] == len(build_presentation(n, r).relations)


@pytest.mark.parametrize("n,r", [(6, 3), (6, 4)])
def test_replay_checks_the_bottom_family_without_reading_it(monkeypatch, tmp_path, capsys, n, r):
    # the bottom family holds on labels when each SQ3 bucket's members agree,
    # so neither replay nor verify's in-memory replay enumerates it
    log = str(tmp_path / "log.json")
    size = ["--n", str(n), "--r", str(r)]
    monkeypatch.setattr(presentation, "read_bottom", _unread)
    assert main(["reduce", *size, "--log", log]) == 0
    capsys.readouterr()
    assert main(["replay", "--log", log, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True
    assert main(["verify", *size]) == 0
    assert "confirmed S_" in capsys.readouterr().out


def _failing_per_relation(families, table, label_ids):
    """The relations whose two sides have other labels, each evaluated."""
    out = []
    for i in range(families.relation_count):
        lhs, rhs = families.letters(i)
        if table.evaluate(lhs, label_ids) != table.evaluate(rhs, label_ids):
            out.append(i)
    return out


@pytest.mark.parametrize("n,r", [(5, 3), (6, 4)])
def test_a_disagreeing_bucket_names_the_relations_that_fail(n, r):
    families = relation_families(n, r)
    everything = range(families.relation_count)
    # a fresh table, and the labels' ids in it, which this test changes
    table = ProductTable(r)
    label_ids = [table.intern(p) for lam in _singular_index(n, r).labels for p in (lam, invert(lam))]
    assert list(families.label_failures(table, label_ids)(everything)) == []
    # the letter p of the first bottom relation p^-1 q = s^-1 t is given
    # another label, so the buckets that hold that p disagree
    first = families.relation_count - families.bottom
    (p, _), _ = families.letters(first)
    swap = table.intern((2, 1) + tuple(range(3, r + 1)))
    label_ids[p] = table.product(label_ids[p], swap)
    want = _failing_per_relation(families, table, label_ids)
    assert first in want and families.relation_count - len(want) > first
    assert list(families.label_failures(table, label_ids)(everything)) == want


def test_a_short_bottom_family_is_reported(monkeypatch):
    real = presentation.read_bottom

    def one_short(index):
        return real(index)[4:]

    monkeypatch.setattr(presentation, "read_bottom", one_short)
    # families that have not read their bottom relations yet
    relation_families.cache_clear()
    families = relation_families(5, 3)
    with pytest.raises(VerificationFailed, match="the bottom family holds 359 relations, not the 360 counted"):
        families.letters(families.relation_count - 1)
    # and again on the next read: a short family is never served
    with pytest.raises(VerificationFailed, match="the bottom family holds 359 relations"):
        families.letters(families.relation_count - 2)


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
    # the producer and the checker hold their conclusions as int letter words too
    assert made == []
    # reading the relations is what makes them, so the stand-in counts
    build_presentation(n, r).relations
    assert {"top", "middle", "bottom"} <= set(made)


PERMS = list(itertools.permutations(range(1, 5)))


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
