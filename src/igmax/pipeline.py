"""Stepwise reduction of the idempotent-pair presentation to the Coxeter one.

The presentation built by :func:`igmax.presentation.build_presentation` has one
generator per (kernel, image) pair.  This module eliminates all but r-1 of
them through a logged sequence of derivation steps, each of which is locally
checkable: identity-labeled generators are driven to 1 through Schreier-word
and base citations, equal-labeled generators are identified along rows and
columns of singular squares, contiguous-cycle classes are split into products
of adjacent-transposition classes, higher-descent labels are reduced in place,
and the three Coxeter relation shapes are produced from explicit squares.
Finally every original relation is discharged through the accumulated
resolution map, leaving the standard presentation of the symmetric group.

Every step records its rule, premises (indices of earlier steps) and, where
relevant, the witness square, so :func:`replay_log` can re-verify a log from
scratch without trusting the producer.  The replay is what a verdict rests
on (``verify`` runs it on the log it has just produced), so none of the
producer's own checks is load-bearing: a construction that went wrong yields
a step the replay rejects.

The producer builds no presentation: it counts the relations off the SQ3
index and emits one discharge step per relation index.  The replay's
presentation is held as int letters (see
:class:`~igmax.presentation.GroupPresentation`).  A discharge step is a
:class:`DischargeStep`, an int holding that index, and a log's
:class:`StepList` holds each run of them, nearly all of a log, as one
``range``, so the producer, the writer, the reader
(:func:`igmax.logreader.read_log`) and the replay hold a run in constant
memory.  The replay checks that each discharged relation's generators are
resolved (looked up in a table indexed by generator number) and reads
whether its two sides have equal labels from a bitmap that :meth:`~igmax.presentation.GroupPresentation.label_equations`
fills in one pass over the top and middle relations and the SQ3 buckets of
the bottom family, on a product table over S_r
(:class:`~igmax.perms.ProductTable`), the table that also evaluates each
generator's resolution word.  The bottom family holds when each bucket's
members agree, so a passing replay never enumerates it, and no
:class:`Relation` of the presentation is made on the way.

Each kernel, image, generator and square is built and checked once per
(n, r), and the trust path holds them as the ids of
``squares._singular_index(n, r)``: a generator is the number of its
(kernel, image) pair, which is its number in the presentation; a step's
conclusion is a word of (generator id, exponent) letters, one tuple per
distinct letter (:class:`_Letters`); a witness square is the ids of its
two kernels and two images, tested by
:func:`~igmax.squares.is_singular_ids`.  Labels and their ids in a
product table are read off the index.  The producer computes with the
index's kernel and image objects and records ids; :meth:`DerivationLog.write`
turns the ids back into the v1 texts.  On the way in, ``read_log``
decodes each step when :meth:`DerivationLog.from_json` takes it, which
parses and validates each distinct text once and maps it to its id.  The
replay keeps one bottom relation per witness square and builds its own
presentation.

Each check has one copy.  Every rule reads a fact's shape (g = word, g = 1,
g = h) with the same readers, exponents included, and compares conclusions
whole; :meth:`Derivation.finish` and the ``coxeter-match`` step share one
Coxeter match.  The ``final`` snapshot must equal the Coxeter presentation's
JSON document, so any edit to it is a mismatch.

Step rules
----------

``middle``        f[P, minima(P)] = 1, by the base family.
``top``           f[P,X] = f[P,Y] when the Schreier word of Y extends the word
                  of X by the letter (P, Y).
``bottom``        the square relation of a proper singular square.
``corner``        three corners of a singular square are 1, so the fourth is.
``flush-row``     both generators of one row agree (or are both 1), so the
                  other row's generators agree.  Rows share a kernel.
``flush-column``  same with the roles of kernels and images swapped.
``three-quarter`` one corner is 1; the square relation solved for the corner
                  diagonal to it.
``transitive``    equational closure of earlier identity/equality facts.
``rewrite``       substitute earlier facts into an earlier relation.
``combine``       two derivations of the same generator word equated.
``discharge``     one original relation holds under the resolution map: its
                  generators are resolved and its two sides have equal labels.
``coxeter-match`` the surviving generators and derived relations are matched
                  against the Coxeter presentation.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Iterator, Optional, TextIO

from .combinatorics import Partition, Subset, require_transversal
from .errors import InvalidParameters, VerificationFailed
from .labels import label_by_subscripts
from .perms import (
    Permutation,
    classify_descent_one,
    contiguous_cycle,
    descent_number,
    letter_images,
    rightmost_descent,
)
from .presentation import (
    GeneratorId,
    GroupPresentation,
    GroupWord,
    Relation,
    build_presentation,
    canonical_relator_key,
    concat,
    coxeter_generators,
    coxeter_presentation,
    free_reduce,
    substitute,
)
from .schreier import IdempotentLetter, build_schreier, convex_partition_of, predecessor
from .squares import CORNERS, Square, _singular_index, _SingularIndex, is_singular_ids

Pair = tuple[Partition, Subset]
# a witness square as the ids of its kernels P, Q and images A, B in the index
SquareIds = tuple[int, int, int, int]

RULES = (
    "middle",
    "top",
    "bottom",
    "corner",
    "flush-row",
    "flush-column",
    "three-quarter",
    "transitive",
    "rewrite",
    "combine",
    "discharge",
    "coxeter-match",
)

def _gid(pair: Pair) -> GeneratorId:
    """A new generator of ``pair``, its label computed.  The derivation and
    the replay name generators by their ids in the index instead."""
    return GeneratorId.of(pair[0], pair[1])


class _Letters(dict):
    """``letters[g, e]``: the one tuple (g, e) kept for that letter, made on
    first use, so that the words of a log share their letters.  Only for
    int exponents: (g, True) is equal to (g, 1) and would be read as it."""

    __slots__ = ()

    def __missing__(self, key: tuple) -> tuple:
        self[key] = key
        return key


def _subject(rel: Relation) -> Optional[object]:
    """g when ``rel`` reads g = word with g a bare generator (exponent 1)."""
    if len(rel.lhs) == 1 and rel.lhs[0][1] == 1:
        return rel.lhs[0][0]
    return None


def _one_fact(rel: Relation) -> Optional[object]:
    """g when ``rel`` reads g = 1."""
    return _subject(rel) if rel.rhs == () else None


def _eq_fact(rel: Relation) -> Optional[tuple[object, object]]:
    """(g, h) when ``rel`` reads g = h, both bare generators."""
    g = _subject(rel)
    if g is None or len(rel.rhs) != 1 or rel.rhs[0][1] != 1:
        return None
    return g, rel.rhs[0][0]


def _one_relation(g: object, letters: _Letters) -> Relation:
    """g = 1."""
    return Relation((letters[g, 1],), (), "derived")


def _eq_relation(g: object, h: object, letters: _Letters) -> Relation:
    """g = h."""
    return Relation((letters[g, 1],), (letters[h, 1],), "derived")


def _corners(index: _SingularIndex, sq: SquareIds) -> tuple[int, int, int, int]:
    """The generator ids of the corners PA, PB, QA, QB of a witness square."""
    p, q, a, b = sq
    gen_p, gen_q = index.generator_of[p], index.generator_of[q]
    return gen_p[a], gen_p[b], gen_q[a], gen_q[b]


def _bottom_relation(corners: tuple, letters: _Letters) -> Relation:
    """The square relation PA^-1 PB = QA^-1 QB of the corner generators."""
    gpa, gpb, gqa, gqb = corners
    return Relation((letters[gpa, -1], letters[gpb, 1]), (letters[gqa, -1], letters[gqb, 1]), "derived")


def _three_quarter_relation(corners: tuple, zero: str, letters: _Letters) -> Relation:
    """The square relation of the corner generators with ``zero`` erased,
    solved for its diagonal."""
    gpa, gpb, gqa, gqb = corners
    target, (x, y) = {
        "PA": (gqb, (gqa, gpb)),
        "PB": (gqa, (gqb, gpa)),
        "QA": (gpb, (gpa, gqb)),
        "QB": (gpa, (gpb, gqa)),
    }[zero]
    return Relation((letters[target, 1],), (letters[x, 1], letters[y, 1]), "derived")


def _square_relation(sq: Square, zero: str) -> Relation:
    """:func:`_three_quarter_relation` of a square of the constructions,
    over new generators of its corners."""
    return _three_quarter_relation(tuple(map(_gid, sq.corner_pairs())), zero, _Letters())


def _coxeter_mismatch(relations: Iterable[Relation], canon: list[int], r: int) -> Optional[str]:
    """Why ``relations`` over the canonical generators, renamed in order to
    the Coxeter generators, are not the Coxeter relations up to rotation,
    inversion and side swap; None when they are."""
    rename = dict(zip(canon, coxeter_generators(r)))
    try:
        renamed = [
            Relation(*(tuple((rename[g], e) for g, e in word) for word in (rel.lhs, rel.rhs)), "derived")
            for rel in relations
        ]
    except KeyError:
        return "final relations must mention only canonical generators"
    target = coxeter_presentation(r).relations
    if sorted(map(canonical_relator_key, renamed)) != sorted(map(canonical_relator_key, target)):
        return "derived relations do not match the Coxeter presentation"
    return None


def _require_singular(index: _SingularIndex, sq: SquareIds) -> None:
    p, q, a, b = sq
    if p == q or a == b:
        raise InvalidParameters(f"square {_square_texts(index, sq)} is degenerate")
    if not is_singular_ids(index, p, q, a, b):
        raise VerificationFailed(f"square fails the singularity tests: {_square_texts(index, sq)}")


def _square_texts(index: _SingularIndex, sq: SquareIds) -> list[str]:
    """The texts of a witness square's kernels and images, as a log writes them."""
    p, q, a, b = sq
    return [str(index.parts[p]), str(index.parts[q]), str(index.subsets[a]), str(index.subsets[b])]


@dataclass(slots=True)
class DerivationStep:
    """One logged step of any rule but ``discharge`` (see
    :class:`DischargeStep`).  Not frozen: a frozen dataclass's constructor,
    which sets each field through ``object.__setattr__``, takes three times
    as long.  A discharge step parsed from another object than
    ``{"pz": i, "rule": "discharge"}`` with an int ``i`` is held as one of
    these, with its index in ``data["pz"]``.

    The conclusion's letters are (generator id, exponent) pairs and the
    witness square is the ids of its kernels and images, both numbered by
    ``squares._singular_index(n, r)``; ``to_json`` takes that index to name
    them as text (a discharge step needs none)."""

    rule: str
    conclusion: Optional[Relation]
    premises: tuple[int, ...] = ()
    square: Optional[SquareIds] = None
    data: Optional[dict] = None

    def to_json(self, index: Optional[_SingularIndex] = None) -> dict:
        if self.rule == "discharge":
            return {"rule": "discharge", "pz": self.data["pz"]}
        doc: dict = {"rule": self.rule, "premises": list(self.premises)}
        if self.conclusion is not None:
            doc["conclusion"] = {
                "lhs": _word_json(self.conclusion.lhs, index),
                "rhs": _word_json(self.conclusion.rhs, index),
            }
        if self.square is not None:
            doc["square"] = _square_texts(index, self.square)
        if self.data:
            doc["data"] = dict(self.data)
        return doc


class DischargeStep(int):
    """A discharge step, held as the index of the relation it discharges.

    A log holds one per relation, nearly all of its steps, in runs of
    consecutive indices that its :class:`StepList` holds as ranges; a
    DischargeStep is made when a step of a run is read, and is an int, not a
    :class:`DerivationStep` with a ``data`` dict.  It answers
    ``rule``, ``conclusion``, ``premises``, ``square``, ``data`` and
    ``to_json()`` as ``DerivationStep("discharge", None, (), None,
    {"pz": i})`` does, and prints as its index.

    >>> st = DischargeStep(7)
    >>> st.rule, st.data, st.to_json(), f"{st}", st
    ('discharge', {'pz': 7}, {'rule': 'discharge', 'pz': 7}, '7', DischargeStep(7))
    """

    __slots__ = ()
    rule = "discharge"
    conclusion = None
    premises = ()
    square = None

    @property
    def data(self) -> dict:
        return {"pz": int(self)}

    def to_json(self, index: object = None) -> dict:
        return {"rule": "discharge", "pz": int(self)}

    def __repr__(self) -> str:
        return f"DischargeStep({int(self)})"

    __str__ = int.__repr__


# the log text of a discharge step, as json.dumps with sorted keys writes it
_DISCHARGE_TEXT = '{"pz":%d,"rule":"discharge"}'
# a run of them: the indices joined by the text between two of them
_DISCHARGE_HEAD, _DISCHARGE_TAIL = _DISCHARGE_TEXT.split("%d")
_DISCHARGE_JOIN = _DISCHARGE_TAIL + "," + _DISCHARGE_HEAD
# the same for a step of any other rule: its "conclusion" and "data" entries,
# each ended by a comma, its premises, its rule, and its "square" entry led by
# a comma; an entry the step does not have is left empty
_STEP_TEXT = '{%s"premises":%s,"rule":%s%s}'
# DerivationLog.write encodes at most this many steps to one string
WRITE_CHUNK = 1024
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


class StepList:
    """A log's steps in order, each run of discharge steps of consecutive
    relation indices held as one ``range`` whose DischargeSteps are made
    when they are read, so a run's memory does not grow with its length.
    ``parts`` holds the runs and, between them, lists of the other steps.

    >>> steps = StepList([DischargeStep(3), DerivationStep("middle", None)])
    >>> steps.add_run(range(4, 9))
    >>> len(steps), steps[2], steps[-1], [type(part).__name__ for part in steps.parts]
    (7, DischargeStep(4), DischargeStep(8), ['range', 'list', 'range'])
    """

    def __init__(self, steps: Iterable = ()) -> None:
        self.parts: list = []
        self._starts: list[int] = []  # the index of each part's first step
        self._len = 0
        for st in steps:
            self.append(st)

    def append(self, step: object) -> int:
        """Append ``step``; return its index."""
        if type(step) is DischargeStep:
            self.add_run(range(step, step + 1))
        else:
            if not self.parts or type(self.parts[-1]) is range:
                self._starts.append(self._len)
                self.parts.append([])
            self.parts[-1].append(step)
            self._len += 1
        return self._len - 1

    def add_run(self, run: range) -> None:
        """Append a discharge step for each index of ``run``, a range of step 1."""
        if self.parts and type(self.parts[-1]) is range and self.parts[-1].stop == run.start:
            self.parts[-1] = range(self.parts[-1].start, run.stop)
        elif run:
            self._starts.append(self._len)
            self.parts.append(run)
        self._len += len(run)

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, i: int) -> object:
        if not -self._len <= i < self._len:
            raise IndexError("step index out of range")
        i %= self._len
        k = bisect_right(self._starts, i) - 1
        st = self.parts[k][i - self._starts[k]]
        return DischargeStep(st) if type(self.parts[k]) is range else st

    def __setitem__(self, i: int, step: object) -> None:
        steps = list(self)
        steps[i] = step
        StepList.__init__(self, steps)

    def __iter__(self) -> Iterator:
        return chain.from_iterable(map(DischargeStep, p) if type(p) is range else p for p in self.parts)



def _generator_json(index: _SingularIndex, g: object) -> list[str]:
    """The kernel and image texts of generator id ``g``."""
    if type(g) is not int:
        raise InvalidParameters("only concrete generators appear in logged words")
    k, a = index.pairs[g]
    return [str(index.parts[k]), str(index.subsets[a])]


def _word_json(word: GroupWord, index: _SingularIndex) -> list:
    return [[*_generator_json(index, g), e] for g, e in word]


@dataclass(eq=False)
class DerivationLog:
    """Ordered derivation steps (a :class:`StepList`, made of any sequence
    given) plus the final presentation snapshot, kept as the JSON document
    of the Coxeter presentation."""

    n: int
    r: int
    steps: StepList = field(default_factory=StepList)
    final: Optional[dict] = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if type(self.steps) is not StepList:
            self.steps = StepList(self.steps)

    def append(self, step: DerivationStep) -> int:
        return self.steps.append(step)

    def __len__(self) -> int:
        return len(self.steps)

    def _head(self) -> dict:
        """The log document without its steps."""
        return {
            "format": "igmax-derivation-log",
            "version": 1,
            "n": self.n,
            "r": self.r,
            "final": self.final,
            "meta": dict(self.meta),
        }

    def to_json(self) -> dict:
        index = _singular_index(self.n, self.r)
        return {**self._head(), "steps": [s.to_json(index) for s in self.steps]}

    def write(self, fh: TextIO) -> None:
        """Write ``json.dumps(self.to_json(), sort_keys=True,
        separators=(",", ":")) + "\\n"`` to ``fh``, byte for byte, without
        making that document or that string: the steps are encoded
        ``WRITE_CHUNK`` at a time, each as text without a dict.  A step
        fills a sorted-key template, ``_DISCHARGE_TEXT`` (a run of discharge
        steps is one join of their indices) or ``_STEP_TEXT``; each letter,
        each witness square and each rule is encoded once, its ids turned
        back into the kernel and image texts of
        ``squares._singular_index(n, r)``."""
        head = self._head()
        fh.write("{")
        for i, key in enumerate(sorted([*head, "steps"])):
            fh.write(("," if i else "") + _encode(key) + ":")
            if key == "steps":
                self._write_steps(fh)
            else:
                fh.write(_encode(head[key]))
        fh.write("}\n")

    def _write_steps(self, fh: TextIO) -> None:
        index = _singular_index(self.n, self.r)
        # each letter with an int exponent, each square's entry and each
        # rule's text is encoded once
        letters: dict[tuple, str] = {}
        squares: dict[SquareIds, str] = {}
        rules: dict[str, str] = {}

        def letter_text(g: object, e: object) -> str:
            return _encode([*_generator_json(index, g), e])

        def word_text(word: GroupWord) -> str:
            out = []
            for letter in word:
                if type(letter[1]) is int:
                    text = letters.get(letter)
                    if text is None:
                        text = letters[letter] = letter_text(*letter)
                else:  # (g, True) would find the text of (g, 1)
                    text = letter_text(*letter)
                out.append(text)
            return "[" + ",".join(out) + "]"

        def step_text(st: DerivationStep) -> str:
            if st.rule == "discharge":
                return _encode(st.to_json())
            c, sq, premises = st.conclusion, st.square, st.premises
            head = "" if c is None else '"conclusion":{"lhs":%s,"rhs":%s},' % (word_text(c.lhs), word_text(c.rhs))
            if st.data:
                head += '"data":%s,' % _encode(dict(st.data))
            tail = ""
            if sq is not None:
                tail = squares.get(sq)
                if tail is None:
                    tail = squares[sq] = ',"square":' + _encode(_square_texts(index, sq))
            rule = rules.get(st.rule) if type(st.rule) is str else _encode(st.rule)
            if rule is None:
                rule = rules[st.rule] = _encode(st.rule)
            if all(type(i) is int for i in premises):
                premises_text = "[" + ",".join(map(str, premises)) + "]"
            else:
                premises_text = _encode(list(premises))
            return _STEP_TEXT % (head, premises_text, rule, tail)

        fh.write("[")
        sep = ""
        for part in self.steps.parts:
            for i in range(0, len(part), WRITE_CHUNK):
                chunk = part[i : i + WRITE_CHUNK]
                if type(part) is range:
                    text = _DISCHARGE_HEAD + _DISCHARGE_JOIN.join(map(int.__repr__, chunk)) + _DISCHARGE_TAIL
                else:
                    text = ",".join(map(step_text, chunk))
                fh.write(sep + text)
                sep = ","
        fh.write("]")

    @staticmethod
    def case_of(doc: object) -> tuple[int, int]:
        """The (n, r) of a log document, checked as :meth:`from_json` checks
        it: ``doc`` must be a log document (else InvalidParameters) of
        version 1 with integers 1 <= r <= n-2 (else VerificationFailed).
        Nothing is built for (n, r), so a caller can hold n to a cap first."""
        if not isinstance(doc, dict) or doc.get("format") != "igmax-derivation-log":
            raise InvalidParameters("not a derivation log document")
        try:
            # a document without a version is read as the one version there is
            version = doc.get("version", 1)
            if type(version) is not int or version != 1:
                raise ValueError(f"unsupported log version {version!r}, this replayer reads version 1")
            n, r = doc["n"], doc["r"]
            if type(n) is not int or type(r) is not int:
                raise TypeError(f"n and r must be integers, got {n!r}, {r!r}")
            if not 1 <= r <= n - 2:
                raise ValueError(f"a reduction log needs 1 <= r <= n-2, got n={n}, r={r}")
        except (KeyError, TypeError, ValueError) as exc:
            raise VerificationFailed(f"malformed derivation log: {type(exc).__name__}: {exc}") from None
        return n, r

    @classmethod
    def from_json(cls, doc: dict) -> "DerivationLog":
        """Parse a log document, as json.loads or
        :func:`igmax.logreader.read_log` gives it;
        a malformed one raises VerificationFailed.

        The steps come out as the producer holds them: each distinct kernel
        and image text is parsed and validated once, then mapped to its id
        in ``squares._singular_index(n, r)``, and each (kernel, image) text
        pair to its generator id; a conclusion's letters are (generator id,
        exponent) pairs, one tuple per distinct pair, and a witness square
        is four ids.  A text that names no kernel or image of (n, r), and a
        pair or square that is not transversal, is malformed.  The index is
        built only after :meth:`case_of` has passed.

        Consumes the document's steps: a list is emptied as the log's steps
        are made, and read_log's iterator decodes each as it is taken, so
        the two are not held in full together.  A caller that reads ``doc``
        again passes a copy.  A ``range`` (read_log's run of discharge
        steps) and a discharge object of two keys with an int index are
        read as DischargeSteps; keys after the steps are checked last."""
        n, r = cls.case_of(doc)
        try:
            log = cls._parse(doc, _singular_index(n, r))
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise VerificationFailed(f"malformed derivation log: {type(exc).__name__}: {exc}") from None
        cls.case_of(doc)
        return log

    @classmethod
    def _parse(cls, doc: dict, index: _SingularIndex) -> "DerivationLog":
        n = index.n
        kernels: dict[str, tuple[Partition, Optional[int]]] = {}
        images: dict[str, tuple[Subset, Optional[int]]] = {}
        squares: dict[SquareIds, SquareIds] = {}
        letters = _Letters()

        def kernel(text: str) -> tuple[Partition, Optional[int]]:
            k = kernels.get(text)
            if k is None:
                p = Partition.parse(text, n)
                k = kernels[text] = (p, index.kernel_ids.get(p.blocks))
            return k

        def image(text: str) -> tuple[Subset, Optional[int]]:
            a = images.get(text)
            if a is None:
                s = Subset.parse(text, n)
                a = images[text] = (s, index.image_ids.get(s.elements))
            return a

        def generator(pt: str, at: str) -> int:
            (p, k), (a, i) = kernel(pt), image(at)
            g = None if k is None or i is None else index.generator_of[k].get(i)
            if g is None:
                require_transversal(a, p)  # a pair that is not transversal says so
                raise InvalidParameters(f"({p}, {a}) is not a generator of the presentation")
            return g

        def word(side: list) -> GroupWord:
            out = []
            for pt, at, e in side:
                g = generator(pt, at)
                out.append(letters[g, e] if type(e) is int else (g, e))
            return tuple(out)

        def square(texts: list) -> SquareIds:
            pt, qt, at, bt = texts
            (p, kp), (q, kq), (a, ia), (b, ib) = kernel(pt), kernel(qt), image(at), image(bt)
            key = (kp, kq, ia, ib)
            sq = squares.get(key)
            if sq is None:
                if None in key or None in (index.generator_of[k].get(i) for k in (kp, kq) for i in (ia, ib)):
                    Square((p, q), (a, b))  # a quadruple that is not a square says so
                    raise InvalidParameters(f"{list(texts)} is not a square of the presentation")
                sq = squares[key] = key
            return sq

        steps = StepList()
        for sd in _consumed(doc["steps"]):
            if type(sd) is range:
                steps.add_run(sd)
                continue
            rule = sd["rule"]
            if rule == "discharge":
                pz = sd["pz"]
                exact = len(sd) == 2 and type(pz) is int
                steps.append(DischargeStep(pz) if exact else DerivationStep("discharge", None, (), None, {"pz": pz}))
                continue
            conclusion = None
            if "conclusion" in sd:
                conclusion = Relation(
                    word(sd["conclusion"]["lhs"]),
                    word(sd["conclusion"]["rhs"]),
                    "derived",
                )
            sq = square(sd["square"]) if "square" in sd else None
            steps.append(DerivationStep(rule, conclusion, tuple(sd.get("premises", ())), sq, sd.get("data")))
        return cls(n=n, r=index.r, steps=steps, final=doc.get("final"), meta=doc.get("meta", {}))


def _consumed(items: object) -> Iterable:
    """The entries of ``items`` in order; a list is emptied as they are taken."""
    if type(items) is not list:
        yield from items
        return
    items.reverse()
    while items:
        yield items.pop()


# ---------------------------------------------------------------------------
# pure constructions
# ---------------------------------------------------------------------------
#
# Each construction computes the blocks and elements it needs and takes the
# kernels and images with them from ``squares._singular_index(n, r)``, so the
# derivation's kernels and images are the index's own objects.  A lookup
# miss raises InvalidParameters.


def canonical_cycle_pair(k: int, l: int, n: int, r: int) -> Pair:
    """The lex-least (kernel, image) pair whose label is the (k,l)-cycle.

    >>> p, a = canonical_cycle_pair(2, 1, 5, 3)
    >>> str(p), str(a)
    ('{{1,5},{2,4},{3}}', '{1,3,4}')
    """
    if not (1 <= k and l >= 1 and k + l <= r):
        raise InvalidParameters(f"need 1 <= k, 1 <= l, k+l <= {r}, got k={k}, l={l}")
    if not r <= n - 2:
        raise InvalidParameters(f"need r <= n-2, got r={r}, n={n}")
    blocks: list[tuple[int, ...]] = []
    if k == 1:
        blocks.append(tuple([1, l + 2] + list(range(r + 2, n + 1))))
    else:
        blocks.append(tuple([1] + list(range(r + 2, n + 1))))
        blocks.append((k, k + l + 1))
    for i in range(2, k):
        blocks.append((i,))
    for i in range(k + 1, k + l + 1):
        blocks.append((i,))
    for i in range(k + l + 1, r + 1):
        blocks.append((i + 1,))
    index = _singular_index(n, r)
    return index.kernel(blocks), index.image([i for i in range(1, r + 2) if i != k])


def cycle_split(k: int, l: int, n: int, r: int) -> tuple[Square, Relation]:
    """A singular square splitting the (k,l)-cycle class, l >= 2.

    The returned relation solves the square for its (Q,B) corner, whose label
    is the (k,l)-cycle; the two factors carry the adjacent transposition at k
    and the (k+1, l-1)-cycle.
    """
    if l < 2:
        raise InvalidParameters(f"cycle splitting needs l >= 2, got l={l}")
    if not (k >= 1 and k + l <= r and r <= n - 2):
        raise InvalidParameters(f"bad cycle split parameters k={k}, l={l}, n={n}, r={r}")
    junk = list(range(r + 3, n + 1))
    pblocks: list[tuple[int, ...]] = []
    qblocks: list[tuple[int, ...]] = []
    if k == 1:
        pblocks.append(tuple([1, 2] + junk))
        qblocks.append(tuple([1, 3, l + 3] + junk))
    else:
        pblocks.append(tuple([1] + junk))
        pblocks.append((k, k + 1))
        qblocks.append(tuple([1] + junk))
        qblocks.append((k, k + 2, k + l + 2))
    for i in range(2, k):
        pblocks.append((i,))
        qblocks.append((i,))
    pblocks.append((k + 2, k + l + 2))
    qblocks.append((k + 1,))
    for i in range(k + 2, k + l + 1):
        pblocks.append((i + 1,))
        qblocks.append((i + 1,))
    for i in range(k + l + 1, r + 1):
        pblocks.append((i + 2,))
        qblocks.append((i + 2,))
    index = _singular_index(n, r)
    p, q = index.kernel(pblocks), index.kernel(qblocks)
    a = index.image([i for i in range(1, r + 3) if i not in (k, k + l + 2)])
    b = index.image([i for i in range(1, r + 3) if i not in (k, k + 2)])
    sq = Square((p, q), (a, b))
    return sq, _square_relation(sq, "PA")


def descent_reduction(P: Partition, A: Subset) -> tuple[Partition, Subset, Relation]:
    """Split f[P,A] (label descent >= 2) across a singular square.

    Returns (Q, B, relation) with the relation solving the square for f[P,A]:
    the first factor's label is a contiguous cycle and the second factor's
    label has descent number exactly one less.
    """
    lam = label_by_subscripts(P, A)
    Q, B = _descent_partner(P, A, lam, _singular_index(P.n, len(P)))
    return Q, B, _square_relation(Square((P, Q), (A, B)), "QB")


def _descent_partner(
    P: Partition, A: Subset, lam: Permutation, index: _SingularIndex
) -> tuple[Partition, Subset]:
    """The (Q, B) of :func:`descent_reduction`, ``lam`` the label of (P, A)."""
    d = descent_number(lam)
    if d < 2:
        raise InvalidParameters(f"descent reduction needs descent >= 2, got {d}")
    n, r = P.n, len(P)
    loc = rightmost_descent(lam)
    v, w = loc.v, loc.w
    lv = lambda i: lam.images[i - 1]  # noqa: E731  - 1-based label entry
    av = lambda i: A.element_at(i)  # noqa: E731
    belems = (
        [P.minima[i - 1] for i in range(1, v)]
        + [av(lv(i)) for i in range(v + 1, v + w + 1)]
        + [av(lv(v))]
        + [av(lv(i)) for i in range(v + w + 1, r + 1)]
    )
    B = index.image(belems)
    blocks: list[tuple[int, ...]] = []
    singles_from = 2 if v == 1 else v
    for i in range(2, v):
        blocks.append(P.block(i))
    for i in range(singles_from, v + w):
        blocks.append((av(lv(i + 1)),))
    blocks.append((av(lv(v)),))
    for i in range(v + w + 1, r + 1):
        blocks.append((av(lv(i)),))
    used = {x for blk in blocks for x in blk}
    rest = [x for x in range(1, n + 1) if x not in used]
    if v == 1:
        first = sorted(set(rest) - set(A.elements) | {av(lv(2))})
        blocks.append(tuple(first))
    else:
        blocks.append(tuple(rest))
    return index.kernel(blocks), B


def coxeter_square_involution(k: int, n: int, r: int) -> tuple[Square, Relation]:
    """The square forcing the square of the k-th surviving class to be 1."""
    if not (1 <= k <= r - 1 and r <= n - 2):
        raise InvalidParameters(f"involution square needs 1 <= k <= r-1 <= n-3, got k={k}, n={n}, r={r}")
    junk = list(range(r + 3, n + 1))
    pblocks: list[tuple[int, ...]] = []
    qblocks: list[tuple[int, ...]] = []
    if k == 1:
        pblocks.append(tuple([1, 3] + junk))
        qblocks.append(tuple([1, 2, 4] + junk))
    else:
        pblocks.append(tuple([1] + junk))
        pblocks.append((k, k + 2))
        qblocks.append(tuple([1, k] + junk))
        qblocks.append((k + 1, k + 3))
    for i in range(2, k):
        pblocks.append((i,))
        qblocks.append((i,))
    pblocks.append((k + 1, k + 3))
    qblocks.append((k + 2,))
    for i in range(k + 2, r + 1):
        pblocks.append((i + 2,))
        qblocks.append((i + 2,))
    index = _singular_index(n, r)
    p, q = index.kernel(pblocks), index.kernel(qblocks)
    a = index.image([i for i in range(1, r + 3) if i not in (k, k + 3)])
    b = index.image([i for i in range(1, r + 3) if i not in (k, k + 1)])
    sq = Square((p, q), (a, b))
    g = _gid(canonical_cycle_pair(k, 1, n, r))
    return sq, Relation((), ((g, 1), (g, 1)), "derived")


def coxeter_square_commute(k: int, l: int, n: int, r: int) -> tuple[tuple[Square, Square], Relation]:
    """Two chained squares forcing distant surviving classes to commute."""
    if not (1 <= k and k + 1 < l and l + 1 <= r and r <= n - 2):
        raise InvalidParameters(f"commute squares need k+1 < l <= r-1 <= n-3, got k={k}, l={l}, n={n}, r={r}")
    junk = list(range(r + 3, n + 1))
    pblocks: list[tuple[int, ...]] = []
    qblocks: list[tuple[int, ...]] = []
    rblocks: list[tuple[int, ...]] = []
    if k == 1:
        pblocks.append(tuple([1, 3, l + 1] + junk))
        qblocks.append(tuple([1, 3] + junk))
        rblocks.append(tuple([1, 2] + junk))
    else:
        pblocks.append(tuple([1, l + 1] + junk))
        pblocks.append((k, k + 2))
        qblocks.append(tuple([1] + junk))
        qblocks.append((k, k + 2))
        rblocks.append(tuple([1, k] + junk))
    for i in range(2, k):
        pblocks.append((i,))
        qblocks.append((i,))
        rblocks.append((i,))
    pblocks.append((k + 1,))
    qblocks.append((k + 1,))
    for i in range(max(k, 2), l):
        rblocks.append((i + 1,))
    for i in range(k + 2, l):
        pblocks.append((i + 1,))
        qblocks.append((i + 1,))
    for i in range(l, r + 1):
        pblocks.append((i + 2,))
    qblocks.append((l + 1, l + 3))
    rblocks.append((l + 1, l + 3))
    qblocks.append((l + 2,))
    rblocks.append((l + 2,))
    for i in range(l + 2, r + 1):
        qblocks.append((i + 2,))
        rblocks.append((i + 2,))
    index = _singular_index(n, r)
    p, q, rr = index.kernel(pblocks), index.kernel(qblocks), index.kernel(rblocks)
    a = index.image([i for i in range(1, r + 3) if i not in (k + 2, l + 1)])
    b = index.image([i for i in range(1, r + 3) if i not in (k, l + 1)])
    c = index.image([i for i in range(1, r + 3) if i not in (k, l + 3)])
    sq1 = Square((p, q), (a, b))
    sq2 = Square((q, rr), (b, c))
    gk = _gid(canonical_cycle_pair(k, 1, n, r))
    gl = _gid(canonical_cycle_pair(l, 1, n, r))
    rel = Relation(((gl, 1), (gk, 1)), ((gk, 1), (gl, 1)), "derived")
    return (sq1, sq2), rel


def coxeter_square_braid(k: int, n: int, r: int) -> tuple[Square, Relation]:
    """The square behind the braid relation for adjacent surviving classes."""
    if not (1 <= k <= r - 2 and r <= n - 2):
        raise InvalidParameters(f"braid square needs 1 <= k <= r-2 <= n-4, got k={k}, n={n}, r={r}")
    junk = list(range(r + 3, n + 1))
    pblocks: list[tuple[int, ...]] = []
    qblocks: list[tuple[int, ...]] = []
    if k == 1:
        pblocks.append(tuple([1, 2, 5] + junk))
        qblocks.append(tuple([1, 5] + junk))
    else:
        pblocks.append(tuple([1] + junk))
        pblocks.append((k, k + 1, k + 4))
        qblocks.append(tuple([1] + junk))
        qblocks.append((k, k + 4))
    for i in range(2, k):
        pblocks.append((i,))
        qblocks.append((i,))
    pblocks.append((k + 2,))
    pblocks.append((k + 3,))
    qblocks.append((k + 1, k + 3))
    qblocks.append((k + 2,))
    for i in range(k + 3, r + 1):
        pblocks.append((i + 2,))
        qblocks.append((i + 2,))
    index = _singular_index(n, r)
    p, q = index.kernel(pblocks), index.kernel(qblocks)
    a = index.image([i for i in range(1, r + 3) if i not in (k + 1, k + 4)])
    b = index.image([i for i in range(1, r + 3) if i not in (k, k + 1)])
    sq = Square((p, q), (a, b))
    gk = _gid(canonical_cycle_pair(k, 1, n, r))
    gk1 = _gid(canonical_cycle_pair(k + 1, 1, n, r))
    rel = Relation(((gk1, 1), (gk, 1), (gk1, 1)), ((gk, 1), (gk1, 1), (gk, 1)), "derived")
    return sq, rel


def _braid_mirror_square(k: int, n: int, r: int) -> Square:
    """Companion square giving the second factorisation used for the braid.

    Its kernels are the involution square's second kernel and the braid
    square's second kernel, over the involution image and the shared image B.
    Both label quotients equal the adjacent transposition at k.
    """
    inv_sq, _ = coxeter_square_involution(k, n, r)
    braid_sq, _ = coxeter_square_braid(k, n, r)
    w = inv_sq.kernels[1]
    z = inv_sq.images[0]
    qb = braid_sq.kernels[1]
    b = braid_sq.images[1]
    return Square((w, qb), (z, b))


# ---------------------------------------------------------------------------
# the derivation engine
# ---------------------------------------------------------------------------


class Derivation:
    """Fact store and step emitter over one (n, r) ground case.

    Its constructions compute with the kernel and image objects of
    ``squares._singular_index(n, r)``, looked up by blocks and by elements,
    and everything it records is held as the index's ids: a generator is
    its pair's id (the presentation's generator of that number), a
    conclusion's letters are (generator id, exponent) pairs, one tuple per
    distinct pair (:class:`_Letters`), and a witness square is the ids of
    its two kernels and two images, checked singular on ids
    (:func:`~igmax.squares.is_singular_ids`) once, when it is first made.
    The memos are keyed by generator id.  Labels, and the relation count
    (:meth:`~igmax.squares._SingularIndex.family_sizes`), are read off the
    index: no presentation is built.
    """

    def __init__(self, n: int, r: int):
        if not (1 <= r <= n - 2):
            raise InvalidParameters(f"derivations cover 1 <= r <= n-2, got r={r}, n={n}")
        self.n = n
        self.r = r
        self.log = DerivationLog(n=n, r=r)
        self.index = _singular_index(n, r)
        # _gen(P, A): the generator id of the pair (P, A)
        self._gen = self.index.generator
        self.labels = self.index.labels
        self.letters = _Letters()
        self._one_memo: dict[int, int] = {}
        self._eq_memo: dict[int, int] = {}
        self._res_memo: dict[int, tuple[Optional[int], GroupWord]] = {}
        self._rep_memo: dict[tuple[int, int], Pair] = {}
        self._squares: dict[SquareIds, SquareIds] = {}
        self._final_steps: list[int] = []

    def _swap(self, A: Subset, old: int, new: int) -> Subset:
        """The image ``A`` with its element ``old`` swapped for ``new``."""
        return self.index.image([new if x == old else x for x in A.elements])

    def _square(self, p: Partition, q: Partition, a: Subset, b: Subset) -> SquareIds:
        """The ids of the square over (p, q, a, b), one tuple per distinct
        square.  The producer checks each distinct witness square (SQ3 and
        SQ2, on ids) here, once; the constructions that build squares do
        not check their own.  Each square made here is the witness of a
        bottom step."""
        key = self.index.square(p, q, a, b)
        sq = self._squares.get(key)
        if sq is None:
            _require_singular(self.index, key)
            sq = self._squares[key] = key
        return sq

    def _made(self, sq: Square) -> SquareIds:
        """The derivation's own square for a square a construction built."""
        return self._square(*sq.kernels, *sq.images)

    def _add(
        self,
        rule: str,
        conclusion: Optional[Relation],
        premises: Iterable[int] = (),
        square: Optional[Square] = None,
        data: Optional[dict] = None,
    ) -> int:
        return self.log.append(DerivationStep(rule, conclusion, tuple(premises), square, data))

    def _bottom(self, sq: SquareIds) -> int:
        """Emit the square relation of ``sq``, a square of :meth:`_square`."""
        return self._add("bottom", _bottom_relation(_corners(self.index, sq), self.letters), square=sq)

    def _three_quarter(self, sq: SquareIds, zero: str, bottom_idx: int, one_idx: int) -> int:
        return self._add(
            "three-quarter",
            _three_quarter_relation(_corners(self.index, sq), zero, self.letters),
            (bottom_idx, one_idx),
            square=sq,
            data={"zero": zero},
        )

    def _rewrite(self, base_idx: int, sub_idxs: Iterable[Optional[int]]) -> int:
        subs = [i for i in sub_idxs if i is not None]
        base = self.log.steps[base_idx].conclusion
        lhs, rhs = base.lhs, base.rhs
        for i in subs:
            fact = self.log.steps[i].conclusion
            (g, _), = fact.lhs
            lhs = substitute(lhs, g, fact.rhs, self.letters)
            rhs = substitute(rhs, g, fact.rhs, self.letters)
        conclusion = Relation(free_reduce(lhs), free_reduce(rhs), "derived")
        return self._add("rewrite", conclusion, (base_idx, *subs))

    # -- identity-label facts ------------------------------------------------

    def one(self, P: Partition, A: Subset) -> int:
        """A step concluding f[P,A] = 1; the label must be the identity."""
        g = self._gen(P, A)
        idx = self._one_memo.get(g)
        if idx is not None:
            return idx
        if not self.labels[g].is_identity():
            raise InvalidParameters(
                f"{self.index.name(g)} has label {self.labels[g].cycle_form()}, not the identity"
            )
        idx = self._one_convex(P, A, g) if P.is_convex() else self._one_general(P, A, g)
        self._one_memo[g] = idx
        return idx

    def _middle(self, P: Partition, AP: Subset) -> int:
        return self._add("middle", _one_relation(self._gen(P, AP), self.letters))

    def _top(self, P: Partition, X: Subset, Y: Subset) -> int:
        return self._add("top", _eq_relation(self._gen(P, X), self._gen(P, Y), self.letters))

    def _one_convex(self, P: Partition, A: Subset, g: int) -> int:
        AP = self.index.image(P.minima)
        if A == AP:
            return self._middle(P, AP)
        r = self.r
        if P.minima == tuple(range(1, r + 1)):
            # Blocks {1},...,{r-1},[r,n]: walk the free element down to r.
            B = self.index.image(predecessor(A).elements)
            s_prev = self.one(P, B)
            s_top = self._top(P, B, A)
            return self._add("transitive", _one_relation(g, self.letters), (s_prev, s_top))
        m = next(i for i in range(1, r + 1) if P.block(i) != (i,))
        t = next(i for i in range(1, r + 1) if A.element_at(i) != P.minima[i - 1])
        if t == m:
            am = A.element_at(m)
            B = self._swap(A, am, am - 1)
            Q = self.index.kernel(convex_partition_of(A).blocks)
            s_top = self._top(Q, B, A)
            s_one_b = self.one(P, B)
            if P == Q:
                return self._add("transitive", _one_relation(g, self.letters), (s_one_b, s_top))
            sq = self._square(Q, P, B, A)
            s_b = self._bottom(sq)
            s_fl = self._add(
                "flush-row",
                _eq_relation(self._gen(P, B), g, self.letters),
                (s_b, s_top),
                square=sq,
            )
            return self._add("transitive", _one_relation(g, self.letters), (s_one_b, s_fl))
        # t > m: shrink block m by one and recurse on the lex-smaller minima.
        x = P.minima[m] - 1
        blocks = [list(b) for b in P.blocks]
        blocks[m - 1].remove(x)
        blocks[m].insert(0, x)
        Q = self.index.kernel(blocks)
        sq = self._square(P, Q, A, AP)
        s1 = self.one(Q, A)
        s2 = self.one(Q, AP)
        s3 = self.one(P, AP)
        s_b = self._bottom(sq)
        return self._add(
            "corner",
            _one_relation(g, self.letters),
            (s_b, s1, s2, s3),
            square=sq,
            data={"target": "PA"},
        )

    def _one_general(self, P: Partition, A: Subset, g: int) -> int:
        AP = self.index.image(P.minima)
        if A == AP:
            return self._middle(P, AP)
        r = self.r
        m = next(i for i in range(1, r + 1) if A.element_at(i) != P.minima[i - 1])
        starts = list(P.minima[:m]) + [A.element_at(i) for i in range(m + 1, r + 1)]
        B = self.index.image(starts)
        blocks = [tuple(range(starts[i], starts[i + 1])) for i in range(r - 1)]
        blocks.append(tuple(range(starts[-1], self.n + 1)))
        Q = self.index.kernel(blocks)
        sq = self._square(P, Q, A, B)
        s1 = self.one(P, B)
        s2 = self.one(Q, A)
        s3 = self.one(Q, B)
        s_b = self._bottom(sq)
        return self._add(
            "corner",
            _one_relation(g, self.letters),
            (s_b, s1, s2, s3),
            square=sq,
            data={"target": "PA"},
        )

    # -- row and column identifications --------------------------------------

    def same_row(self, P: Partition, A: Subset, B: Subset) -> Optional[int]:
        """A step concluding f[P,A] = f[P,B] for equal labels; None if A == B."""
        if A == B:
            return None
        ga, gb = self._gen(P, A), self._gen(P, B)
        pi = self.labels[ga]
        if pi != self.labels[gb]:
            raise InvalidParameters("same-row identification needs equal labels")
        if pi.is_identity():
            s1 = self.one(P, A)
            s2 = self.one(P, B)
            return self._add("transitive", _eq_relation(ga, gb, self.letters), (s1, s2))
        blocks: list[tuple[int, ...]] = []
        used: set[int] = set()
        for i in range(2, self.r + 1):
            blk = {A.element_at(i), B.element_at(i)}
            blocks.append(tuple(sorted(blk)))
            used |= blk
        blocks.append(tuple(x for x in range(1, self.n + 1) if x not in used))
        Q = self.index.kernel(blocks)
        sq = self._square(P, Q, A, B)
        s1 = self.one(Q, A)
        s2 = self.one(Q, B)
        s_b = self._bottom(sq)
        return self._add("flush-row", _eq_relation(ga, gb, self.letters), (s_b, s1, s2), square=sq)

    def _shared_transversal_eq(self, P: Partition, Q: Partition, A: Subset, B: Subset) -> int:
        """f[P,A] = f[Q,A] via the identity column B common to both kernels."""
        s1 = self.one(P, B)
        s2 = self.one(Q, B)
        sq = self._square(P, Q, B, A)
        s_b = self._bottom(sq)
        return self._add(
            "flush-column",
            _eq_relation(self._gen(P, A), self._gen(Q, A), self.letters),
            (s_b, s1, s2),
            square=sq,
        )

    def same_column(self, P: Partition, Q: Partition, A: Subset) -> Optional[int]:
        """A step concluding f[P,A] = f[Q,A] for equal labels; None if P == Q."""
        if P == Q:
            return None
        ga, gq = self._gen(P, A), self._gen(Q, A)
        pi = self.labels[ga]
        if pi != self.labels[gq]:
            raise InvalidParameters("same-column identification needs equal labels")
        if pi.is_identity():
            s1 = self.one(P, A)
            s2 = self.one(Q, A)
            return self._add("transitive", _eq_relation(ga, gq, self.letters), (s1, s2))
        if P.minima == Q.minima:
            return self._shared_transversal_eq(P, Q, A, self.index.image(P.minima))
        u = 0
        while P.minima[u] == Q.minima[u]:
            u += 1
        if P.minima[u] > Q.minima[u]:
            s = self.same_column(Q, P, A)
            return self._add("transitive", _eq_relation(ga, gq, self.letters), (s,))
        x = P.minima[u]
        v = Q.block_index(x)
        blocks = [list(b) for b in Q.blocks]
        blocks[v - 1].remove(x)
        blocks[u].append(x)
        R = self.index.kernel(blocks)
        s1 = self.same_column(P, R, A)
        s2 = self._shared_transversal_eq(Q, R, A, self.index.image(Q.minima))
        premises = tuple(s for s in (s1, s2) if s is not None)
        return self._add("transitive", _eq_relation(ga, gq, self.letters), premises)

    # -- contiguous-cycle classes --------------------------------------------

    def rep_pair(self, k: int, l: int) -> Pair:
        if (k, l) not in self._rep_memo:
            self._rep_memo[(k, l)] = canonical_cycle_pair(k, l, self.n, self.r)
        return self._rep_memo[(k, l)]

    def cycle_eq(self, P: Partition, A: Subset) -> Optional[int]:
        """Chain f[P,A] to its class representative; None when already there."""
        ga = self._gen(P, A)
        kl = classify_descent_one(self.labels[ga])
        if kl is None:
            raise InvalidParameters(f"label of ({P}, {A}) is not a contiguous cycle")
        k, l = kl
        rep = self.rep_pair(k, l)
        if (P, A) == rep:
            return None
        if ga in self._eq_memo:
            return self._eq_memo[ga]
        conclusion = _eq_relation(ga, self._gen(*rep), self.letters)
        if A == rep[1]:
            s = self.same_column(P, rep[0], A)
            self._eq_memo[ga] = idx = self._add("transitive", conclusion, (s,))
            return idx
        case_i = next(
            (i for i in range(1, k) if A.element_at(i) != P.minima[i - 1]), None
        )
        if case_i is not None:
            A2 = self._swap(A, A.element_at(case_i), P.minima[case_i - 1])
            s1 = self.same_row(P, A, A2)
            s2 = self.cycle_eq(P, A2)
            self._eq_memo[ga] = idx = self._add("transitive", conclusion, tuple(s for s in (s1, s2) if s is not None))
            return idx
        t = next((i for i in range(1, k) if A.element_at(i) > i), None)
        if t is None:
            t = next(i for i in range(k, self.r + 1) if A.element_at(i) > i + 1)
        at = A.element_at(t)
        d = at - 1
        pk = P.minima[k - 1]
        Q = self._cycle_scaffold(P, A, k, l)
        if d != pk:
            target = Q.block_index(at)
            if Q.block_index(d) == target:
                Qp = Q
            else:
                blocks = [list(b) for b in Q.blocks]
                blocks[0].remove(d)
                blocks[target - 1].append(d)
                Qp = self.index.kernel(blocks)
        else:
            blocks = [list(b) for b in Q.blocks]
            blocks[0].remove(k)
            blocks[k - 1].remove(pk)
            blocks[k - 1].append(k)
            blocks[k].append(pk)
            Qp = self.index.kernel(blocks)
        A2 = self._swap(A, at, d)
        s1 = self.same_column(P, Qp, A)
        s2 = self.same_row(Qp, A, A2)
        s3 = self.cycle_eq(Qp, A2)
        premises = tuple(s for s in (s1, s2, s3) if s is not None)
        self._eq_memo[ga] = idx = self._add("transitive", conclusion, premises)
        return idx

    def _cycle_scaffold(self, P: Partition, A: Subset, k: int, l: int) -> Partition:
        """The comparison kernel from the cycle-class chaining argument."""
        blocks: list[tuple[int, ...]] = []
        for i in range(2, k):
            blocks.append((A.element_at(i),))
        if k != 1:
            blocks.append(tuple(sorted((P.minima[k - 1], A.element_at(k + l)))))
        for i in range(k + 1, k + l + 1):
            blocks.append((A.element_at(i - 1),))
        for i in range(k + l + 1, self.r + 1):
            blocks.append((A.element_at(i),))
        used = {x for blk in blocks for x in blk}
        rest = [x for x in range(1, self.n + 1) if x not in used]
        if k == 1:
            rest.append(A.element_at(l + 1))
            blocks.append(tuple(sorted(set(rest))))
        else:
            blocks.append(tuple(rest))
        return self.index.kernel(blocks)

    # -- resolution to canonical classes -------------------------------------

    def resolve(self, P: Partition, A: Subset) -> tuple[Optional[int], GroupWord]:
        """Express f[P,A] as a word over the r-1 canonical class generators.

        Returns (step index, word); the index is None exactly for the
        canonical adjacent-transposition pairs themselves.
        """
        g = self._gen(P, A)
        out = self._res_memo.get(g)
        if out is not None:
            return out
        lam = self.labels[g]
        if lam.is_identity():
            out = (self.one(P, A), ())
        else:
            kl = classify_descent_one(lam)
            if kl is not None:
                out = self._resolve_cycle(P, A, *kl)
            else:
                out = self._resolve_descent(P, A, lam)
        self._res_memo[g] = out
        return out

    def _resolve_cycle(self, P: Partition, A: Subset, k: int, l: int) -> tuple[Optional[int], GroupWord]:
        rep = self.rep_pair(k, l)
        if (P, A) == rep:
            if l == 1:
                return None, (self.letters[self._gen(*rep), 1],)
            split = cycle_split(k, l, self.n, self.r)[0]
            sq = self._made(split)
            (ps, qs), (as_, bs) = split.kernels, split.images
            s_b = self._bottom(sq)
            s_one = self.one(ps, as_)
            s_tq = self._three_quarter(sq, "PA", s_b, s_one)
            s_eq = self.cycle_eq(qs, bs)
            i1, w1 = self.resolve(qs, as_)
            i2, w2 = self.resolve(ps, bs)
            idx = self._rewrite(s_tq, (s_eq, i1, i2))
            word = free_reduce(concat(w1, w2))
            return idx, word
        s_eq = self.cycle_eq(P, A)
        ri, rw = self.resolve(*rep)
        if ri is None:
            return s_eq, rw
        idx = self._rewrite(s_eq, (ri,))
        return idx, rw

    def _resolve_descent(self, P: Partition, A: Subset, lam: Permutation) -> tuple[int, GroupWord]:
        Q, B = _descent_partner(P, A, lam, self.index)
        sq = self._square(P, Q, A, B)
        s_b = self._bottom(sq)
        s_one = self.one(Q, B)
        s_tq = self._three_quarter(sq, "QB", s_b, s_one)
        i1, w1 = self.resolve(P, B)
        i2, w2 = self.resolve(Q, A)
        idx = self._rewrite(s_tq, (i1, i2))
        word = free_reduce(concat(w1, w2))
        return idx, word

    # -- the three Coxeter relation families ----------------------------------

    def derive_involution(self, k: int) -> int:
        made = coxeter_square_involution(k, self.n, self.r)[0]
        sq = self._made(made)
        (p, q), (a, b) = made.kernels, made.images
        s_b = self._bottom(sq)
        s_one_qa = self.one(q, a)
        s_tq = self._three_quarter(sq, "QA", s_b, s_one_qa)
        s_one_pb = self.one(p, b)
        i_pa, w_pa = self.resolve(p, a)
        i_qb, w_qb = self.resolve(q, b)
        idx = self._rewrite(s_tq, (s_one_pb, i_pa, i_qb))
        self._final_steps.append(idx)
        return idx

    def derive_commute(self, k: int, l: int) -> int:
        made1, made2 = coxeter_square_commute(k, l, self.n, self.r)[0]
        sq1, sq2 = self._made(made1), self._made(made2)
        (p, q), (a, b) = made1.kernels, made1.images
        rr, c = made2.kernels[1], made2.images[1]
        s_b1 = self._bottom(sq1)
        s_one_pa = self.one(p, a)
        s_tq1 = self._three_quarter(sq1, "PA", s_b1, s_one_pa)
        s_b2 = self._bottom(sq2)
        s_one_rc = self.one(rr, c)
        s_tq2 = self._three_quarter(sq2, "QB", s_b2, s_one_rc)
        s_comb = self._add(
            "combine",
            Relation(self.log.steps[s_tq1].conclusion.rhs, self.log.steps[s_tq2].conclusion.rhs, "derived"),
            (s_tq1, s_tq2),
        )
        i_qa, _ = self.resolve(q, a)
        i_pb, _ = self.resolve(p, b)
        i_qc, _ = self.resolve(q, c)
        i_rb, _ = self.resolve(rr, b)
        idx = self._rewrite(s_comb, (i_qa, i_pb, i_qc, i_rb))
        self._final_steps.append(idx)
        return idx

    def derive_braid(self, k: int) -> int:
        sq, _ = coxeter_square_braid(k, self.n, self.r)
        q, b = sq.kernels[1], sq.images[1]
        i_qb, w_qb = self.resolve(q, b)
        made = _braid_mirror_square(k, self.n, self.r)
        mirror = self._made(made)
        w, z = made.kernels[0], made.images[0]
        s_b = self._bottom(mirror)
        s_one = self.one(w, z)
        s_tq = self._three_quarter(mirror, "PA", s_b, s_one)
        i_qz, _ = self.resolve(q, z)
        i_wb, _ = self.resolve(w, b)
        s_rw = self._rewrite(s_tq, (i_qz, i_wb))
        alt = self.log.steps[s_rw].conclusion
        idx = self._add("combine", Relation(w_qb, alt.rhs, "derived"), (i_qb, s_rw))
        self._final_steps.append(idx)
        return idx

    # -- closing out -----------------------------------------------------------

    def canonical_pairs(self) -> list[Pair]:
        return [self.rep_pair(k, 1) for k in range(1, self.r)]

    def canonical_generators(self) -> list[int]:
        return [self._gen(*pair) for pair in self.canonical_pairs()]

    def assert_survivors(self) -> None:
        canon = set(self.canonical_generators())
        survivors = {g for g, (idx, _) in self._res_memo.items() if idx is None}
        name = self.index.name
        if survivors != canon:
            raise VerificationFailed(
                f"survivors {sorted(map(name, survivors))} != canonical generators {sorted(map(name, canon))}"
            )
        for g, (_, word) in self._res_memo.items():
            for h, _e in word:
                if h not in canon:
                    raise VerificationFailed(f"resolution of {name(g)} mentions non-canonical {name(h)}")

    def discharge_all(self) -> None:
        """Check that the resolution map ρ sends every generator g to a word
        with eval(ρ(g)) = label(g), then emit one discharge step per original
        relation.  Evaluation in S_r and the label map are homomorphisms, so a
        relation u = v then holds under ρ exactly when label(u) = label(v);
        :func:`replay_log` checks that equation for each discharge step.  The
        steps need only the relation count, so no relation is read here,
        and are one run, held as one range."""
        table, label_ids, name = self.index.product_table, self.index.letter_label_ids, self.index.name
        images = letter_images({g: self.labels[g] for g in self.canonical_generators()})
        canonical = {x: table.intern(image) for x, image in images.items()}
        for g in range(len(self.index.pairs)):
            res = self._res_memo.get(g)
            if res is None:
                raise VerificationFailed(f"no resolution for {name(g)}")
            if table.evaluate(res[1], canonical) != label_ids[2 * g]:
                raise VerificationFailed(f"resolution of {name(g)} does not evaluate to its label")
        self.log.steps.add_run(range(sum(self.index.family_sizes())))

    def finish(self) -> GroupPresentation:
        canon = self.canonical_pairs()
        mismatch = _coxeter_mismatch(
            (self.log.steps[i].conclusion for i in self._final_steps), self.canonical_generators(), self.r
        )
        if mismatch is not None:
            raise VerificationFailed(mismatch)
        self._add(
            "coxeter-match",
            None,
            tuple(self._final_steps),
            data={"canonical": [[str(p), str(a)] for p, a in canon]},
        )
        target = coxeter_presentation(self.r)
        self.log.final = target.to_json()
        self.log.meta.update(
            {
                "steps": len(self.log),
                "generators": len(self.index.pairs),
                "relations": sum(self.index.family_sizes()),
                "survivors": self.r - 1,
            }
        )
        return target


def run_pipeline(n: int, r: int) -> tuple[GroupPresentation, DerivationLog]:
    """Reduce the full (n, r) presentation to the Coxeter presentation.

    Resolves every generator to a word over the r-1 canonical
    adjacent-transposition classes, derives the Coxeter relations among them,
    discharges every original relation through the resolution map, and
    returns the target presentation with the complete derivation log.
    The generators are the pairs of ``squares._singular_index(n, r)``,
    resolved in their order (generator i is pair i), and the relations
    only counted, so no presentation is built.

    >>> final, log = run_pipeline(4, 2)
    >>> len(final.generators), len(final.relations)
    (1, 1)
    """
    eng = Derivation(n, r)
    parts, subsets = eng.index.parts, eng.index.subsets
    for k, a in eng.index.pairs:
        eng.resolve(parts[k], subsets[a])
    eng.assert_survivors()
    if r >= 2:
        for k in range(1, r):
            eng.derive_involution(k)
        for k in range(1, r - 1):
            eng.derive_braid(k)
        for k in range(1, r):
            for l in range(k + 2, r):
                eng.derive_commute(k, l)
    eng.discharge_all()
    final = eng.finish()
    return final, eng.log


# ---------------------------------------------------------------------------
# independent replay
# ---------------------------------------------------------------------------


@dataclass
class ReplayReport:
    n: int
    r: int
    steps_checked: int
    failures: tuple[tuple[int, str], ...]
    discharged: int
    relations: int
    final_matches: bool

    @property
    def ok(self) -> bool:
        return not self.failures and self.discharged == self.relations and self.final_matches

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "r": self.r,
            "steps_checked": self.steps_checked,
            "failures": [[i, msg] for i, msg in self.failures],
            "discharged": self.discharged,
            "relations": self.relations,
            "final_matches": self.final_matches,
            "ok": self.ok,
        }


class _ReplayFailure(Exception):
    pass


def replay_log(log: DerivationLog, pres: Optional[GroupPresentation] = None) -> ReplayReport:
    """Re-verify every step of a log from scratch.

    Rebuilds the Schreier system, re-checks each witness square, re-derives
    every conclusion from its premises, discharges each relation on its
    labels (see :meth:`Derivation.discharge_all`), checks that the canonical
    generators carry the adjacent transpositions, and finally compares the
    surviving presentation against the Coxeter target.  Nothing from the
    producing run is trusted beyond the step records themselves.  ``pres``,
    when given, must be ``build_presentation(log.n, log.r)``; it is
    otherwise built here.

    The steps hold ids of ``squares._singular_index(n, r)``, as
    :meth:`DerivationLog.from_json` and :class:`Derivation` make them, and
    every check works on them: each distinct witness square is tested once
    by :func:`~igmax.squares.is_singular_ids`, the transitive rule joins
    generator ids (-1 stands for the identity) in a union-find, the rewrite
    rule substitutes id words, a generator's resolution is a byte of a
    table indexed by generator id, words are evaluated on the index's
    product table, and the Coxeter match renames the canonical ids.  A
    failure names a generator as the log does, ``f[P|A]``.

    A discharge step, a :class:`DischargeStep` or a DerivationStep of rule
    ``discharge``, is checked before any other rule: its index must name a
    relation; while some generator of the presentation is unresolved, each
    of the relation's generators must be resolved; and its two sides must
    have equal labels, a bit read from the bitmap that
    :meth:`~igmax.presentation.GroupPresentation.label_equations` fills on
    the first discharge.  That bitmap checks the bottom family per SQ3
    bucket and does not read it unless a bucket disagrees; once every
    generator is resolved, a discharge reads no relation's letters, so a
    passing replay never enumerates the bottom family.
    The steps are read in order, premises by index, from any sequence; the
    runs of a :class:`StepList` are read as their indices.
    """
    n, r = log.n, log.r
    if pres is None:
        pres = build_presentation(n, r)
    sch = build_schreier(n, r)
    index = _singular_index(n, r)
    parts, subsets, pairs, labels, name = index.parts, index.subsets, index.pairs, index.labels, index.name
    relations = pres.relation_count
    # one bottom relation per witness square
    letters = _Letters()
    bottoms: dict[SquareIds, Relation] = {}

    def bottom_relation(sq: SquareIds) -> Relation:
        rel = bottoms.get(sq)
        if rel is None:
            rel = bottoms[sq] = _bottom_relation(_corners(index, sq), letters)
        return rel

    canon_pairs = [canonical_cycle_pair(k, 1, n, r) for k in range(1, r)]
    canon_list = [index.generator(p, a) for p, a in canon_pairs]
    canon_gens = set(canon_list)
    # words are evaluated on the index's product table: a canonical letter
    # and each int letter (2*i for generator i, 2*i+1 for its inverse) carry
    # the id of their label; ``resolved[i]`` says whether generator i is
    # resolved.  Generator i of the presentation is pair i of the index.
    table, label_ids = index.product_table, index.letter_label_ids
    images = letter_images({g: labels[g] for g in canon_gens})
    canonical = {x: table.intern(image) for x, image in images.items()}
    resolved = bytearray(len(pairs))
    unresolved = len(pairs)  # generators not yet resolved
    holds: Optional[bytearray] = None  # holds[i]: relation i holds on labels
    discharged = bytearray(relations)
    singular: dict[SquareIds, bool] = {}
    failures: list[tuple[int, str]] = []
    verified = bytearray(len(log.steps))
    match_seen = False

    def resolve(g: int) -> None:
        nonlocal unresolved
        if not resolved[g]:
            resolved[g] = 1
            unresolved -= 1

    for g in canon_gens:
        resolve(g)

    def premise(idx: int, i: int) -> DerivationStep:
        # bool and float indices compare equal to ints: hold them to int
        if type(i) is not int or not 0 <= i < idx:
            raise _ReplayFailure(f"premise {i} out of range")
        if not verified[i]:
            raise _ReplayFailure(f"premise {i} was not verified")
        return log.steps[i]

    def discharge(pz: object) -> None:
        """Discharge relation ``pz``: a DischargeStep, or the ``pz`` of a
        discharge step read as a DerivationStep."""
        nonlocal holds
        if type(pz) not in (int, DischargeStep) or not 0 <= pz < relations:
            raise _ReplayFailure(f"relation index {pz} out of range")
        if unresolved:
            lhs, rhs = pres.letters(pz)
            for letter in lhs + rhs:
                if not resolved[letter >> 1]:
                    g = name(letter >> 1)
                    raise _ReplayFailure(f"no resolution for {g}")
        if holds is None:
            holds = pres.label_equations(table, label_ids)
        if not holds[pz]:
            raise _ReplayFailure(f"relation {pz} does not hold under the resolution map")
        discharged[pz] = 1

    def check(idx: int, st: DerivationStep) -> None:
        rule = st.rule
        if rule not in RULES:
            raise _ReplayFailure(f"unknown rule {rule!r}")
        # every later check compares exponents with ==, which true and 1.0 pass
        c = st.conclusion
        if c is not None and any(type(e) is not int for _, e in c.lhs + c.rhs):
            raise _ReplayFailure("conclusion exponents must be ints")
        if rule == "middle":
            g = _one_fact(st.conclusion)
            if g is None or subsets[pairs[g][1]].elements != parts[pairs[g][0]].minima:
                raise _ReplayFailure("middle step must conclude f[P, minima(P)] = 1")
        elif rule == "top":
            pair = _eq_fact(st.conclusion)
            if pair is None:
                raise _ReplayFailure("top step must conclude an equality of two generators")
            (k1, a1), (k2, a2) = pairs[pair[0]], pairs[pair[1]]
            if k1 != k2:
                raise _ReplayFailure("top step generators must share a kernel")
            word = sch.word_to(subsets[a1]) + (IdempotentLetter(parts[k1], subsets[a2]),)
            if word != sch.word_to(subsets[a2]):
                raise _ReplayFailure("Schreier words do not certify the top citation")
        elif rule == "bottom":
            sq = st.square
            if sq is None:
                raise _ReplayFailure("bottom step needs its witness square")
            p, q, a, b = sq
            if p == q or a == b:
                raise _ReplayFailure("witness square is degenerate")
            # each distinct square is tested once; every step citing it reports
            ok = singular.get(sq)
            if ok is None:
                ok = singular[sq] = is_singular_ids(index, p, q, a, b)
            if not ok:
                raise _ReplayFailure("witness square is not singular")
            if st.conclusion != bottom_relation(sq):
                raise _ReplayFailure("bottom conclusion is not the square relation")
        elif rule in ("corner", "flush-row", "flush-column", "three-quarter"):
            sq = st.square
            if sq is None:
                raise _ReplayFailure(f"{rule} step needs its witness square")
            base = premise(idx, st.premises[0])
            want = bottom_relation(sq)
            if base.rule != "bottom" or base.conclusion != want:
                raise _ReplayFailure("first premise must be the square's bottom relation")
            (gpa, _), (gpb, _) = want.lhs
            (gqa, _), (gqb, _) = want.rhs
            corners = dict(zip(CORNERS, (gpa, gpb, gqa, gqb)))
            if rule == "corner":
                target = st.data["target"]
                ones = set()
                for i in st.premises[1:]:
                    g = _one_fact(premise(idx, i).conclusion)
                    if g is None:
                        raise _ReplayFailure("corner premises must be identity facts")
                    ones.add(g)
                others = {g for c, g in corners.items() if c != target}
                if ones != others:
                    raise _ReplayFailure("corner premises must cover the three other corners")
                want_c = _one_relation(corners[target], letters)
                if st.conclusion != want_c:
                    raise _ReplayFailure("corner conclusion must zero the target corner")
            elif rule == "three-quarter":
                zero = st.data["zero"]
                g = _one_fact(premise(idx, st.premises[1]).conclusion)
                if g != corners[zero]:
                    raise _ReplayFailure("second premise must zero the stated corner")
                want_c = _three_quarter_relation(tuple(corners.values()), zero, letters)
                if st.conclusion != want_c:
                    raise _ReplayFailure("three-quarter conclusion has the wrong solved form")
            else:
                p, q, a, b = sq
                rest = [premise(idx, i).conclusion for i in st.premises[1:]]
                if rule == "flush-row":
                    sides = {p: (corners["PA"], corners["PB"]), q: (corners["QA"], corners["QB"])}
                else:
                    sides = {a: (corners["PA"], corners["QA"]), b: (corners["PB"], corners["QB"])}
                got = _flush_source(rest, sides)
                want_c = _eq_relation(*next(gens for key, gens in sides.items() if key != got), letters)
                if st.conclusion != want_c:
                    raise _ReplayFailure(f"{rule} conclusion does not transfer to the other side")
        elif rule == "transitive":
            # generator ids, and -1 for the identity
            parent: dict[int, int] = {}

            def find(x):
                parent.setdefault(x, x)
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            def link(rel: Relation) -> Optional[tuple]:
                """(g, -1) for g = 1, (g, h) for g = h, None for any other shape."""
                g = _one_fact(rel)
                return (g, -1) if g is not None else _eq_fact(rel)

            for i in st.premises:
                pair = link(premise(idx, i).conclusion)
                if pair is None:
                    raise _ReplayFailure("transitive premises must be identity or equality facts")
                parent[find(pair[0])] = find(pair[1])
            pair = link(st.conclusion)
            if pair is None:
                raise _ReplayFailure("transitive conclusion must be an identity or equality fact")
            if find(pair[0]) != find(pair[1]):
                if pair[1] == -1:
                    raise _ReplayFailure("identity conclusion is not connected to 1")
                raise _ReplayFailure("equality conclusion is not connected")
        elif rule == "rewrite":
            base = premise(idx, st.premises[0]).conclusion
            lhs, rhs = base.lhs, base.rhs
            for i in st.premises[1:]:
                fact = premise(idx, i).conclusion
                g = _subject(fact)
                if g is None:
                    raise _ReplayFailure("substitution premises need a bare generator on the left")
                if any(h == g for h, _ in fact.rhs):
                    raise _ReplayFailure("substitution must eliminate its generator")
                lhs = substitute(lhs, g, fact.rhs)
                rhs = substitute(rhs, g, fact.rhs)
            if (free_reduce(lhs), free_reduce(rhs)) != (st.conclusion.lhs, st.conclusion.rhs):
                raise _ReplayFailure("rewrite conclusion does not follow from the substitutions")
        elif rule == "combine":
            if len(st.premises) != 2:
                raise _ReplayFailure("combine takes exactly two premises")
            c1 = premise(idx, st.premises[0]).conclusion
            c2 = premise(idx, st.premises[1]).conclusion
            if c1.lhs != c2.lhs:
                raise _ReplayFailure("combine premises must share their left side")
            if (st.conclusion.lhs, st.conclusion.rhs) != (c1.rhs, c2.rhs):
                raise _ReplayFailure("combine conclusion must equate the two right sides")
        elif rule == "coxeter-match":
            nonlocal match_seen
            stated = [
                (Partition.parse(pt, n), Subset.parse(at, n)) for pt, at in st.data["canonical"]
            ]
            if stated != canon_pairs:
                raise _ReplayFailure("stated canonical pairs are not the expected ones")
            for k, g in enumerate(canon_list, start=1):
                if labels[g] != contiguous_cycle(k, 1, r):
                    raise _ReplayFailure(f"canonical pair {k} does not carry the adjacent transposition")
            mismatch = _coxeter_mismatch([premise(idx, i).conclusion for i in st.premises], canon_list, r)
            if mismatch is not None:
                raise _ReplayFailure(mismatch)
            match_seen = True

    def note_resolution(rel: Optional[Relation]) -> None:
        """g is resolved by its first fact g = word over the canonical
        generators; a sound step's word evaluates to g's label."""
        g = None if rel is None else _subject(rel)
        if g is None or resolved[g] or not all(h in canon_gens for h, _ in rel.rhs):
            return
        if table.evaluate(rel.rhs, canonical) != label_ids[2 * g]:
            g = name(g)  # as the log names it
            raise _ReplayFailure(f"the word for {g} does not evaluate to its label")
        resolve(g)

    # discharge steps are nearly all of a log: dispatch them first, those of
    # a StepList's runs as their ints.  Once every generator is resolved and
    # the bitmap is filled, one is checked inline, a range check and one bit;
    # any other outcome goes through discharge(), which names the failure
    steps = chain.from_iterable(log.steps.parts) if type(log.steps) is StepList else log.steps
    for idx, st in enumerate(steps):
        discharge_step = type(st) is int or type(st) is DischargeStep
        if discharge_step and holds is not None and not unresolved and 0 <= st < relations and holds[st]:
            discharged[st] = 1
            verified[idx] = 1
            continue
        try:
            if discharge_step:
                discharge(st)
            elif st.rule == "discharge":
                discharge(st.data["pz"])
            else:
                check(idx, st)
                note_resolution(st.conclusion)
        except _ReplayFailure as exc:
            failures.append((idx, str(exc)))
            continue
        except Exception as exc:  # malformed step data
            failures.append((idx, f"{type(exc).__name__}: {exc}"))
            continue
        verified[idx] = 1

    final_matches = match_seen and log.final == coxeter_presentation(r).to_json()
    return ReplayReport(
        n=n,
        r=r,
        steps_checked=len(log.steps),
        failures=tuple(failures),
        discharged=discharged.count(1),
        relations=relations,
        final_matches=final_matches,
    )


def _flush_source(rest: list[Relation], sides: dict) -> object:
    """Which kernel/image the flush premises certify; raises on mismatch."""
    if len(rest) == 1:
        pair = _eq_fact(rest[0])
        for key, gens in sides.items():
            if pair == gens:
                return key
        raise _ReplayFailure("flush premise equality does not match either side")
    if len(rest) == 2:
        got = set()
        for rel in rest:
            g = _one_fact(rel)
            if g is None:
                raise _ReplayFailure("flush premises must be identity facts")
            got.add(g)
        for key, gens in sides.items():
            if got == set(gens):
                return key
        raise _ReplayFailure("flush identity premises do not cover one side")
    raise _ReplayFailure("flush steps take one equality or two identity premises")
