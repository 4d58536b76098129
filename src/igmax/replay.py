"""The derivation log (format version 2), its writer and reader, and the
checker that a verdict rests on: the trusted base.

:func:`replay_log` re-verifies a log from scratch and trusts nothing of the
run that wrote it beyond the step records.  It imports nothing from the
producer, builds no presentation and no kernel or image.  Off
``squares._singular_index(n, r)`` it reads the pair numbering, the labels
and their ids in a product table, the top and middle relations as the id
tables ``top_of`` and ``min_image``, and the block arrays of
:func:`~igmax.squares.is_singular_ids`; through
:func:`~igmax.presentation.relation_families`, made from the same index,
the relation count, the top and middle words, the bottom family's bucket
letters and, on a failing run only, one relation's letters.

A step records its rule, its premises (indices of earlier steps) and, where
relevant, its witness square, all as ids of the index, in the log as in
memory: a generator is the number of its (kernel, image) pair in
``index.pairs``; a conclusion is an :class:`Equation` of two int letter
words (letter 2g is generator g, 2g + 1 its inverse, the letters of
``index.letters``), which the log writes as ``[generator id, exponent]``
letters; a witness square is ``[p, q, a, b]``, the ids of its kernels in
``index.parts`` and of its images in ``index.subsets``; ``coxeter-match``
lists the canonical generators' ids.  The parser range-checks these ints
(an int that is not a bool, inside the index, an exponent 1 or -1, a
square's four corners generators) and parses no kernel or image text.
``LOG_FORMAT.md`` states the numbering and every rule.  A discharge step is
a :class:`DischargeStep`, an int holding a relation index; a
:class:`StepList` holds each run of them as one ``range``, and
:func:`read_log` reads a log a piece at a time, so a run is written, read
and checked in constant memory.  Every rule reads a fact's shape (g = word,
g = 1, g = h) with the same readers and compares conclusions whole.  The
``final`` snapshot must equal the Coxeter presentation's JSON document.

Step rules
----------

``middle``        f[P, minima(P)] = 1, by the base family.
``top``           f[P,X] = f[P,Y] when X is Y's predecessor and P its convex
                  kernel: ``index.top_of[Y]`` is (P, X).
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
import re
from bisect import bisect_right
from itertools import chain
from typing import Iterable, Iterator, NamedTuple, Optional, TextIO

from .errors import InvalidParameters, VerificationFailed
from .perms import contiguous_cycle
from .presentation import (
    Word,
    coxeter_presentation,
    free_reduce,
    relation_families,
    relator_key,
    substitute,
    word_json,
)
from .squares import CORNERS, _singular_index, _SingularIndex, is_singular_ids

# a witness square as the ids of its kernels P, Q and images A, B in the index
SquareIds = tuple[int, int, int, int]

# the log format this module writes and reads
LOG_VERSION = 2

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


class Equation(NamedTuple):
    """A conclusion lhs = rhs, each side a word of int letters."""

    lhs: Word
    rhs: Word


def _subject(fact: Equation) -> Optional[int]:
    """g when ``fact`` reads g = word with g a bare generator (not inverted)."""
    lhs = fact.lhs
    if len(lhs) == 1 and not lhs[0] & 1:
        return lhs[0] >> 1
    return None


def _one_fact(fact: Equation) -> Optional[int]:
    """g when ``fact`` reads g = 1."""
    return _subject(fact) if fact.rhs == () else None


def _eq_fact(fact: Equation) -> Optional[tuple[int, int]]:
    """(g, h) when ``fact`` reads g = h, both bare generators."""
    g, rhs = _subject(fact), fact.rhs
    if g is None or len(rhs) != 1 or rhs[0] & 1:
        return None
    return g, rhs[0] >> 1


def _one_relation(g: int, letters: list[int]) -> Equation:
    """g = 1, its letters taken from ``letters`` (an index's ``letters``)."""
    return Equation((letters[2 * g],), ())


def _eq_relation(g: int, h: int, letters: list[int]) -> Equation:
    """g = h."""
    return Equation((letters[2 * g],), (letters[2 * h],))


def _corners(index: _SingularIndex, sq: SquareIds) -> tuple[int, int, int, int]:
    """The generator ids of the corners PA, PB, QA, QB of a witness square."""
    p, q, a, b = sq
    gen_p, gen_q = index.generator_of[p], index.generator_of[q]
    return gen_p[a], gen_p[b], gen_q[a], gen_q[b]


def _bottom_relation(corners: tuple, letters: list[int]) -> Equation:
    """The square relation PA^-1 PB = QA^-1 QB of the corner generators."""
    gpa, gpb, gqa, gqb = corners
    return Equation((letters[2 * gpa + 1], letters[2 * gpb]), (letters[2 * gqa + 1], letters[2 * gqb]))


def _three_quarter_relation(corners: tuple, zero: str, letters: list[int]) -> Equation:
    """The square relation of the corner generators with ``zero`` erased,
    solved for its diagonal."""
    gpa, gpb, gqa, gqb = corners
    target, (x, y) = {
        "PA": (gqb, (gqa, gpb)),
        "PB": (gqa, (gqb, gpa)),
        "QA": (gpb, (gpa, gqb)),
        "QB": (gpa, (gpb, gqa)),
    }[zero]
    return Equation((letters[2 * target],), (letters[2 * x], letters[2 * y]))


def _coxeter_mismatch(relations: Iterable[Equation], canon: list[int], r: int) -> Optional[str]:
    """Why ``relations`` over the canonical generators, the k-th renamed to
    the Coxeter generator g(k+1), letter 2k, are not the Coxeter relations up
    to rotation, inversion and side swap; None when they are."""
    rename = {2 * g + e: 2 * k + e for k, g in enumerate(canon) for e in (0, 1)}
    try:
        keys = sorted(
            relator_key(tuple(map(rename.__getitem__, rel.lhs)), tuple(map(rename.__getitem__, rel.rhs)))
            for rel in relations
        )
    except KeyError:
        return "final relations must mention only canonical generators"
    if keys != sorted(relator_key(lhs, rhs) for lhs, rhs in coxeter_presentation(r).families.words):
        return "derived relations do not match the Coxeter presentation"
    return None


class DerivationStep:
    """One logged step of any rule but ``discharge`` (see
    :class:`DischargeStep`).  Not frozen: a constructor that sets each field
    through ``object.__setattr__``, as a frozen class's does, takes three
    times as long.

    The conclusion is an :class:`Equation` of int letters and the witness
    square is the ids of its kernels and images, both numbered by
    ``squares._singular_index(n, r)``; ``to_json`` writes a letter x as
    ``[x >> 1, 1]``, or ``[x >> 1, -1]`` when x is odd, and a square as it
    is."""

    __slots__ = ("rule", "conclusion", "premises", "square", "data")

    def __init__(self, rule: str, conclusion: Optional[Equation], premises: tuple[int, ...] = (),
                 square: Optional[SquareIds] = None, data: Optional[dict] = None):
        self.rule = rule
        self.conclusion = conclusion
        self.premises = premises
        self.square = square
        self.data = data

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)

    def to_json(self) -> dict:
        doc: dict = {"rule": self.rule, "premises": list(self.premises)}
        if self.conclusion is not None:
            doc["conclusion"] = {"lhs": word_json(self.conclusion.lhs), "rhs": word_json(self.conclusion.rhs)}
        if self.square is not None:
            doc["square"] = list(self.square)
        if self.data:
            doc["data"] = dict(self.data)
        return doc


class DischargeStep(int):
    """A discharge step, held as the index of the relation it discharges.

    A log holds one per relation, nearly all of its steps, in runs of
    consecutive indices that its :class:`StepList` holds as ranges; a
    DischargeStep is made when a step of a run is read.  It is the one form
    of a discharge step: it answers ``rule``, ``conclusion``, ``premises``
    and ``square`` as a :class:`DerivationStep` does, ``to_json()`` gives
    its log record, and it prints as its index.

    >>> st = DischargeStep(7)
    >>> st.rule, st.premises, st.to_json(), f"{st}", st
    ('discharge', (), {'rule': 'discharge', 'pz': 7}, '7', DischargeStep(7))
    """

    __slots__ = ()
    rule = "discharge"
    conclusion = None
    premises = ()
    square = None

    def to_json(self) -> dict:
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

    def __iter__(self) -> Iterator:
        return chain.from_iterable(map(DischargeStep, p) if type(p) is range else p for p in self.parts)


class DerivationLog:
    """Ordered derivation steps (a :class:`StepList`, made of any sequence
    given, a new one by default) plus the final presentation snapshot, kept
    as the JSON document of the Coxeter presentation."""

    def __init__(self, n: int, r: int, steps: Iterable = (), final: Optional[dict] = None, meta: Optional[dict] = None):
        self.n, self.r, self.final = n, r, final
        self.steps = steps if type(steps) is StepList else StepList(steps)
        self.meta = {} if meta is None else meta

    def append(self, step: DerivationStep) -> int:
        return self.steps.append(step)

    def __len__(self) -> int:
        return len(self.steps)

    def _head(self) -> dict:
        """The log document without its steps."""
        return {
            "format": "igmax-derivation-log",
            "version": LOG_VERSION,
            "n": self.n,
            "r": self.r,
            "final": self.final,
            "meta": dict(self.meta),
        }

    def to_json(self) -> dict:
        return {**self._head(), "steps": [s.to_json() for s in self.steps]}

    def write(self, fh: TextIO) -> None:
        """Write ``json.dumps(self.to_json(), sort_keys=True,
        separators=(",", ":")) + "\\n"`` to ``fh``, byte for byte, without
        making that document or that string: the steps are encoded
        ``WRITE_CHUNK`` at a time, each as text without a dict.  A step
        fills a sorted-key template, ``_DISCHARGE_TEXT`` (a run of discharge
        steps is one join of their indices) or ``_STEP_TEXT``; each letter,
        each witness square and each rule is encoded once."""
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
        # each letter, each square's entry and each rule's text is encoded once
        letters: dict[int, str] = {}
        squares: dict[SquareIds, str] = {}
        rules: dict[str, str] = {}

        def word_text(word: Word) -> str:
            out = []
            for x in word:
                text = letters.get(x)
                if text is None:
                    text = letters[x] = _encode([x >> 1, -1 if x & 1 else 1])
                out.append(text)
            return "[" + ",".join(out) + "]"

        def step_text(st: DerivationStep) -> str:
            c, sq, premises = st.conclusion, st.square, st.premises
            head = "" if c is None else '"conclusion":{"lhs":%s,"rhs":%s},' % (word_text(c.lhs), word_text(c.rhs))
            if st.data:
                head += '"data":%s,' % _encode(dict(st.data))
            tail = ""
            if sq is not None:
                tail = squares.get(sq)
                if tail is None:
                    tail = squares[sq] = ',"square":' + _encode(sq)
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
    def case_of(doc: object, steps_read: bool = False) -> tuple[int, int]:
        """The (n, r) of a log document, checked as :meth:`from_json` checks
        it: ``doc`` must be a log document (else InvalidParameters) of
        version 2 with integers 1 <= r <= n-2 (else VerificationFailed).
        A document without a version passes only while its steps are
        :func:`read_log`'s iterator and not ``steps_read``: the iterator
        reads the version after the steps, and :meth:`from_json` checks
        again once they are read.  Nothing is built for (n, r), so a caller
        can hold n to a cap first."""
        if not isinstance(doc, dict) or doc.get("format") != "igmax-derivation-log":
            raise InvalidParameters("not a derivation log document")
        try:
            if steps_read or "version" in doc or not isinstance(doc.get("steps"), Iterator):
                _require_version(doc)
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
        """Parse a log document, as json.loads or :func:`read_log` gives
        it; a malformed one raises VerificationFailed.

        The steps are ids of ``squares._singular_index(n, r)`` in the log as
        in memory, and each is range-checked: a letter's generator id and a
        square's kernel and image ids must be ints (not bools) inside the
        index, an exponent must be the int 1 or -1, and a square's four
        corners must be generators.  A letter [g, e] is read as the int
        letter 2g, or 2g + 1 when e is -1, taken from ``index.letters``, and
        a witness square is one tuple per distinct square.  The index is
        built only after :meth:`case_of` has passed.

        Consumes the document's steps: a list is emptied as the log's steps
        are made, and read_log's iterator decodes each as it is taken, so
        the two are not held in full together.  A caller that reads ``doc``
        again passes a copy.  A ``range`` (read_log's run of discharge
        steps) is read as its DischargeSteps, and a discharge record must be
        ``{"pz": i, "rule": "discharge"}`` with an int ``i`` (not a bool),
        else the log is malformed; an ``i`` outside the relations fails its
        step in the replay.  Keys after the steps are checked last; when
        a step is malformed, read_log's iterator is read to its end first,
        so that a log of another version says so, whatever its steps."""
        n, r = cls.case_of(doc)
        try:
            log = cls._parse(doc, _singular_index(n, r))
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            problem = f"malformed derivation log: {type(exc).__name__}: {exc}"
            steps = doc.get("steps")
            if isinstance(steps, Iterator):
                for _ in steps:
                    pass
            cls.case_of(doc, steps_read=True)
            raise VerificationFailed(problem) from None
        cls.case_of(doc, steps_read=True)
        return log

    @classmethod
    def _parse(cls, doc: dict, index: _SingularIndex) -> "DerivationLog":
        pairs, parts, subsets = len(index.pairs), len(index.parts), len(index.subsets)
        generator_of = index.generator_of
        squares: dict[SquareIds, SquareIds] = {}
        letters = index.letters

        def word(side: list) -> Word:
            out = []
            for g, e in side:
                if type(g) is not int or not 0 <= g < pairs:
                    raise InvalidParameters(f"{g!r} is not a generator id: the ids run from 0 to {pairs - 1}")
                # True and 1.0 would equal the exponent 1
                if type(e) is not int or (e != 1 and e != -1):
                    raise InvalidParameters(f"{e!r} is not an exponent: an exponent is the int 1 or -1")
                out.append(letters[2 * g if e == 1 else 2 * g + 1])
            return tuple(out)

        def square(ids: list) -> SquareIds:
            key = p, q, a, b = tuple(ids)
            # True and 1.0 would find the square of 1
            if type(p) is not int or type(q) is not int or type(a) is not int or type(b) is not int:
                raise InvalidParameters(f"square {ids!r} must be four int ids")
            sq = squares.get(key)
            if sq is None:
                if not (0 <= p < parts and 0 <= q < parts and 0 <= a < subsets and 0 <= b < subsets):
                    raise InvalidParameters(
                        f"square {ids!r} needs kernel ids from 0 to {parts - 1} and image ids from 0 to {subsets - 1}"
                    )
                for k, i in ((p, a), (p, b), (q, a), (q, b)):
                    if i not in generator_of[k]:
                        raise InvalidParameters(
                            f"square {ids!r}: image {i} {index.subsets[i]} is not a transversal"
                            f" of kernel {k} {index.parts[k]}"
                        )
                sq = squares[key] = key
            return sq

        steps, items = StepList(), doc["steps"]
        # read_log's iterator is read itself, so that a caller can read on
        for sd in (_popped(items) if type(items) is list else items):
            if type(sd) is range:
                steps.add_run(sd)
                continue
            rule = sd["rule"]
            if rule == "discharge":
                pz = sd.get("pz")
                # True and 1.0 would discharge relation 1
                if len(sd) != 2 or type(pz) is not int:
                    raise InvalidParameters(f'discharge step {sd!r} is not {{"pz": <int>, "rule": "discharge"}}')
                steps.append(DischargeStep(pz))
                continue
            conclusion = None
            if "conclusion" in sd:
                conclusion = Equation(word(sd["conclusion"]["lhs"]), word(sd["conclusion"]["rhs"]))
            sq = square(sd["square"]) if "square" in sd else None
            steps.append(DerivationStep(rule, conclusion, tuple(sd.get("premises", ())), sq, sd.get("data")))
        return cls(n=index.n, r=index.r, steps=steps, final=doc.get("final"), meta=doc.get("meta", {}))


def _require_version(doc: dict) -> None:
    """A log of another version than this module's is malformed; so is a
    log without one."""
    if "version" not in doc:
        raise ValueError(f"the log has no version, this replayer reads version {LOG_VERSION}")
    version = doc["version"]
    if type(version) is not int or version != LOG_VERSION:
        raise ValueError(f"unsupported log version {version!r}, this replayer reads version {LOG_VERSION}")


def _popped(items: list) -> Iterator:
    """The entries of ``items`` in order, the list emptied as they are taken."""
    items.reverse()
    while items:
        yield items.pop()


# a run of discharge steps in the writer's text, each index a number as json reads one
_ONE_DISCHARGE = re.escape(_DISCHARGE_HEAD) + "-?(?:0|[1-9][0-9]*)" + re.escape(_DISCHARGE_TAIL)
_DISCHARGE_RUN = re.compile(f"{_ONE_DISCHARGE}(?:,{_ONE_DISCHARGE})*")
# read_log takes this many characters at a time, more while one value is longer
READ_CHUNK = 1 << 13
_scan = json.scanner.make_scanner(json.JSONDecoder())
_space = json.decoder.WHITESPACE.match


def read_log(fh: TextIO) -> object:
    """The JSON document in ``fh`` for ``DerivationLog.from_json``, read
    ``READ_CHUNK`` characters at a time (more while one value is longer) and
    decoded a value at a time by json's scanner.  In an object, a ``steps``
    array after ``format``, ``n`` and ``r`` is an iterator that decodes each
    step when it is reached and then reads the rest of the document into
    it, so ``fh`` stays open until then; a run of the writer's discharge
    texts is one regex match, given as the range of its indices when they
    are consecutive.  A repeated key is malformed; other malformed text is
    read again by json.load, each object as None, to raise json's error."""
    return _LogReader(fh).document()


class _LogReader:
    """The text of :func:`read_log` not yet decoded, ``buf`` from ``at``."""

    def __init__(self, fh: TextIO) -> None:
        self.fh, self.buf, self.at, self.eof = fh, "", 0, False

    def more(self) -> bool:
        """Drop the decoded text and read on; False at the end of the file."""
        if not self.eof:
            text = self.fh.read(max(READ_CHUNK, len(self.buf) - self.at))
            self.buf, self.at, self.eof = self.buf[self.at :] + text, 0, not text
        return not self.eof

    def fail(self) -> None:
        self.fh.seek(0)
        try:
            json.load(self.fh, object_pairs_hook=lambda pairs: None)
        except ValueError as exc:  # json's message, or an int of too many digits
            raise VerificationFailed(f"malformed derivation log: {exc}") from None
        raise VerificationFailed("malformed derivation log")

    def peek(self) -> str:
        """The next character but whitespace, ``at`` moved to it; "" at the end."""
        while True:
            self.at = _space(self.buf, self.at).end()
            if self.at < len(self.buf) or not self.more():
                return self.buf[self.at : self.at + 1]

    def value(self) -> object:
        """The value at ``at``, decoded; ``at`` moves past it.  Until the end
        of the file, a value that fails or ends with the text read may be
        cut short, so more is read and it is decoded again."""
        while True:
            try:
                value, end = _scan(self.buf, self.at)
                if end < len(self.buf) or self.eof:  # else a number may go on
                    self.at = end
                    return value
            except (StopIteration, ValueError):  # no value, or a malformed one
                if self.eof:
                    self.fail()
            self.more()

    def close(self, end: str) -> bool:
        """Pass the "," or ``end`` after a member or an entry; True at ``end``."""
        c = self.peek()
        if c != "," and c != end:
            self.fail()
        self.at += 1
        return c == end

    def document(self) -> object:
        if self.peek() == "{":
            self.at += 1
            return self.members({}, first=self.peek() != "}")
        doc = self.value()
        if self.peek():
            self.fail()
        return doc

    def members(self, doc: dict, first: bool) -> dict:
        """``doc`` with the object's members read into it, up to a "steps"
        array after "format", "n" and "r", which is handed on as an iterator
        that goes on to read the members after it."""
        while first or not self.close("}"):
            first = False
            if self.peek() != '"':
                self.fail()
            key = self.value()
            if self.peek() != ":":
                self.fail()
            self.at += 1
            if key in doc:
                raise VerificationFailed(f"malformed derivation log: key {key!r} repeats")
            if self.peek() == "[" and key == "steps":
                self.at += 1
                if {"format", "n", "r"} <= doc.keys():
                    doc[key] = self.steps_then_members(doc)
                    return doc
                doc[key] = list(self.entries())
            else:
                doc[key] = self.value()
        if self.peek():
            self.fail()
        return doc

    def steps_then_members(self, doc: dict) -> Iterator:
        yield from self.entries()
        self.members(doc, first=False)

    def entries(self) -> Iterator:
        """The entries of the array whose "[" was just passed, then its "]"."""
        if self.peek() == "]":
            self.at += 1
            return
        while True:
            run = _DISCHARGE_RUN.match(self.buf, self.at)
            if run is None:
                yield self.value()
            else:
                texts = self.buf[self.at + len(_DISCHARGE_HEAD) : run.end() - len(_DISCHARGE_TAIL)]
                indices = list(map(int, texts.split(_DISCHARGE_JOIN)))
                self.at, whole = run.end(), range(indices[0], indices[0] + len(indices))
                yield from [whole] if indices == list(whole) else (range(i, i + 1) for i in indices)
            if self.close("]"):
                return
            self.peek()


def cycle_rep(k: int, l: int, n: int, r: int) -> tuple[int, int]:
    """The ids of the lex-least (kernel, image) pair whose label is the
    (k,l)-cycle, the class representative; at l = 1 it is canonical
    generator k (``LOG_FORMAT.md``).

    >>> p, a = cycle_rep(2, 1, 5, 3)
    >>> str(_singular_index(5, 3).parts[p]), str(_singular_index(5, 3).subsets[a])
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
    return index.kernel_with(blocks), index.image_with([i for i in range(1, r + 2) if i != k])


# ---------------------------------------------------------------------------
# independent replay
# ---------------------------------------------------------------------------


class ReplayReport:
    __slots__ = ("n", "r", "steps_checked", "failures", "discharged", "relations", "final_matches")

    def __init__(self, n: int, r: int, steps_checked: int, failures: tuple[tuple[int, str], ...],
                 discharged: int, relations: int, final_matches: bool):
        self.n, self.r, self.steps_checked, self.failures = n, r, steps_checked, failures
        self.discharged, self.relations, self.final_matches = discharged, relations, final_matches

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)

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


def replay_log(log: DerivationLog) -> ReplayReport:
    """Re-verify every step of a log from scratch.

    Re-checks each top and middle step against the index's ``top_of`` and
    ``min_image``, each witness square, re-derives every conclusion from
    its premises, discharges each relation on its
    labels, checks that the canonical generators carry the adjacent
    transpositions, and finally compares the surviving presentation against
    the Coxeter target.  Nothing from the producing run is trusted beyond
    the step records themselves.

    Every check works on the ids of ``squares._singular_index(n, r)``: each
    distinct witness square is tested once by
    :func:`~igmax.squares.is_singular_ids`, the transitive rule joins
    generator ids (-1 stands for the identity) in a union-find, the rewrite
    rule substitutes int letter words, a generator's resolution is a byte
    of a table indexed by generator id, words are evaluated on the index's
    product table, each letter read as its label's id, and the Coxeter
    match renames the canonical ids.  A failure names a generator by its
    kernel and image, ``f[P|A]``.

    A generator is resolved by its first verified fact g = word over the
    canonical generators, whose word must evaluate to g's label; evaluation
    and the label map being homomorphisms, a relation u = v then holds under
    the resolution map exactly when label(u) = label(v).  A discharge step,
    a :class:`DischargeStep` or an int of a run, is checked before any other
    rule: its index must name a relation; while some generator is
    unresolved, each of the relation's generators must be resolved; and its
    two sides must have equal labels
    (:meth:`~igmax.presentation.RelationFamilies.label_failures`, which
    checks the bottom family per SQ3 bucket, so a passing replay never
    reads it).  A DerivationStep of rule ``discharge`` fails, and so does a
    premise that cites a discharge step: it concludes nothing.
    The steps are read in order, premises by index, from any sequence.  A
    run of a :class:`StepList` reached once every generator is resolved is
    checked as one; any other run is read as its indices, so a failure
    names its step.  Only the failures are kept, by step, and the discharged
    relations as runs, so memory does not grow with the log.
    """
    n, r = log.n, log.r
    index = _singular_index(n, r)
    pairs, labels, name = index.pairs, index.labels, index.name
    families = relation_families(n, r)
    relations = families.relation_count
    # one bottom relation per witness square
    letters = index.letters
    bottoms: dict[SquareIds, Equation] = {}

    def bottom_relation(sq: SquareIds) -> Equation:
        rel = bottoms.get(sq)
        if rel is None:
            rel = bottoms[sq] = _bottom_relation(_corners(index, sq), letters)
        return rel

    canon_list = [index.generator_of[p][a] for p, a in (cycle_rep(k, 1, n, r) for k in range(1, r))]
    canon_gens = set(canon_list)
    # words are evaluated on the index's product table, each int letter
    # (2*i for generator i, 2*i+1 for its inverse) read as the id of its
    # label; ``resolved[i]`` says whether generator i is resolved.
    # Generator i of the presentation is pair i of the index.
    table, label_ids = index.product_table, index.letter_label_ids
    resolved = bytearray(len(pairs))
    unresolved = len(pairs)  # generators not yet resolved
    failing = families.label_failures(table, label_ids)
    discharged: list[range] = []  # runs of discharged relations, in order discharged
    singular: dict[SquareIds, bool] = {}
    failures: dict[int, str] = {}  # by step: every other step read is verified
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
        if i in failures:
            raise _ReplayFailure(f"premise {i} was not verified")
        st = log.steps[i]
        if isinstance(st, int):
            raise _ReplayFailure(f"premise {i} is a discharge step")
        return st

    def mark(run: range) -> None:
        """Record the relations of ``run`` as discharged."""
        if discharged and discharged[-1].stop == run.start:
            discharged[-1] = range(discharged[-1].start, run.stop)
        else:
            discharged.append(run)

    def discharge(pz: int) -> None:
        """Discharge relation ``pz``."""
        if not 0 <= pz < relations:
            raise _ReplayFailure(f"relation index {pz} out of range")
        if unresolved:
            lhs, rhs = families.letters(pz)
            for letter in lhs + rhs:
                if not resolved[letter >> 1]:
                    g = name(letter >> 1)
                    raise _ReplayFailure(f"no resolution for {g}")
        if next(failing(range(pz, pz + 1)), None) is not None:
            raise _ReplayFailure(f"relation {pz} does not hold under the resolution map")
        mark(range(pz, pz + 1))

    def check(idx: int, st: DerivationStep) -> None:
        rule = st.rule
        if rule not in RULES:
            raise _ReplayFailure(f"unknown rule {rule!r}")
        if rule == "discharge":
            raise _ReplayFailure("a discharge step must be a DischargeStep")
        if rule == "middle":
            g = _one_fact(st.conclusion)
            if g is None or index.min_image[pairs[g][0]] != pairs[g][1]:
                raise _ReplayFailure("middle step must conclude f[P, minima(P)] = 1")
        elif rule == "top":
            pair = _eq_fact(st.conclusion)
            if pair is None:
                raise _ReplayFailure("top step must conclude an equality of two generators")
            (k1, a1), (k2, a2) = pairs[pair[0]], pairs[pair[1]]
            if k1 != k2:
                raise _ReplayFailure("top step generators must share a kernel")
            if index.top_of[a2] != (k1, a1):
                raise _ReplayFailure("top step must conclude the top relation f[P,X] = f[P,Y] of its Y")
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
            corners = dict(zip(CORNERS, _corners(index, sq)))
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

            def link(fact: Equation) -> Optional[tuple]:
                """(g, -1) for g = 1, (g, h) for g = h, None for any other shape."""
                g = _one_fact(fact)
                return (g, -1) if g is not None else _eq_fact(fact)

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
                if any(x >> 1 == g for x in fact.rhs):
                    raise _ReplayFailure("substitution must eliminate its generator")
                lhs = substitute(lhs, g, fact.rhs, letters)
                rhs = substitute(rhs, g, fact.rhs, letters)
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
            stated = st.data["canonical"]
            # True would equal the id 1
            if type(stated) is not list or any(type(g) is not int for g in stated) or stated != canon_list:
                raise _ReplayFailure("stated canonical pairs are not the expected ones")
            for k, g in enumerate(canon_list, start=1):
                if labels[g] != contiguous_cycle(k, 1, r):
                    raise _ReplayFailure(f"canonical pair {k} does not carry the adjacent transposition")
            mismatch = _coxeter_mismatch([premise(idx, i).conclusion for i in st.premises], canon_list, r)
            if mismatch is not None:
                raise _ReplayFailure(mismatch)
            match_seen = True

    def note_resolution(fact: Optional[Equation]) -> None:
        """g is resolved by its first fact g = word over the canonical
        generators; a sound step's word evaluates to g's label."""
        g = None if fact is None else _subject(fact)
        if g is None or resolved[g] or not all(x >> 1 in canon_gens for x in fact.rhs):
            return
        if table.evaluate(fact.rhs, label_ids) != label_ids[2 * g]:
            g = name(g)
            raise _ReplayFailure(f"the word for {g} does not evaluate to its label")
        resolve(g)

    # discharge steps are nearly all of a log: a StepList's run of them passes
    # as one once every generator is resolved, if each of its relations holds
    # on labels; else it is read step by step, so discharge() names each failure
    start = 0
    for part in log.steps.parts if type(log.steps) is StepList else [log.steps]:
        if type(part) is range and not unresolved and 0 <= part.start and part.stop <= relations \
                and next(failing(part), None) is None:
            mark(part)
        else:
            for idx, st in enumerate(part, start):
                try:
                    if type(st) is int or type(st) is DischargeStep:
                        discharge(st)
                    else:
                        check(idx, st)
                        note_resolution(st.conclusion)
                except _ReplayFailure as exc:
                    failures[idx] = str(exc)
                except Exception as exc:  # malformed step data
                    failures[idx] = f"{type(exc).__name__}: {exc}"
        start += len(part)

    # the relations discharged, one discharged twice counted once
    count = reach = 0
    for run in sorted(discharged, key=lambda run: run.start):
        count, reach = count + max(0, run.stop - max(run.start, reach)), max(reach, run.stop)
    final_matches = match_seen and log.final == coxeter_presentation(r).to_json()
    return ReplayReport(
        n=n,
        r=r,
        steps_checked=len(log.steps),
        failures=tuple(failures.items()),
        discharged=count,
        relations=relations,
        final_matches=final_matches,
    )


def _flush_source(rest: list[Equation], sides: dict) -> object:
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
