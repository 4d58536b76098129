"""A derivation log read a piece at a time, for ``igmax replay`` only.  It
is not part of :mod:`igmax.pipeline`, which ``reduce`` and ``verify``
import too: a process that compiles its modules from source (every
benchmark child does) peaked about 1.2 MB higher with these lines there.
"""

from __future__ import annotations

import json
import re
from typing import Iterator, TextIO

from .errors import VerificationFailed
from .pipeline import _DISCHARGE_HEAD, _DISCHARGE_JOIN, _DISCHARGE_TAIL

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
    are consecutive.  A repeated key is malformed; for any other malformed
    text, ``fh`` is read again with json.load to raise json's error."""
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
            json.load(self.fh)
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
