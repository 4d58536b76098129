"""Verdicts on the main theorem.

For r <= n-2 a verdict rests on one replay: :func:`verify_theorem` reduces
the presentation and re-checks the log it produced with
:func:`igmax.pipeline.replay_log`.  A log that replays shows |G| <= r! (every
generator is a word over r-1 generators satisfying the Coxeter relations)
and a homomorphism onto S_r (every relation holds on the labels, and the
canonical labels are the adjacent transpositions).  Beside it stand
Todd–Coxeter coset enumeration over the trivial subgroup, which gives the
exact order when it closes and reaches (7,4) under the default budget,
and the label homomorphism check, used at the boundary r = n-1 where no
reduction runs.

The enumeration is HLT: process cosets in creation order, scan each
relator with gap filling (lowest undefined entry first), then fill any
remaining undefined generator entries.  Coincidences are merged through a
union-find with a FIFO queue.  Each relator is scanned once up to
inversion: a relator is dropped when it or its inverse came earlier in the
presentation, because once a scan of w at a coset returns w closes there
for good, and the table is consistent on inverses after every merge, so a
later scan of w or w^-1 would define nothing (see :func:`_relators`).  The
bottom relator of (P,Q,A,B) is the inverse of that of (Q,P,A,B), so this
halves the scans.  The run is deterministic, and a closing table is
re-audited in full before an order is reported: each letter's column must
be a permutation of the live cosets, inverse to the column of the inverse
letter, and every kept relator must close at every live coset, which with
inverse columns covers the dropped inverses too.  So a conclusive answer
is never wrong.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Optional

from . import pipeline
from .errors import InvalidParameters, VerificationFailed
from .perms import Permutation, ProductTable
# presentations_match stays importable from here: the tests and
# perfbench/trace_run.py use it under this module's name
from .presentation import (
    GeneratorId,
    GroupPresentation,
    build_presentation,
    coxeter_presentation,
    letter_label_ids,
    presentations_match,
)

# the coset budget of coset_enumerate and of ``igmax verify --with-coset-oracle``
DEFAULT_MAX_COSETS = 50_000


@dataclass(frozen=True)
class CosetResult:
    closed: bool
    order: Optional[int]
    cosets_defined: int
    live_cosets: int

    def to_json(self) -> dict:
        return {
            "closed": self.closed,
            "order": self.order,
            "cosets_defined": self.cosets_defined,
            "live_cosets": self.live_cosets,
        }


class _BudgetHit(Exception):
    pass


class _Enumerator:
    """Mutable coset table; letters are 2*gen for the generator and
    2*gen+1 for its inverse, so ``letter ^ 1`` flips direction."""

    def __init__(self, n_gens: int, relators: list[tuple[int, ...]], max_cosets: int):
        self.width = 2 * n_gens
        self.relators = relators
        self.max_cosets = max_cosets
        self.rows: list[Optional[dict[int, int]]] = [None, {}]
        self.parent = [0, 1]
        self.defined = 1
        self.queue: deque[tuple[int, int]] = deque()

    def find(self, x: int) -> int:
        parent = self.parent
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def define(self, a: int, letter: int) -> int:
        if self.defined >= self.max_cosets:
            raise _BudgetHit
        self.defined += 1
        new = len(self.rows)
        self.rows.append({letter ^ 1: a})
        self.parent.append(new)
        self.rows[a][letter] = new
        return new

    def set_edge(self, a: int, letter: int, b: int) -> None:
        """Record a·letter = b, queueing a coincidence on clash."""
        rows, parent, find = self.rows, self.parent, self.find
        if parent[a] != a:
            a = find(a)
        if parent[b] != b:
            b = find(b)
        row = rows[a]
        existing = row.get(letter)
        if existing is not None:
            if parent[existing] != existing:
                existing = find(existing)
            if existing != b:
                self.queue.append((existing, b))
            return
        row[letter] = b
        back = rows[b].get(letter ^ 1)
        if back is None:
            rows[b][letter ^ 1] = a
        else:
            if parent[back] != back:
                back = find(back)
            if back != a:
                self.queue.append((back, a))

    def drain(self) -> None:
        rows, parent, find, queue = self.rows, self.parent, self.find, self.queue
        while queue:
            x, y = queue.popleft()
            x, y = find(x), find(y)
            if x == y:
                continue
            if y < x:
                x, y = y, x
            parent[y] = x
            row = rows[y]
            rows[y] = None
            for letter, t in row.items():
                self.set_edge(x, letter, t)

    def scan_and_fill(self, a: int, word: tuple[int, ...]) -> None:
        rows, parent, find = self.rows, self.parent, self.find
        if parent[a] != a:
            a = find(a)
        f, i = a, 0
        b, j = a, len(word) - 1
        while True:
            while i <= j:
                nxt = rows[f].get(word[i])
                if nxt is None:
                    break
                f = nxt if parent[nxt] == nxt else find(nxt)
                i += 1
            if i > j:
                if f != b:
                    self.queue.append((f, b))
                    self.drain()
                return
            while j >= i:
                nxt = rows[b].get(word[j] ^ 1)
                if nxt is None:
                    break
                b = nxt if parent[nxt] == nxt else find(nxt)
                j -= 1
            if j < i:
                self.queue.append((f, b))
                self.drain()
                return
            if i == j:
                self.set_edge(f, word[i], b)
                self.drain()
                return
            f = self.define(f, word[i])
            i += 1

    def live(self) -> list[int]:
        return [c for c in range(1, len(self.rows)) if self.rows[c] is not None]

    def run(self) -> None:
        rows = self.rows
        alpha = 1
        while alpha < len(rows):
            if rows[alpha] is not None:
                for word in self.relators:
                    self.scan_and_fill(alpha, word)
                    if rows[alpha] is None:
                        break
                if rows[alpha] is not None:
                    for letter in range(self.width):
                        if rows[alpha] is None:
                            break
                        if rows[alpha].get(letter) is None:
                            self.define(alpha, letter)
            alpha += 1

    def audit(self) -> None:
        """Re-check a closed table on a flat copy of it.

        Live cosets are numbered 0..k-1 and each letter's entries become one
        list indexed by that number.  Each letter's column must be a
        permutation of the live cosets, inverse to the column of ``letter ^ 1``,
        and every relator must map each live coset to itself.  The inverse
        check is what lets the relator check skip the inverses of relators:
        with inverse columns, w closing at every coset means w^-1 does too.
        """
        live = self.live()
        pos = [-1] * len(self.rows)
        for k, c in enumerate(live):
            pos[c] = k
        cols = []
        for letter in range(self.width):
            col = []
            for c in live:
                target = self.rows[c].get(letter)
                if target is None:
                    raise VerificationFailed("open entry in a table reported closed")
                k = pos[self.find(target)]
                if k < 0:
                    raise VerificationFailed("table entry points at a dead coset")
                col.append(k)
            cols.append(col)
        identity = list(range(len(live)))
        # a map of a finite set with a left inverse is a bijection, so one
        # composition per generator shows both columns are inverse permutations
        for letter in range(0, self.width, 2):
            if list(map(cols[letter ^ 1].__getitem__, cols[letter])) != identity:
                raise VerificationFailed("a letter's column is not inverse to its inverse's")
        for word in self.relators:
            images = identity
            for letter in word:
                images = list(map(cols[letter].__getitem__, images))
            if images != identity:
                raise VerificationFailed("relator does not close on a live coset")


def _relators(pres: GroupPresentation) -> list[tuple[int, ...]]:
    """Freely reduced int relators, one per class of a word and its inverse.

    A relation lhs = rhs gives the letters of lhs followed by those of rhs
    inverted: ``2*index + 1`` for an inverse generator, so ``letter ^ 1``
    inverts a letter.  A relator is kept only if neither it nor its inverse
    came earlier; the first occurrence is kept.  This changes no coset the
    enumeration defines: once a scan of w at a coset returns, w closes there,
    merges and definitions keep it closed, and the table after every drain
    is consistent on inverses (a·l = b gives b·l^-1 = a).  So a later scan
    of w, or of w^-1, at that coset defines nothing and queues nothing.

    These are the presentation's own letters (see
    :class:`~igmax.presentation.GroupPresentation`).

    >>> _relators(coxeter_presentation(3))
    [(0, 0), (2, 2), (0, 2, 0, 3, 1, 3)]
    """
    relators = []
    seen = set()
    for i in range(pres.relation_count):
        lhs, rhs = pres.letters(i)
        word: list[int] = []
        for letter in lhs + tuple([x ^ 1 for x in reversed(rhs)]):
            if word and word[-1] == letter ^ 1:
                word.pop()
            else:
                word.append(letter)
        key = tuple(word)
        if key and key not in seen:
            seen.add(key)
            seen.add(tuple([letter ^ 1 for letter in reversed(word)]))
            relators.append(key)
    return relators


def coset_enumerate(pres: GroupPresentation, max_cosets: int = DEFAULT_MAX_COSETS) -> CosetResult:
    """Order of the presented group, or inconclusive under the bound.

    >>> coset_enumerate(coxeter_presentation(4)).order
    24
    """
    enum = _Enumerator(len(pres.generators), _relators(pres), max_cosets)
    try:
        enum.run()
    except _BudgetHit:
        return CosetResult(False, None, enum.defined, len(enum.live()))
    enum.audit()
    live = len(enum.live())
    return CosetResult(True, live, enum.defined, live)


@dataclass(frozen=True)
class HomReport:
    relations_checked: int
    relations_satisfied: bool
    image_order: int
    surjective: bool
    first_failure: Optional[str]

    @property
    def ok(self) -> bool:
        return self.relations_satisfied and self.surjective

    def to_json(self) -> dict:
        return {
            "relations_checked": self.relations_checked,
            "relations_satisfied": self.relations_satisfied,
            "image_order": self.image_order,
            "surjective": self.surjective,
            "first_failure": self.first_failure,
        }


def _generated_order(perms: set[Permutation], r: int) -> int:
    """Order of the subgroup of the degree-r symmetric group they generate;
    the search stops once it has seen all r! permutations."""
    full = math.factorial(r)
    identity = Permutation.identity(r)
    seen = {identity}
    frontier = [identity]
    gens = list(perms)
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = p * g
                if q not in seen:
                    seen.add(q)
                    if len(seen) == full:
                        return full
                    nxt.append(q)
        frontier = nxt
    return len(seen)


def label_homomorphism_check(pres: GroupPresentation) -> HomReport:
    """Send each pair generator to its label; relations must hold and
    the labels must generate the whole symmetric group."""
    r = None
    for g in pres.generators:
        if not isinstance(g, GeneratorId):
            raise InvalidParameters("homomorphism check needs pair generators with labels")
        r = g.label.degree
    if r is None:
        raise InvalidParameters("presentation has no generators")

    table = ProductTable(r)
    label_ids = letter_label_ids(pres.generators, table)
    checked = 0
    failure = None
    for i in range(pres.relation_count):
        checked += 1
        lhs, rhs = pres.letters(i)
        if failure is None and table.evaluate(lhs, label_ids) != table.evaluate(rhs, label_ids):
            failure = str(pres.relations[i])

    image_order = _generated_order({g.label for g in pres.generators}, r)
    return HomReport(
        relations_checked=checked,
        relations_satisfied=failure is None,
        image_order=image_order,
        surjective=image_order == math.factorial(r),
        first_failure=failure,
    )


def _boundary_survivors(pres: GroupPresentation) -> Optional[int]:
    """Generators left free by the relations of a boundary presentation.

    At r = n-1 the bottom family is empty, so every relation should be a top
    relation g = h or a middle relation g = 1.  Union-find over them is then
    the whole Tietze reduction: each class joined to 1 is eliminated, every
    other class keeps one generator, and no relation survives.  Returns
    None when some relation has another shape.
    """
    one = len(pres.generators)
    parent = list(range(one + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(pres.relation_count):
        lhs, rhs = pres.letters(i)
        if len(lhs) != 1 or len(rhs) > 1 or any(x & 1 for x in lhs + rhs):
            return None
        a = find(lhs[0] >> 1)
        b = find(rhs[0] >> 1) if rhs else find(one)
        parent[a] = b
    return len({find(i) for i in range(one)} - {find(one)})


@dataclass
class VerifyReport:
    n: int
    r: int
    pipeline: bool
    homomorphism: bool
    coset_order: Optional[int]
    verdict: str
    hom_report: Optional[HomReport] = None
    replay_report: Optional[pipeline.ReplayReport] = None
    coset_result: Optional[CosetResult] = None
    boundary_free_consistent: Optional[bool] = None

    def to_json(self) -> dict:
        out = {
            "n": self.n,
            "r": self.r,
            "pipeline": self.pipeline,
            "homomorphism": self.homomorphism,
            "coset_order": self.coset_order,
            "verdict": self.verdict,
        }
        if self.hom_report is not None:
            out["homomorphism_detail"] = self.hom_report.to_json()
        if self.replay_report is not None:
            out["replay_detail"] = self.replay_report.to_json()
        if self.coset_result is not None:
            out["coset_detail"] = self.coset_result.to_json()
        if self.boundary_free_consistent is not None:
            out["boundary_free_consistent"] = self.boundary_free_consistent
        return out


def verify_theorem(n: int, r: int, budget: Optional[int] = None):
    """Assemble the verdict for one (n, r).

    For r <= n-2 the presentation is built once, reduced, and the log is
    replayed in memory; ``pipeline`` is the replay's verdict and
    ``homomorphism`` says whether it discharged every relation on labels.
    ``budget``, when given, also runs the coset oracle, which must then find
    r! elements if it closes.

    Returns (report, derivation_log); the log is None in the boundary
    regime r = n-1, where the reduction pipeline does not apply and the
    report instead notes whether the presentation reduces to a free group
    (see :func:`_boundary_survivors`).
    """
    import warnings

    if not (1 <= r <= n - 1):
        raise InvalidParameters(f"need 1 <= r <= n-1, got r={r}, n={n}")
    if r == n - 1:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            pres = build_presentation(n, r)
            hom = label_homomorphism_check(pres)
        survivors = _boundary_survivors(pres)
        free_ok = survivors is not None
        report = VerifyReport(
            n=n,
            r=r,
            pipeline=False,
            homomorphism=hom.ok,
            coset_order=None,
            verdict=f"not confirmed: boundary r = n-1, free-type regime "
            f"({survivors} generators, no relations survive)"
            if free_ok
            else "not confirmed: boundary r = n-1, simplification left relations",
            hom_report=hom,
            boundary_free_consistent=free_ok,
        )
        return report, None

    pres = build_presentation(n, r)
    _, log = pipeline.run_pipeline(n, r, pres)
    replay = pipeline.replay_log(log, pres)
    homomorphism = replay.discharged == replay.relations

    coset_order = None
    coset_result = None
    if budget is not None:
        coset_result = coset_enumerate(pres, max_cosets=budget)
        coset_order = coset_result.order

    if replay.ok:
        verdict = f"confirmed S_{r}"
        if coset_order is not None and coset_order != math.factorial(r):
            verdict = f"inconsistent: coset oracle returned {coset_order}"
    else:
        failed = "pipeline" if homomorphism else "pipeline, homomorphism"
        verdict = f"not confirmed: {failed} failed"
    report = VerifyReport(
        n=n,
        r=r,
        pipeline=replay.ok,
        homomorphism=homomorphism,
        coset_order=coset_order,
        verdict=verdict,
        replay_report=replay,
        coset_result=coset_result,
    )
    return report, log
