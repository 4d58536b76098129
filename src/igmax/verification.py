"""Verdicts on the main theorem.

For r <= n-2 a verdict rests on one replay: :func:`verify_theorem` reduces
the presentation and re-checks the log it produced with
:func:`igmax.pipeline.replay_log`.  A log that replays shows |G| <= r! (every
generator is a word over r-1 generators satisfying the Coxeter relations)
and a homomorphism onto S_r (every relation holds on the labels, and the
canonical labels are the adjacent transpositions).  Beside it stand
Todd–Coxeter coset enumeration over the trivial subgroup, which gives the
exact order when it closes and is feasible only for small presentations,
and the label homomorphism check, used at the boundary r = n-1 where no
reduction runs.

The enumeration is plain HLT: process cosets in creation order, scan
every relator with gap filling (lowest undefined entry first), then fill
any remaining undefined generator entries.  Coincidences are merged
through a union-find with a FIFO queue.  The run is deterministic, and a
closing table is re-audited in full before an order is reported, so a
conclusive answer is never wrong.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Optional

from . import pipeline
from .errors import InvalidParameters, VerificationFailed
from .perms import Permutation, evaluate_word, letter_images
# presentations_match stays importable from here: the tests and
# perfbench/trace_run.py use it under this module's name
from .presentation import (
    GeneratorId,
    GroupPresentation,
    build_presentation,
    coxeter_presentation,
    presentations_match,
)


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
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
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
        a, b = self.find(a), self.find(b)
        row = self.rows[a]
        existing = row.get(letter)
        if existing is not None:
            existing = self.find(existing)
            if existing != b:
                self.queue.append((existing, b))
            return
        row[letter] = b
        back = self.rows[b].get(letter ^ 1)
        if back is None:
            self.rows[b][letter ^ 1] = a
        else:
            back = self.find(back)
            if back != a:
                self.queue.append((back, a))

    def drain(self) -> None:
        while self.queue:
            x, y = self.queue.popleft()
            x, y = self.find(x), self.find(y)
            if x == y:
                continue
            if y < x:
                x, y = y, x
            self.parent[y] = x
            row = self.rows[y]
            self.rows[y] = None
            for letter, t in row.items():
                self.set_edge(x, letter, self.find(t))

    def scan_and_fill(self, a: int, word: tuple[int, ...]) -> None:
        a = self.find(a)
        f, i = a, 0
        b, j = a, len(word) - 1
        while True:
            while i <= j:
                nxt = self.rows[f].get(word[i])
                if nxt is None:
                    break
                f = self.find(nxt)
                i += 1
            if i > j:
                if f != b:
                    self.queue.append((f, b))
                    self.drain()
                return
            while j >= i:
                nxt = self.rows[b].get(word[j] ^ 1)
                if nxt is None:
                    break
                b = self.find(nxt)
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
        alpha = 1
        while alpha < len(self.rows):
            if self.rows[alpha] is not None:
                for word in self.relators:
                    self.scan_and_fill(alpha, word)
                    if self.rows[alpha] is None:
                        break
                if self.rows[alpha] is not None:
                    for letter in range(self.width):
                        if self.rows[alpha] is None:
                            break
                        if self.rows[alpha].get(letter) is None:
                            self.define(alpha, letter)
            alpha += 1

    def audit(self) -> None:
        live = self.live()
        for c in live:
            row = self.rows[c]
            for letter in range(self.width):
                target = row.get(letter)
                if target is None:
                    raise VerificationFailed("open entry in a table reported closed")
                if self.rows[self.find(target)] is None:
                    raise VerificationFailed("table entry points at a dead coset")
        for c in live:
            for word in self.relators:
                x = c
                for letter in word:
                    x = self.find(self.rows[x][letter])
                if x != c:
                    raise VerificationFailed("relator does not close on a live coset")


def coset_enumerate(pres: GroupPresentation, max_cosets: int = 100_000) -> CosetResult:
    """Order of the presented group, or inconclusive under the bound.

    >>> coset_enumerate(coxeter_presentation(4)).order
    24
    """
    index = {g: i for i, g in enumerate(pres.generators)}
    relators = []
    for rel in pres.relations:
        word = tuple(
            2 * index[g] + (0 if e > 0 else 1) for g, e in rel.relator()
        )
        if word:
            relators.append(word)
    enum = _Enumerator(len(pres.generators), relators, max_cosets)
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

    images = letter_images({g: g.label for g in pres.generators})
    checked = 0
    failure = None
    for rel in pres.relations:
        checked += 1
        if evaluate_word(rel.lhs, images, r) != evaluate_word(rel.rhs, images, r) and failure is None:
            failure = str(rel)

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
    index = {g: i for i, g in enumerate(pres.generators)}
    one = len(index)
    parent = list(range(one + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for rel in pres.relations:
        if len(rel.lhs) != 1 or len(rel.rhs) > 1 or any(e != 1 for _, e in rel.lhs + rel.rhs):
            return None
        a = find(index[rel.lhs[0][0]])
        b = find(index[rel.rhs[0][0]]) if rel.rhs else find(one)
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
