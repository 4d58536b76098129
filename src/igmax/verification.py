"""Verdicts on the main theorem.

For r <= n-2 a verdict rests on one replay: :func:`verify_theorem` reduces
the presentation and re-checks the log it produced with
:func:`igmax.pipeline.replay_log`.  A log that replays shows |G| <= r! (every
generator is a word over r-1 generators satisfying the Coxeter relations)
and a homomorphism onto S_r (every relation holds on the labels, and the
canonical labels are the adjacent transpositions).  Beside it stand
Todd–Coxeter coset enumeration over the trivial subgroup, which gives the
exact order when it closes and reaches (8,6) under the default budget,
and the label homomorphism check, used at the boundary r = n-1 where no
reduction runs.  The oracle reads only the presentation: no labels and no
derivation.

:func:`coset_enumerate` runs in three steps.

1. Reduce.  Nearly all of the paper's generators are redundant, so
   :func:`_tietze` eliminates them by Tietze moves first: a union-find pass
   over the relations that say g = 1 or g = h^±1, then rounds that solve
   relators of at most three letters for a generator that occurs in them
   once.  At (7,5) this leaves 6 of 525 generators.
2. Enumerate.  HLT on the reduced presentation: process cosets in
   creation order, scan each relator with gap filling (lowest undefined
   entry first), then fill any remaining undefined generator entries.
   Coincidences are merged through a union-find with a FIFO queue.  The
   reduction keeps one relator per class of rotations of a word and of its
   inverse, which all have the same normal closure.  The run is
   deterministic.  On the unreduced relators of :func:`_relators`, which
   drop only a relator whose inverse or itself came earlier, HLT defines
   exactly the cosets it defines when it scans every relator: once a scan
   of w at a coset returns, w closes there for good, and the table is
   consistent on inverses after every merge, so a later scan of w or w^-1
   would define nothing.
3. Audit twice.  The closed table is re-checked in full: each letter's
   column must be a permutation of the live cosets, inverse to the column
   of the inverse letter, and every reduced relator must close at every
   live coset, which with inverse columns covers the dropped inverses too.
   Then each eliminated generator gets the column of the word it was
   replaced by, in reverse order of elimination, and every relator of the
   input must close at every live coset.  That second audit covers every
   generator and every relation of the input: the columns are shown to be
   an action of the presented group itself, not only of the reduced one,
   and an elimination whose word contradicts an input relation stops the
   run before an order is reported.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from dataclasses import dataclass
from itertools import chain
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

    def audit(self) -> tuple[ProductTable, list[int]]:
        """Re-check a closed table on a flat copy of it.

        Live cosets are numbered 0..k-1 and each letter's entries become one
        list indexed by that number.  Each letter's column must be a
        permutation of the live cosets, inverse to the column of ``letter ^ 1``,
        and every relator must map each live coset to itself.  The inverse
        check is what lets the relator check skip the inverses of relators:
        with inverse columns, w closing at every coset means w^-1 does too.
        Returns the columns as permutations on a :class:`ProductTable` of
        degree k and each letter's id in it.
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
        table = ProductTable(len(live))
        ids = [table.intern(tuple([k + 1 for k in col])) for col in cols]
        _require_closed(table, ids, self.relators)
        return table, ids


def _require_closed(table: ProductTable, ids: list[int], relators: list[tuple[int, ...]]) -> None:
    """Every relator, its letters read as ``ids`` in ``table``, must be the identity."""
    for word in relators:
        if table.evaluate(word, ids) != table.identity:
            raise VerificationFailed("relator does not close on a live coset")


def _inverse(word: tuple[int, ...]) -> tuple[int, ...]:
    return tuple([x ^ 1 for x in reversed(word)])


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
        for letter in lhs + _inverse(rhs):
            if word and word[-1] == letter ^ 1:
                word.pop()
            else:
                word.append(letter)
        key = tuple(word)
        if key and key not in seen:
            seen.add(key)
            seen.add(_inverse(key))
            relators.append(key)
    return relators


# a relator at most this long is solved for a generator that occurs in it once
_SOLVABLE_LENGTH = 3


def _rewrite(relators: list[tuple[int, ...]], image: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The relators with each letter x replaced by the word ``image[x]``,
    freely and cyclically reduced, empty words dropped, one word kept per
    class of the rotations of a word and of its inverse."""
    out = []
    met = set()
    kept = set()
    for rel in relators:
        word = tuple(chain.from_iterable(map(image.__getitem__, rel)))
        # most rewritten relators repeat an earlier one letter for letter
        if word in met:
            continue
        met.add(word)
        reduced: list[int] = []
        for y in word:
            if reduced and reduced[-1] == y ^ 1:
                reduced.pop()
            else:
                reduced.append(y)
        i, j = 0, len(reduced) - 1
        while i < j and reduced[i] == reduced[j] ^ 1:
            i += 1
            j -= 1
        if i > j:
            continue
        # a relator stands for all rotations of it and of its inverse: keep the least
        key = tuple(reduced[i : j + 1])
        inverse = _inverse(key)
        key = min([w[k:] + w[:k] for w in (key, inverse) for k in range(len(w))])
        if key not in kept:
            kept.add(key)
            out.append(key)
    return out


def _tietze(
    n_gens: int, relators: list[tuple[int, ...]]
) -> tuple[list[int], list[tuple[int, ...]], list[tuple[int, tuple[int, ...]]]]:
    """Eliminate generators from a presentation by Tietze moves.

    Returns ``(survivors, reduced, eliminated)``: the generators left, the
    relators over them with survivor ``survivors[k]`` renumbered to letters
    ``2*k`` and ``2*k+1``, and the eliminated generators in order, each with
    the word in the input's letters that it equals.  Such a word names only
    survivors and generators eliminated later.

    The first round is one pass of union-find over the relators, with a
    parity bit for the inverse.  Each relator is read over the classes as
    they stand; if it reduces to g = 1 or to g = h^±1, the classes are
    joined.  The top relations g = h and the middle relations g = 1 are of
    that shape from the start, and many bottom relations come to it in the
    pass.  Each class keeps its lowest generator, or none when it is joined
    to 1, and all relators are rewritten once.  Every later round takes the
    relators of at most ``_SOLVABLE_LENGTH`` letters in which some
    generator occurs once and solves each for such a generator, the
    generators that occur least often in all relators first, no generator
    solved in a round occurring in another relator solved in it.  Then it
    rewrites all relators in one pass.  Rounds stop when none solves.

    >>> _tietze(3, [(0, 3), (2, 4, 4), (4, 4, 4)])
    ([2], [(0, 0, 0)], [(1, (0,)), (0, (5, 5))])
    """
    one = n_gens
    parent = list(range(n_gens + 1))
    # g = parent[g] ** (-1) ** flip[g]; ``one`` is the root of the class of 1
    flip = [0] * (n_gens + 1)

    def find(g: int) -> tuple[int, int]:
        path = []
        while parent[g] != g:
            path.append(g)
            g = parent[g]
        f = 0
        for x in reversed(path):
            f ^= flip[x]
            parent[x], flip[x] = g, f
        return g, f

    for rel in relators:
        # the relator over the classes as they stand, freely and cyclically reduced
        word: list[int] = []
        for x in rel:
            root = parent[x >> 1]
            if parent[root] == root:
                # a root, or a generator hanging from one: most of them
                f = flip[x >> 1]
            else:
                root, f = find(x >> 1)
            if root != one:
                y = 2 * root + (f ^ (x & 1))
                if word and word[-1] == y ^ 1:
                    word.pop()
                else:
                    word.append(y)
        while len(word) > 1 and word[0] == word[-1] ^ 1:
            del word[0], word[-1]
        if len(word) == 1:
            a, b, f = word[0] >> 1, one, 0
        elif len(word) == 2 and word[0] >> 1 != word[1] >> 1:
            # x y = 1: gen(x) = gen(y) if exactly one of x, y is an inverse, else gen(y)^-1
            a, b, f = word[0] >> 1, word[1] >> 1, (word[0] & 1) ^ (word[1] & 1) ^ 1
        else:
            continue
        if b != one:
            a, b = max(a, b), min(a, b)
        parent[a], flip[a] = b, f
    image: list[tuple[int, ...]] = []
    eliminated: list[tuple[int, tuple[int, ...]]] = []
    for g in range(n_gens):
        root, f = find(g)
        word = () if root == one else (2 * root + f,)
        if root != g:
            eliminated.append((g, word))
        image += [word, _inverse(word)]
    relators = _rewrite(relators, image)

    while True:
        # solve for the rarest generators first: their rewrite lengthens the
        # fewest relators, so more of them stay short enough to solve
        uses = Counter(chain.from_iterable(relators))
        rarity = [uses[2 * g] + uses[2 * g + 1] for g in range(n_gens)]
        short = sorted(
            (rel for rel in relators if len(rel) <= _SOLVABLE_LENGTH),
            key=lambda rel: min([rarity[x >> 1] for x in rel]),
        )
        solved: dict[int, tuple[int, ...]] = {}
        mentioned: set[int] = set()
        for rel in short:
            gens = [x >> 1 for x in rel]
            if not solved.keys().isdisjoint(gens):
                continue
            once = [x for x in rel if gens.count(x >> 1) == 1 and x >> 1 not in mentioned]
            if once:
                # x rest = 1, so x = rest^-1
                x = min(once, key=lambda y: rarity[y >> 1])
                i = rel.index(x)
                rest = rel[i + 1 :] + rel[:i]
                solved[x >> 1] = rest if x & 1 else _inverse(rest)
                mentioned.update(gens)
        if not solved:
            break
        image = [(x,) for x in range(2 * n_gens)]
        for g, word in solved.items():
            image[2 * g], image[2 * g + 1] = word, _inverse(word)
            eliminated.append((g, word))
        relators = _rewrite(relators, image)

    gone = {g for g, _ in eliminated}
    survivors = [g for g in range(n_gens) if g not in gone]
    number = [0] * (2 * n_gens)
    for k, g in enumerate(survivors):
        number[2 * g], number[2 * g + 1] = 2 * k, 2 * k + 1
    return survivors, [tuple([number[x] for x in rel]) for rel in relators], eliminated


def _require_budget(max_cosets: object) -> None:
    if isinstance(max_cosets, bool) or not isinstance(max_cosets, int) or max_cosets < 1:
        raise InvalidParameters(f"the coset budget must be an int of at least 1, got {max_cosets!r}")


def coset_enumerate(pres: GroupPresentation, max_cosets: int = DEFAULT_MAX_COSETS) -> CosetResult:
    """Order of the presented group, or inconclusive under the bound.

    The enumeration runs on the presentation :func:`_tietze` reduces, so
    ``max_cosets`` counts cosets of that.  A closed table passes the
    enumerator's audit, and then, with a column made for each eliminated
    generator from its word, every relator of the input must close at
    every live coset.

    >>> coset_enumerate(coxeter_presentation(4)).order
    24
    """
    _require_budget(max_cosets)
    relators = _relators(pres)
    survivors, reduced, eliminated = _tietze(len(pres.generators), relators)
    enum = _Enumerator(len(survivors), reduced, max_cosets)
    try:
        enum.run()
    except _BudgetHit:
        return CosetResult(False, None, enum.defined, len(enum.live()))
    table, reduced_ids = enum.audit()
    # each eliminated generator, and its inverse, is the product of its word
    ids = [table.identity] * (2 * len(pres.generators))
    for k, g in enumerate(survivors):
        ids[2 * g], ids[2 * g + 1] = reduced_ids[2 * k], reduced_ids[2 * k + 1]
    for g, word in reversed(eliminated):
        ids[2 * g], ids[2 * g + 1] = table.evaluate(word, ids), table.evaluate(_inverse(word), ids)
    _require_closed(table, ids, relators)
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
    first = pres.label_equations(table, letter_label_ids(pres.generators, table)).find(0)
    failure = None if first < 0 else str(pres.relations[first])

    image_order = _generated_order({g.label for g in pres.generators}, r)
    return HomReport(
        relations_checked=pres.relation_count,
        relations_satisfied=failure is None,
        image_order=image_order,
        surjective=image_order == math.factorial(r),
        first_failure=failure,
    )


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

    For r <= n-2 the pipeline reduces off the SQ3 index, and its log is
    replayed in memory on the presentation, built here once for the replay
    and the coset oracle; ``pipeline`` is the replay's verdict and
    ``homomorphism`` says whether it discharged every relation on labels.
    ``budget``, when given, also runs the coset oracle, which must then find
    r! elements if it closes; a budget that is not an int of at least 1
    raises InvalidParameters before anything is built.

    Returns (report, derivation_log); the log is None in the boundary
    regime r = n-1, where the reduction pipeline does not apply and the
    report instead notes whether the presentation reduces to a free group.
    There the bottom family is empty, so every relation should be a top
    relation g = h or a middle relation g = 1, which the union-find round
    of :func:`_tietze` solves: the group is free when no relator is left.
    """
    import warnings

    if not (1 <= r <= n - 1):
        raise InvalidParameters(f"need 1 <= r <= n-1, got r={r}, n={n}")
    if budget is not None:
        _require_budget(budget)
    if r == n - 1:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            pres = build_presentation(n, r)
            hom = label_homomorphism_check(pres)
        survivors, left, _ = _tietze(len(pres.generators), _relators(pres))
        free_ok = not left
        report = VerifyReport(
            n=n,
            r=r,
            pipeline=False,
            homomorphism=hom.ok,
            coset_order=None,
            verdict=f"not confirmed: boundary r = n-1, free-type regime "
            f"({len(survivors)} generators, no relations survive)"
            if free_ok
            else "not confirmed: boundary r = n-1, simplification left relations",
            hom_report=hom,
            boundary_free_consistent=free_ok,
        )
        return report, None

    _, log = pipeline.run_pipeline(n, r)
    pres = build_presentation(n, r)
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
