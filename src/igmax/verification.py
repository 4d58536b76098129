"""Verdicts on the main theorem.

For r <= n-2 a verdict rests on one replay: :func:`verify_theorem` reduces
the presentation and re-checks the log it produced with
:func:`igmax.replay.replay_log`.  A log that replays shows |G| <= r! (every
generator is a word over r-1 generators satisfying the Coxeter relations)
and a homomorphism onto S_r (every relation holds on the labels, and the
canonical labels are the adjacent transpositions).  Beside it stands
Todd–Coxeter coset enumeration over the trivial subgroup, which gives the
exact order when it closes and reaches every (8, r) under the default
budget.  The oracle reads only the relations: no labels and no derivation.

At the boundary r = n-1 no reduction runs.  There the group is free of
rank (n-1)(n-2)/2, and :func:`_boundary_verdict` checks that on
:func:`~igmax.presentation.relation_families` ``(n, n-1)`` and the SQ3
index: no bottom relation, no relator left by the Tietze pass of
:func:`_tietze`, and as many survivors as the rank of the kernel–image
graph.  :func:`label_homomorphism_check` evaluates the relations on the
index's labels there, as the replay does below it (``label_failures``).

:func:`coset_enumerate` runs in four steps.

1. Span.  The paper's bottom family has k(k-1) relations x_P = x_Q for
   each SQ3 bucket of k kernels.  The enumeration reads only a spanning
   subfamily with the same normal closure, a star of k-1 relations
   x_{P1} = x_{Pi} per bucket and one bucket of each pair of mutually
   inverse ones (:meth:`~igmax.presentation.RelationFamilies.spanning_bottom`),
   beside the top and middle relations.  At (8,3) the enumeration reads
   91,741 relations of the presentation's 8,044,861.
2. Reduce.  Nearly all of the paper's generators are redundant, so
   :func:`_tietze` eliminates them by Tietze moves first: a union-find pass
   over the relations that say g = 1 or g = h^±1, then rounds that solve
   relators of at most three letters for a generator that occurs in them
   once.  At (7,5) this leaves 4 of 525 generators.
3. Enumerate.  HLT on the reduced presentation: process cosets in
   creation order, scan each relator with gap filling (lowest undefined
   entry first), then fill any remaining undefined generator entries.
   Coincidences are merged through a union-find with a FIFO queue.  The
   reduction keeps one relator per class of rotations of a word and of its
   inverse, which all have the same normal closure.  The run is
   deterministic.  On the unreduced relators of :func:`_reduced`, which
   drop only a relator whose inverse or itself came earlier, HLT defines
   exactly the cosets it defines when it scans every relator: once a scan
   of w at a coset returns, w closes there for good, and the table is
   consistent on inverses after every merge, so a later scan of w or w^-1
   would define nothing.
4. Audit.  The closed table is re-checked in full: each letter's column
   must be a permutation of the live cosets, inverse to the column of the
   inverse letter, and every reduced relator must close at every live
   coset, which with inverse columns covers the dropped inverses too.
   Then each eliminated generator gets the column of the word it was
   replaced by, in reverse order of elimination; every top and middle
   relation must close at every live coset, and every member P of every
   bucket, in both orientations, must give x_P one permutation of the
   cosets, which is exactly that the whole bottom family closes, the
   relations the enumeration never read included
   (:meth:`~igmax.presentation.RelationFamilies.buckets_agree`, one
   product per member).  That audit covers every generator and every
   relation of the paper's presentation: the columns are shown to be an
   action of the presented group itself, not only of the reduced one, and
   an elimination whose word contradicts a relation stops the run before
   an order is reported.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from itertools import chain
from typing import Optional

from . import pipeline, replay
from .errors import InvalidParameters, VerificationFailed
from .frozen import Frozen
from .perms import ProductTable
from .presentation import (
    RelationFamilies,
    coxeter_presentation,
    free_reduce,
    inverse,
    relation_families,
    relator,
    relator_key,
    word_text,
)
from .squares import _SingularIndex, _singular_index

# Not called here: perfbench/trace_run.py wraps these two names in this module.
from .presentation import build_presentation, presentations_match  # noqa: F401

# the coset budget of coset_enumerate and of ``igmax verify --with-coset-oracle``
DEFAULT_MAX_COSETS = 50_000


class CosetResult(Frozen):
    __slots__ = ("closed", "order", "cosets_defined", "live_cosets")

    def __init__(self, closed: bool, order: Optional[int], cosets_defined: int, live_cosets: int):
        object.__setattr__(self, "closed", closed)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "cosets_defined", cosets_defined)
        object.__setattr__(self, "live_cosets", live_cosets)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)

    def to_json(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


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


def _reduced(relations) -> list[tuple[int, ...]]:
    """Freely reduced int relators of ``(lhs, rhs)`` letter pairs, one per
    class of a word and its inverse.

    A relation lhs = rhs gives the letters of lhs followed by those of rhs
    inverted: ``2*index + 1`` for an inverse generator, so ``letter ^ 1``
    inverts a letter.  A relator is kept only if neither it nor its inverse
    came earlier; the first occurrence is kept.  This changes no coset the
    enumeration defines: once a scan of w at a coset returns, w closes there,
    merges and definitions keep it closed, and the table after every drain
    is consistent on inverses (a·l = b gives b·l^-1 = a).  So a later scan
    of w, or of w^-1, at that coset defines nothing and queues nothing.

    >>> _reduced(coxeter_presentation(3).families.words)
    [(0, 0), (2, 2), (0, 2, 0, 3, 1, 3)]
    """
    relators = []
    seen = set()
    for lhs, rhs in relations:
        key = relator(lhs, rhs)
        if key and key not in seen:
            seen.add(key)
            seen.add(inverse(key))
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
        reduced = free_reduce(word)
        i, j = 0, len(reduced) - 1
        while i < j and reduced[i] == reduced[j] ^ 1:
            i += 1
            j -= 1
        if i > j:
            continue
        # a relator stands for all rotations of it and of its inverse: keep the least
        key = relator_key(reduced[i : j + 1])
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
        image += [word, inverse(word)]
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
                solved[x >> 1] = rest if x & 1 else inverse(rest)
                mentioned.update(gens)
        if not solved:
            break
        image = [(x,) for x in range(2 * n_gens)]
        for g, word in solved.items():
            image[2 * g], image[2 * g + 1] = word, inverse(word)
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


def coset_enumerate(families: RelationFamilies, max_cosets: int = DEFAULT_MAX_COSETS) -> CosetResult:
    """Order of the group ``families`` presents, or inconclusive under the
    bound.

    ``families`` is :func:`~igmax.presentation.relation_families` ``(n, r)``
    or a presentation's ``families``.  The enumeration reads the top,
    middle and hand-made relations and a spanning subfamily of the bottom
    family, and runs on the presentation :func:`_tietze` reduces that to,
    so ``max_cosets`` counts cosets of that.  A closed table passes the
    enumerator's audit, and then, with a column made for each eliminated
    generator from its word, every relation must close at every live coset,
    the whole bottom family included.

    >>> coset_enumerate(coxeter_presentation(4).families).order
    24
    """
    _require_budget(max_cosets)
    words = _reduced(families.words)
    relators = words + _reduced(families.spanning_bottom()) if families.bottom else words
    survivors, reduced, eliminated = _tietze(families.generator_count, relators)
    enum = _Enumerator(len(survivors), reduced, max_cosets)
    try:
        enum.run()
    except _BudgetHit:
        return CosetResult(False, None, enum.defined, len(enum.live()))
    table, reduced_ids = enum.audit()
    ids = _columns(table, reduced_ids, families.generator_count, survivors, eliminated)
    _require_closed(table, ids, words)
    if families.bottom and not families.buckets_agree(table.product, ids):
        raise VerificationFailed("a bottom relator does not close on a live coset: a bucket's x_P disagree")
    live = len(enum.live())
    return CosetResult(True, live, enum.defined, live)


def _columns(
    table: ProductTable,
    reduced_ids: list[int],
    n_gens: int,
    survivors: list[int],
    eliminated: list[tuple[int, tuple[int, ...]]],
) -> list[int]:
    """The id in ``table`` of each input letter's column: a survivor's from
    the reduced table, an eliminated generator's, and its inverse's, the
    product of its word, in reverse order of elimination."""
    ids = [table.identity] * (2 * n_gens)
    for k, g in enumerate(survivors):
        ids[2 * g], ids[2 * g + 1] = reduced_ids[2 * k], reduced_ids[2 * k + 1]
    for g, word in reversed(eliminated):
        ids[2 * g], ids[2 * g + 1] = table.evaluate(word, ids), table.evaluate(inverse(word), ids)
    return ids


def label_homomorphism_check(families: RelationFamilies, index: _SingularIndex) -> Optional[str]:
    """The first relation of ``families`` that fails when each generator, a
    pair of ``index``, is sent to its label, in the index's ``f[P|A]``
    text; None when every relation holds on the labels."""
    failing = families.label_failures(index.product_table, index.letter_label_ids)
    for first in failing(range(families.relation_count)):
        return " = ".join(word_text(side, index.name) for side in families.letters(first))
    return None


class VerifyReport:
    __slots__ = ("n", "r", "pipeline", "homomorphism", "coset_order", "verdict", "replay_report", "coset_result")

    def __init__(self, n: int, r: int, pipeline: bool, homomorphism: bool, coset_order: Optional[int], verdict: str,
                 replay_report: Optional[replay.ReplayReport] = None, coset_result: Optional[CosetResult] = None):
        self.n, self.r, self.pipeline, self.homomorphism = n, r, pipeline, homomorphism
        self.coset_order, self.verdict = coset_order, verdict
        self.replay_report, self.coset_result = replay_report, coset_result

    def to_json(self) -> dict:
        out = {
            "n": self.n,
            "r": self.r,
            "pipeline": self.pipeline,
            "homomorphism": self.homomorphism,
            "coset_order": self.coset_order,
            "verdict": self.verdict,
        }
        if self.replay_report is not None:
            out["replay_detail"] = self.replay_report.to_json()
        if self.coset_result is not None:
            out["coset_detail"] = self.coset_result.to_json()
        return out


def _boundary_verdict(n: int) -> VerifyReport:
    """The verdict at r = n-1: the group is free of rank (n-1)(n-2)/2.

    No proper square is singular there, so every relation is a top relation
    g = h or a middle relation g = 1, and the presentation presents the
    fundamental group of the kernel–image graph (Gray–Ruškuc): a vertex
    per kernel and per image, an edge per transversal pair.  At r = n-1 that
    graph is the subdivision of K_n, and the group is free of rank
    E - V + 1 = C(n-1, 2).  Four checks, each of which can fail: the
    bottom family is empty; the Tietze pass of :func:`_tietze`, whose
    union-find round solves relations of those two shapes, leaves no
    relator, so the group is free on its survivors; the survivors number
    E - V + 1 of the graph the index holds, which is C(n-1, 2); and every
    relation holds on the index's labels (``homomorphism``).
    """
    r = n - 1
    families = relation_families(n, r)
    index = _singular_index(n, r)
    survivors, left, _ = _tietze(families.generator_count, _reduced(families.words))
    rank = len(survivors)
    graph_rank = len(index.pairs) - len(index.parts) - len(index.subsets) + 1
    failure = label_homomorphism_check(families, index)
    if families.bottom:
        verdict = "not confirmed: the bottom family is not empty"
    elif left:
        verdict = "not confirmed: Tietze moves leave a relator"
    elif rank != graph_rank:
        verdict = f"not confirmed: {rank} generators survive, the kernel-image graph has rank {graph_rank}"
    elif rank != math.comb(n - 1, 2):
        verdict = f"not confirmed: {rank} generators survive, not (n-1)(n-2)/2 = {math.comb(n - 1, 2)}"
    elif failure is not None:
        verdict = f"not confirmed: {failure} fails on the labels"
    else:
        verdict = f"confirmed free of rank {rank}"
    return VerifyReport(n, r, pipeline=False, homomorphism=failure is None, coset_order=None, verdict=verdict)


def verify_theorem(n: int, r: int, budget: Optional[int] = None):
    """Assemble the verdict for one (n, r).

    For r <= n-2 the pipeline reduces off the SQ3 index, and its log is
    replayed in memory, off the same index; ``pipeline`` is the replay's
    verdict and ``homomorphism`` says whether it discharged every relation
    on labels.  ``budget``, when given, also runs the coset oracle on the
    relation families the replay read, which must then find r! elements if
    it closes; if it does not close, a passing replay's verdict is
    "inconclusive", not "confirmed".  A budget that is not an int of at least 1 raises
    InvalidParameters before anything is built, and so does any budget at
    r = n-1.  No presentation is built, below the boundary or at it.

    Returns (report, derivation_log); the log is None at the boundary
    r = n-1, where no reduction runs and the verdict is
    :func:`_boundary_verdict`'s, "confirmed free of rank (n-1)(n-2)/2".
    """
    if not (1 <= r <= n - 1):
        raise InvalidParameters(f"need 1 <= r <= n-1, got r={r}, n={n}")
    if budget is not None:
        _require_budget(budget)
        if r == n - 1:
            raise InvalidParameters(f"the coset oracle needs r <= n-2, got r={r}, n={n}")
    if r == n - 1:
        return _boundary_verdict(n), None

    _, log = pipeline.run_pipeline(n, r)
    replayed = replay.replay_log(log)
    homomorphism = replayed.discharged == replayed.relations

    coset_order = None
    coset_result = None
    if budget is not None:
        coset_result = coset_enumerate(relation_families(n, r), max_cosets=budget)
        coset_order = coset_result.order

    if replayed.ok:
        verdict = f"confirmed S_{r}"
        if coset_result is not None and not coset_result.closed:
            verdict = "inconclusive"
        elif coset_order is not None and coset_order != math.factorial(r):
            verdict = f"inconsistent: coset oracle returned {coset_order}"
    else:
        failed = "pipeline" if homomorphism else "pipeline, homomorphism"
        verdict = f"not confirmed: {failed} failed"
    report = VerifyReport(
        n=n,
        r=r,
        pipeline=replayed.ok,
        homomorphism=homomorphism,
        coset_order=coset_order,
        verdict=verdict,
        replay_report=replayed,
        coset_result=coset_result,
    )
    return report, log
