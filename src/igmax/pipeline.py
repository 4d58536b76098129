"""Stepwise reduction of the idempotent-pair presentation to the Coxeter
one: the producer of the derivation log.

The presentation has one generator per (kernel, image) pair.  This module
eliminates all but r-1 of them through a logged sequence of derivation steps,
each of which is locally checkable: identity-labeled generators are driven to
1 through Schreier-word and base citations, equal-labeled generators are
identified along rows and columns of singular squares, contiguous-cycle
classes are split into products of adjacent-transposition classes,
higher-descent labels are reduced in place, and the three Coxeter relation
shapes are produced from explicit squares.  Finally every original relation
is discharged through the accumulated resolution map, one discharge step
per relation index, counted off the SQ3 index: no presentation is built.

The log's format and the checker a verdict rests on are :mod:`igmax.replay`,
which imports nothing from here, so none of the producer's own checks is
load-bearing: a construction that went wrong yields a step the replay
rejects.  The constructions compute with the kernel and image objects of
``squares._singular_index(n, r)``; :class:`Derivation` records their ids.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .combinatorics import Partition, Subset
from .errors import InvalidParameters, VerificationFailed
from .perms import Permutation, classify_descent_one, descent_number, rightmost_descent
from .presentation import GroupPresentation, Word, coxeter_presentation, free_reduce, substitute
from .replay import (
    DerivationLog,
    DerivationStep,
    Equation,
    Pair,
    SquareIds,
    _bottom_relation,
    _corners,
    _coxeter_mismatch,
    _eq_relation,
    _one_relation,
    _three_quarter_relation,
    canonical_cycle_pair,
)
from .schreier import convex_partition_of, predecessor
from .squares import _singular_index, _SingularIndex, is_singular_ids

# Not called here: perfbench/trace_run.py wraps these three names in this module.
from .presentation import build_presentation  # noqa: F401
from .replay import replay_log  # noqa: F401
from .schreier import build_schreier  # noqa: F401

# a square as its kernels P, Q and images A, B, the index's own objects
Corners = tuple[Partition, Partition, Subset, Subset]


def _square_texts(index: _SingularIndex, sq: SquareIds) -> list[str]:
    """The texts of a square's kernels and images, for a message."""
    p, q, a, b = sq
    return [str(index.parts[p]), str(index.parts[q]), str(index.subsets[a]), str(index.subsets[b])]


def _require_singular(index: _SingularIndex, sq: SquareIds) -> None:
    p, q, a, b = sq
    if p == q or a == b:
        raise InvalidParameters(f"square {_square_texts(index, sq)} is degenerate")
    if not is_singular_ids(index, p, q, a, b):
        raise VerificationFailed(f"square fails the singularity tests: {_square_texts(index, sq)}")


# ---------------------------------------------------------------------------
# pure constructions
# ---------------------------------------------------------------------------
#
# Each construction computes the blocks and elements it needs and takes the
# kernels and images with them from ``squares._singular_index(n, r)``, so the
# derivation's kernels and images are the index's own objects.  A lookup
# miss raises InvalidParameters.  A square is returned as its corners
# (P, Q, A, B), unchecked: ``Derivation._square`` checks each witness once,
# and the tests sweep every construction's squares.


def cycle_split(k: int, l: int, n: int, r: int) -> Corners:
    """The corners (P, Q, A, B) of a square splitting the (k,l)-cycle, l >= 2.

    PA's label is the identity, so the square solves QB, whose label is the
    (k,l)-cycle, as QA * PB: the adjacent transposition at k and the
    (k+1, l-1)-cycle.
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
    return p, q, a, b


def descent_reduction(P: Partition, A: Subset, lam: Permutation) -> tuple[Partition, Subset]:
    """The corners (Q, B) that split f[P,A], whose label ``lam`` has
    descent >= 2, across the singular square (P, Q, A, B).

    QB's label is the identity, so the square solves PA as PB * QA: PB's
    label is the contiguous cycle at ``lam``'s rightmost descent and QA's
    has descent number exactly one less.
    """
    d = descent_number(lam)
    if d < 2:
        raise InvalidParameters(f"descent reduction needs descent >= 2, got {d}")
    n, r = P.n, len(P)
    index = _singular_index(n, r)
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


def coxeter_square_involution(k: int, n: int, r: int) -> Corners:
    """The corners (P, Q, A, B) of the square forcing the square of the k-th
    surviving class to be 1: PA and QB carry the adjacent transposition at
    k, PB and QA the identity."""
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
    return p, q, a, b


def coxeter_square_commute(k: int, l: int, n: int, r: int) -> tuple[Corners, Corners]:
    """The corners (P, Q, A, B) and (Q, R, B, C) of two chained squares
    forcing distant surviving classes to commute; they share the corner QB."""
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
    return (p, q, a, b), (q, rr, b, c)


def coxeter_square_braid(k: int, n: int, r: int) -> Corners:
    """The corners (P, Q, A, B) of the square behind the braid relation for
    adjacent surviving classes."""
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
    return p, q, a, b


def _braid_mirror_square(k: int, n: int, r: int) -> Corners:
    """The corners (W, Q, Z, B) of the companion square giving the second
    factorisation used for the braid: W and Z are the involution square's Q
    and A, Q and B the braid square's.  Both label quotients equal the
    adjacent transposition at k.
    """
    _, w, z, _ = coxeter_square_involution(k, n, r)
    _, q, _, b = coxeter_square_braid(k, n, r)
    return w, q, z, b


# ---------------------------------------------------------------------------
# the derivation engine
# ---------------------------------------------------------------------------


class Derivation:
    """Fact store and step emitter over one (n, r) ground case.

    Its constructions compute with the kernel and image objects of
    ``squares._singular_index(n, r)``, looked up by blocks and by elements,
    and everything it records is held as the index's ids: a generator is
    its pair's id (the presentation's generator of that number), a
    conclusion is an :class:`~igmax.replay.Equation` of int letters, each
    taken from the index's one list ``letters``, and a witness square is
    the ids of its two kernels and two images, checked singular on ids
    (:func:`~igmax.squares.is_singular_ids`) once, when it is first made.
    Each fact is concluded once: one ``bottom`` step per witness square,
    and one step per other conclusion.  The memos are keyed by generator
    id.  Labels, and the relation count
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
        self.letters = self.index.letters
        self._one_memo: dict[int, int] = {}
        self._eq_memo: dict[int, int] = {}
        self._res_memo: dict[int, tuple[Optional[int], Word]] = {}
        self._rep_memo: dict[tuple[int, int], Pair] = {}
        # each fact once: the step of each conclusion but a square's bottom
        # relation (see _square), and of each row and column equation g = h
        self._facts: dict[Optional[Equation], int] = {}
        self._pair_memo: dict[tuple[int, int], int] = {}
        self._squares: dict[SquareIds, tuple[SquareIds, int]] = {}
        self._final_steps: list[int] = []

    def _swap(self, A: Subset, old: int, new: int) -> Subset:
        """The image ``A`` with its element ``old`` swapped for ``new``."""
        return self.index.image([new if x == old else x for x in A.elements])

    def _square(self, p: Partition, q: Partition, a: Subset, b: Subset) -> tuple[SquareIds, int]:
        """The ids of the square over (p, q, a, b), one tuple per distinct
        square, and the step of its bottom relation, which a square step
        cites first.  The producer checks each distinct witness square (SQ3
        and SQ2, on ids) here, once, and emits its one bottom step; the
        constructions that build squares do not check their own."""
        key = self.index.square(p, q, a, b)
        out = self._squares.get(key)
        if out is None:
            _require_singular(self.index, key)
            rel = _bottom_relation(_corners(self.index, key), self.letters)
            out = self._squares[key] = (key, self.log.append(DerivationStep("bottom", rel, (), key)))
        return out

    def _add(
        self,
        rule: str,
        conclusion: Optional[Equation],
        premises: Iterable[int] = (),
        square: Optional[SquareIds] = None,
        data: Optional[dict] = None,
    ) -> int:
        """Append a step, or return the earlier one with its conclusion
        (the one step without, coxeter-match, is made once)."""
        idx = self._facts.get(conclusion)
        if idx is None:
            step = DerivationStep(rule, conclusion, tuple(premises), square, data)
            idx = self._facts[conclusion] = self.log.append(step)
        return idx

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
            (x,) = fact.lhs
            lhs = substitute(lhs, x >> 1, fact.rhs, self.letters)
            rhs = substitute(rhs, x >> 1, fact.rhs, self.letters)
        conclusion = Equation(free_reduce(lhs), free_reduce(rhs))
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
            sq, s_b = self._square(Q, P, B, A)
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
        sq, s_b = self._square(P, Q, A, AP)
        s1 = self.one(Q, A)
        s2 = self.one(Q, AP)
        s3 = self.one(P, AP)
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
        sq, s_b = self._square(P, Q, A, B)
        s1 = self.one(P, B)
        s2 = self.one(Q, A)
        s3 = self.one(Q, B)
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
        if (ga, gb) not in self._pair_memo:
            self._pair_memo[ga, gb] = self._same_row(P, A, B, ga, gb)
        return self._pair_memo[ga, gb]

    def _same_row(self, P: Partition, A: Subset, B: Subset, ga: int, gb: int) -> int:
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
        sq, s_b = self._square(P, Q, A, B)
        s1 = self.one(Q, A)
        s2 = self.one(Q, B)
        return self._add("flush-row", _eq_relation(ga, gb, self.letters), (s_b, s1, s2), square=sq)

    def _shared_transversal_eq(self, P: Partition, Q: Partition, A: Subset, B: Subset) -> int:
        """f[P,A] = f[Q,A] via the identity column B common to both kernels."""
        key = (self._gen(P, A), self._gen(Q, A))
        if key not in self._pair_memo:
            self._pair_memo[key] = self._flush_column(P, Q, A, B)
        return self._pair_memo[key]

    def _flush_column(self, P: Partition, Q: Partition, A: Subset, B: Subset) -> int:
        s1 = self.one(P, B)
        s2 = self.one(Q, B)
        sq, s_b = self._square(P, Q, B, A)
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
            # f[Q,A] = f[P,A]: every consumer is a transitive step
            return self.same_column(Q, P, A)
        x = P.minima[u]
        v = Q.block_index(x)
        blocks = [list(b) for b in Q.blocks]
        blocks[v - 1].remove(x)
        blocks[u].append(x)
        R = self.index.kernel(blocks)
        s1 = self.same_column(P, R, A)
        s2 = self._shared_transversal_eq(Q, R, A, self.index.image(Q.minima))
        if s1 is None:  # R is P: s2 is the fact, reversed
            return s2
        return self._add("transitive", _eq_relation(ga, gq, self.letters), (s1, s2))

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

    def resolve(self, P: Partition, A: Subset) -> tuple[Optional[int], Word]:
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

    def _resolve_cycle(self, P: Partition, A: Subset, k: int, l: int) -> tuple[Optional[int], Word]:
        rep = self.rep_pair(k, l)
        if (P, A) == rep:
            if l == 1:
                return None, (self.letters[2 * self._gen(*rep)],)
            p, q, a, b = cycle_split(k, l, self.n, self.r)
            sq, s_b = self._square(p, q, a, b)
            s_one = self.one(p, a)
            s_tq = self._three_quarter(sq, "PA", s_b, s_one)
            s_eq = self.cycle_eq(q, b)
            i1, w1 = self.resolve(q, a)
            i2, w2 = self.resolve(p, b)
            idx = self._rewrite(s_tq, (s_eq, i1, i2))
            return idx, free_reduce(w1 + w2)
        s_eq = self.cycle_eq(P, A)
        ri, rw = self.resolve(*rep)
        if ri is None:
            return s_eq, rw
        idx = self._rewrite(s_eq, (ri,))
        return idx, rw

    def _resolve_descent(self, P: Partition, A: Subset, lam: Permutation) -> tuple[int, Word]:
        Q, B = descent_reduction(P, A, lam)
        sq, s_b = self._square(P, Q, A, B)
        s_one = self.one(Q, B)
        s_tq = self._three_quarter(sq, "QB", s_b, s_one)
        i1, w1 = self.resolve(P, B)
        i2, w2 = self.resolve(Q, A)
        idx = self._rewrite(s_tq, (i1, i2))
        return idx, free_reduce(w1 + w2)

    # -- the three Coxeter relation families ----------------------------------

    def derive_involution(self, k: int) -> int:
        p, q, a, b = coxeter_square_involution(k, self.n, self.r)
        sq, s_b = self._square(p, q, a, b)
        s_one_qa = self.one(q, a)
        s_tq = self._three_quarter(sq, "QA", s_b, s_one_qa)
        s_one_pb = self.one(p, b)
        i_pa, w_pa = self.resolve(p, a)
        i_qb, w_qb = self.resolve(q, b)
        idx = self._rewrite(s_tq, (s_one_pb, i_pa, i_qb))
        self._final_steps.append(idx)
        return idx

    def derive_commute(self, k: int, l: int) -> int:
        (p, q, a, b), (_, rr, _, c) = coxeter_square_commute(k, l, self.n, self.r)
        (sq1, s_b1), (sq2, s_b2) = self._square(p, q, a, b), self._square(q, rr, b, c)
        s_one_pa = self.one(p, a)
        s_tq1 = self._three_quarter(sq1, "PA", s_b1, s_one_pa)
        s_one_rc = self.one(rr, c)
        s_tq2 = self._three_quarter(sq2, "QB", s_b2, s_one_rc)
        s_comb = self._add(
            "combine",
            Equation(self.log.steps[s_tq1].conclusion.rhs, self.log.steps[s_tq2].conclusion.rhs),
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
        w, q, z, b = _braid_mirror_square(k, self.n, self.r)
        i_qb, w_qb = self.resolve(q, b)
        mirror, s_b = self._square(w, q, z, b)
        s_one = self.one(w, z)
        s_tq = self._three_quarter(mirror, "PA", s_b, s_one)
        i_qz, _ = self.resolve(q, z)
        i_wb, _ = self.resolve(w, b)
        s_rw = self._rewrite(s_tq, (i_qz, i_wb))
        alt = self.log.steps[s_rw].conclusion
        idx = self._add("combine", Equation(w_qb, alt.rhs), (i_qb, s_rw))
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
            for x in word:
                if x >> 1 not in canon:
                    raise VerificationFailed(f"resolution of {name(g)} mentions non-canonical {name(x >> 1)}")

    def discharge_all(self) -> None:
        """Check that the resolution map ρ sends every generator g to a word
        with eval(ρ(g)) = label(g), then emit one discharge step per original
        relation.  Evaluation in S_r and the label map are homomorphisms, so a
        relation u = v then holds under ρ exactly when label(u) = label(v);
        :func:`igmax.replay.replay_log` checks that equation for each
        discharge step.  The steps need only the relation count, so no
        relation is read here, and are one run, held as one range."""
        table, label_ids, name = self.index.product_table, self.index.letter_label_ids, self.index.name
        for g in range(len(self.index.pairs)):
            res = self._res_memo.get(g)
            if res is None:
                raise VerificationFailed(f"no resolution for {name(g)}")
            if table.evaluate(res[1], label_ids) != label_ids[2 * g]:
                raise VerificationFailed(f"resolution of {name(g)} does not evaluate to its label")
        self.log.steps.add_run(range(sum(self.index.family_sizes())))

    def finish(self) -> GroupPresentation:
        canon = self.canonical_generators()
        mismatch = _coxeter_mismatch((self.log.steps[i].conclusion for i in self._final_steps), canon, self.r)
        if mismatch is not None:
            raise VerificationFailed(mismatch)
        self._add("coxeter-match", None, tuple(self._final_steps), data={"canonical": canon})
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
