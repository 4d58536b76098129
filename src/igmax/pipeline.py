"""Stepwise reduction of the idempotent-pair presentation to the Coxeter
one: the producer of the derivation log.

The presentation has one generator per (kernel, image) pair.  This module
eliminates all but r-1 of them through a logged sequence of derivation steps,
each of which is locally checkable: identity-labeled generators are driven to
1 through top-relation and base citations, equal-labeled generators are
identified along rows and columns of singular squares, contiguous-cycle
classes are split into products of adjacent-transposition classes,
higher-descent labels are reduced in place, and the three Coxeter relation
shapes are produced from explicit squares.  Finally every original relation
is discharged through the accumulated resolution map, one discharge step
per relation index, counted off the SQ3 index: no presentation is built.

The log's format and the checker a verdict rests on are :mod:`igmax.replay`,
which imports nothing from here.  The producer repeats none of the replay's
checks: it tests no witness square, label, resolution word or Coxeter
relation, and a construction that went wrong yields a step the replay
rejects.  The constructions compute on the ids of
``squares._singular_index(n, r)``: a kernel is its number in
``index.parts``, its blocks read from ``index.block_of``; an image is its
number in ``index.subsets``; a generator is its pair's number.  A kernel
made by moving elements between blocks is looked up by its block-of-element
string (:meth:`~igmax.squares._SingularIndex.kernel_id`), an image by the
bits of its elements, so no step builds a kernel or an image object.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .errors import InvalidParameters, VerificationFailed
from .perms import classify_descent_one, descent_number, rightmost_descent
from .presentation import GroupPresentation, Word, coxeter_presentation, free_reduce, substitute
from .replay import (
    DerivationLog,
    DerivationStep,
    Equation,
    SquareIds,
    _bottom_relation,
    _corners,
    _eq_relation,
    _one_relation,
    _three_quarter_relation,
    cycle_rep,
)
from .squares import _singular_index, _SingularIndex

# Not called here: perfbench/trace_run.py wraps these three names in this module.
from .presentation import build_presentation  # noqa: F401
from .replay import replay_log  # noqa: F401
from .schreier import build_schreier  # noqa: F401

# the kind of an identity label; see Derivation.kinds
IDENTITY = (0, 0)


# ---------------------------------------------------------------------------
# pure constructions
# ---------------------------------------------------------------------------
#
# Each construction computes the blocks and elements it needs and returns
# the ids of its kernels and images in ``squares._singular_index(n, r)``.
# A lookup miss raises InvalidParameters.  A square is returned as its ids
# (P, Q, A, B), unchecked: the replay checks each witness once, and the
# tests sweep every construction's squares.


def cycle_split(k: int, l: int, n: int, r: int) -> SquareIds:
    """The square (P, Q, A, B) splitting the (k,l)-cycle, l >= 2.

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
    p, q = index.kernel_with(pblocks), index.kernel_with(qblocks)
    a = index.image_with([i for i in range(1, r + 3) if i not in (k, k + l + 2)])
    b = index.image_with([i for i in range(1, r + 3) if i not in (k, k + 2)])
    return p, q, a, b


def descent_reduction(index: _SingularIndex, p: int, a: int, lam: tuple[int, ...]) -> tuple[int, int]:
    """The corners (Q, B) that split f[P,A], whose label ``lam`` has
    descent >= 2, across the singular square (P, Q, A, B) of ``index``.

    QB's label is the identity, so the square solves PA as PB * QA: PB's
    label is the contiguous cycle at ``lam``'s rightmost descent and QA's
    has descent number exactly one less.
    """
    d = descent_number(lam)
    if d < 2:
        raise InvalidParameters(f"descent reduction needs descent >= 2, got {d}")
    r, minima, block_of, elements = index.r, index.parts[p].minima, index.block_of[p], index.subsets[a].elements
    v, w = rightmost_descent(lam)
    av = lambda i: elements[lam[i - 1] - 1]  # noqa: E731  - A's element in block i
    belems = (
        [minima[i - 1] for i in range(1, v)]
        + [av(i) for i in range(v + 1, v + w + 1)]
        + [av(v)]
        + [av(i) for i in range(v + w + 1, r + 1)]
    )
    # P's blocks 2..v-1 keep their numbers, singletons take r, r + 1, ...,
    # and the rest is block 0
    s = bytearray(i if 0 < i < v - 1 else 0 for i in block_of)
    singles = [av(i + 1) for i in range(2 if v == 1 else v, v + w)] + [av(v)] + [av(i) for i in range(v + w + 1, r + 1)]
    for i, x in enumerate(singles, start=r):
        s[x] = i
    return index.kernel_id(s), index.image_with(belems)


def coxeter_square_involution(k: int, n: int, r: int) -> SquareIds:
    """The square (P, Q, A, B) forcing the square of the k-th surviving
    class to be 1: PA and QB carry the adjacent transposition at k, PB and
    QA the identity."""
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
    p, q = index.kernel_with(pblocks), index.kernel_with(qblocks)
    a = index.image_with([i for i in range(1, r + 3) if i not in (k, k + 3)])
    b = index.image_with([i for i in range(1, r + 3) if i not in (k, k + 1)])
    return p, q, a, b


def coxeter_square_commute(k: int, l: int, n: int, r: int) -> tuple[SquareIds, SquareIds]:
    """The squares (P, Q, A, B) and (Q, R, B, C), chained, forcing distant
    surviving classes to commute; they share the corner QB."""
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
    p, q, rr = index.kernel_with(pblocks), index.kernel_with(qblocks), index.kernel_with(rblocks)
    a = index.image_with([i for i in range(1, r + 3) if i not in (k + 2, l + 1)])
    b = index.image_with([i for i in range(1, r + 3) if i not in (k, l + 1)])
    c = index.image_with([i for i in range(1, r + 3) if i not in (k, l + 3)])
    return (p, q, a, b), (q, rr, b, c)


def coxeter_square_braid(k: int, n: int, r: int) -> SquareIds:
    """The square (P, Q, A, B) behind the braid relation for adjacent
    surviving classes."""
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
    p, q = index.kernel_with(pblocks), index.kernel_with(qblocks)
    a = index.image_with([i for i in range(1, r + 3) if i not in (k + 1, k + 4)])
    b = index.image_with([i for i in range(1, r + 3) if i not in (k, k + 1)])
    return p, q, a, b


def _braid_mirror_square(k: int, n: int, r: int) -> SquareIds:
    """The square (W, Q, Z, B), the companion giving the second
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

    It computes and records everything as ids of
    ``squares._singular_index(n, r)``: a kernel is its number in
    ``index.parts``, an image its number in ``index.subsets``, and a
    generator its pair's number (the presentation's generator of that
    number).  Its methods take a pair as its kernel and image ids.  A
    conclusion is an :class:`~igmax.replay.Equation` of int letters, each
    taken from the index's one list ``letters``, and a witness square is the
    ids of its two kernels and two images, unchecked: the replay tests it.
    Each generator's label is classified once, into ``kinds``.  Each fact is
    concluded once: one ``bottom`` step per witness square, and one step per
    other conclusion, looked up by that conclusion in ``_facts`` before it
    is derived.  Labels, and the relation count
    (:meth:`~igmax.squares._SingularIndex.family_sizes`), are read off the
    index: no presentation is built.
    """

    def __init__(self, n: int, r: int):
        if not (1 <= r <= n - 2):
            raise InvalidParameters(f"derivations cover 1 <= r <= n-2, got r={r}, n={n}")
        self.n = n
        self.r = r
        self.log = DerivationLog(n=n, r=r)
        index = self.index = _singular_index(n, r)
        self.labels = index.labels
        self.letters = index.letters
        # _gen_of[p][a]: the generator id of the pair (p, a)
        self._gen_of = index.generator_of
        self._block_of = index.block_of
        self._image_of, self._mask = index.image_of, index.image_mask
        self._elements = [s.elements for s in index.subsets]
        self._minima = [p.minima for p in index.parts]
        self._base = tuple(range(1, r + 1))
        self._convex = [p.is_convex() for p in index.parts]
        self._min_image, self._top_of = index.min_image, index.top_of
        # the label of generator g is label id label_id[g]; equal labels, equal ids
        label_id = index.letter_label_ids[::2]
        # kinds[g]: IDENTITY, (k, l) for the (k,l)-cycle, or None for descent
        # >= 2, classified once per label id
        kind_of: dict[int, Optional[tuple[int, int]]] = {}
        for g, i in enumerate(label_id):
            if i not in kind_of:
                lam = self.labels[g]
                kind_of[i] = IDENTITY if lam == self._base else classify_descent_one(lam)
        self.kinds = [kind_of[i] for i in label_id]
        self._res_memo: dict[int, tuple[Optional[int], Word]] = {}
        self._rep_memo: dict[tuple[int, int], tuple[int, int]] = {}
        # each fact once: the step of each conclusion but a square's bottom
        # relation (see _square)
        self._facts: dict[Optional[Equation], int] = {}
        self._squares: dict[SquareIds, tuple[SquareIds, int]] = {}
        self._final_steps: list[int] = []

    def _swap(self, a: int, old: int, new: int) -> int:
        """The image ``a`` with its element ``old`` swapped for ``new``."""
        return self._image_of[self._mask[a] ^ (1 << old) ^ (1 << new)]

    def _moved(self, p: int, x: int, block: int) -> int:
        """The kernel ``p`` with element ``x`` moved into its 0-based block ``block``."""
        s = bytearray(self._block_of[p])
        s[x] = block
        return self.index.kernel_id(s)

    def _square(self, p: int, q: int, a: int, b: int) -> tuple[SquareIds, int]:
        """The ids of the square over (p, q, a, b), one tuple per distinct
        square, and the step of its bottom relation, which a square step
        cites first.  Each distinct witness square gets its one bottom step
        here, unchecked: the replay tests it singular (SQ3 and SQ2, on ids)
        once."""
        key = (p, q, a, b)
        out = self._squares.get(key)
        if out is None:
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

    def one(self, p: int, a: int) -> int:
        """A step concluding f[P,A] = 1, for a pair of identity label."""
        g = self._gen_of[p][a]
        idx = self._facts.get(_one_relation(g, self.letters))
        if idx is None:
            idx = self._one_convex(p, a, g) if self._convex[p] else self._one_general(p, a, g)
        return idx

    def _middle(self, p: int, ap: int) -> int:
        return self._add("middle", _one_relation(self._gen_of[p][ap], self.letters))

    def _top(self, p: int, x: int, y: int) -> int:
        gen = self._gen_of[p]
        return self._add("top", _eq_relation(gen[x], gen[y], self.letters))

    def _one_convex(self, p: int, a: int, g: int) -> int:
        ap = self._min_image[p]
        if a == ap:
            return self._middle(p, ap)
        r, minima, elements = self.r, self._minima[p], self._elements[a]
        if minima == self._base:
            # Blocks {1},...,{r-1},[r,n]: walk the free element down to r
            # through A's predecessor.
            _, b = self._top_of[a]
            s_prev = self.one(p, b)
            s_top = self._top(p, b, a)
            return self._add("transitive", _one_relation(g, self.letters), (s_prev, s_top))
        # m: the first block that is not {m}
        m = next(i for i in range(1, r) if minima[i] != i + 1)
        t = next(i for i in range(1, r + 1) if elements[i - 1] != minima[i - 1])
        if t == m:
            # B, A's predecessor, lowers its m-th element; Q is A's convex kernel
            q, b = self._top_of[a]
            s_top = self._top(q, b, a)
            s_one_b = self.one(p, b)
            if p == q:
                return self._add("transitive", _one_relation(g, self.letters), (s_one_b, s_top))
            sq, s_b = self._square(q, p, b, a)
            s_fl = self._add(
                "flush-row",
                _eq_relation(self._gen_of[p][b], g, self.letters),
                (s_b, s_top),
                square=sq,
            )
            return self._add("transitive", _one_relation(g, self.letters), (s_one_b, s_fl))
        # t > m: shrink block m by one and recurse on the lex-smaller minima.
        q = self._moved(p, minima[m] - 1, m)
        sq, s_b = self._square(p, q, a, ap)
        s1 = self.one(q, a)
        s2 = self.one(q, ap)
        s3 = self.one(p, ap)
        return self._add(
            "corner",
            _one_relation(g, self.letters),
            (s_b, s1, s2, s3),
            square=sq,
            data={"target": "PA"},
        )

    def _one_general(self, p: int, a: int, g: int) -> int:
        ap = self._min_image[p]
        if a == ap:
            return self._middle(p, ap)
        minima, elements = self._minima[p], self._elements[a]
        m = next(i for i in range(1, self.r + 1) if elements[i - 1] != minima[i - 1])
        starts = minima[:m] + elements[m:]
        b = self.index.image_with(starts)
        # Q: the intervals starting at B's elements
        s = bytearray(self.n + 1)
        for i in range(1, self.r):
            s[starts[i]:] = bytes((i,)) * (self.n + 1 - starts[i])
        q = self.index.kernel_id(s)
        sq, s_b = self._square(p, q, a, b)
        s1 = self.one(p, b)
        s2 = self.one(q, a)
        s3 = self.one(q, b)
        return self._add(
            "corner",
            _one_relation(g, self.letters),
            (s_b, s1, s2, s3),
            square=sq,
            data={"target": "PA"},
        )

    # -- row and column identifications --------------------------------------

    def same_row(self, p: int, a: int, b: int) -> Optional[int]:
        """A step concluding f[P,A] = f[P,B] for equal labels; None if A == B."""
        if a == b:
            return None
        gen = self._gen_of[p]
        ga, gb = gen[a], gen[b]
        idx = self._facts.get(_eq_relation(ga, gb, self.letters))
        if idx is None:
            idx = self._same_row(p, a, b, ga, gb)
        return idx

    def _same_row(self, p: int, a: int, b: int, ga: int, gb: int) -> int:
        if self.kinds[ga] is IDENTITY:
            s1 = self.one(p, a)
            s2 = self.one(p, b)
            return self._add("transitive", _eq_relation(ga, gb, self.letters), (s1, s2))
        # blocks {A_i, B_i} for i >= 2, and the rest
        ea, eb = self._elements[a], self._elements[b]
        s = bytearray(self.n + 1)
        for i in range(1, self.r):
            s[ea[i]] = s[eb[i]] = i
        q = self.index.kernel_id(s)
        sq, s_b = self._square(p, q, a, b)
        s1 = self.one(q, a)
        s2 = self.one(q, b)
        return self._add("flush-row", _eq_relation(ga, gb, self.letters), (s_b, s1, s2), square=sq)

    def _shared_transversal_eq(self, p: int, q: int, a: int, b: int) -> int:
        """f[P,A] = f[Q,A] via the identity column B common to both kernels."""
        gpa, gqa = self._gen_of[p][a], self._gen_of[q][a]
        idx = self._facts.get(_eq_relation(gpa, gqa, self.letters))
        if idx is None:
            idx = self._flush_column(p, q, a, b, gpa, gqa)
        return idx

    def _flush_column(self, p: int, q: int, a: int, b: int, gpa: int, gqa: int) -> int:
        s1 = self.one(p, b)
        s2 = self.one(q, b)
        sq, s_b = self._square(p, q, b, a)
        return self._add("flush-column", _eq_relation(gpa, gqa, self.letters), (s_b, s1, s2), square=sq)

    def same_column(self, p: int, q: int, a: int) -> Optional[int]:
        """A step concluding f[P,A] = f[Q,A] for equal labels; None if P == Q."""
        if p == q:
            return None
        ga, gq = self._gen_of[p][a], self._gen_of[q][a]
        if self.kinds[ga] is IDENTITY:
            s1 = self.one(p, a)
            s2 = self.one(q, a)
            return self._add("transitive", _eq_relation(ga, gq, self.letters), (s1, s2))
        mp, mq = self._minima[p], self._minima[q]
        if mp == mq:
            return self._shared_transversal_eq(p, q, a, self._min_image[p])
        u = 0
        while mp[u] == mq[u]:
            u += 1
        if mp[u] > mq[u]:
            # f[Q,A] = f[P,A]: every consumer is a transitive step
            return self.same_column(q, p, a)
        rr = self._moved(q, mp[u], u)
        s1 = self.same_column(p, rr, a)
        s2 = self._shared_transversal_eq(q, rr, a, self._min_image[q])
        if s1 is None:  # R is P: s2 is the fact, reversed
            return s2
        return self._add("transitive", _eq_relation(ga, gq, self.letters), (s1, s2))

    # -- contiguous-cycle classes --------------------------------------------

    def rep_pair(self, k: int, l: int) -> tuple[int, int]:
        """The (kernel, image) ids of the (k,l)-cycle's class representative."""
        rep = self._rep_memo.get((k, l))
        if rep is None:
            rep = self._rep_memo[k, l] = cycle_rep(k, l, self.n, self.r)
        return rep

    def cycle_eq(self, p: int, a: int) -> Optional[int]:
        """Chain f[P,A] to its class representative; None when already there."""
        ga = self._gen_of[p][a]
        k, l = self.kinds[ga]
        rp, ra = self.rep_pair(k, l)
        if p == rp and a == ra:
            return None
        conclusion = _eq_relation(ga, self._gen_of[rp][ra], self.letters)
        idx = self._facts.get(conclusion)
        if idx is not None:
            return idx
        if a == ra:
            return self._add("transitive", conclusion, (self.same_column(p, rp, a),))
        elements, minima = self._elements[a], self._minima[p]
        for i in range(k - 1):
            if elements[i] != minima[i]:
                # A leaves P's minima before position k: take P's minimum there
                a2 = self._swap(a, elements[i], minima[i])
                s1 = self.same_row(p, a, a2)
                s2 = self.cycle_eq(p, a2)
                return self._add("transitive", conclusion, tuple(s for s in (s1, s2) if s is not None))
        # at: A's first element above position i before k, above i + 1 from k on
        at = next(x for i, x in enumerate(elements, start=1) if x > (i if i < k else i + 1))
        d = at - 1
        pk = minima[k - 1]
        q = self._cycle_scaffold(p, a, k, l)
        block_of = self._block_of[q]
        if d != pk:
            # d leaves the first block for at's
            qp = q if block_of[d] == block_of[at] else self._moved(q, d, block_of[at])
        else:
            # k joins block k, and P's k-th minimum moves on to block k + 1
            s = bytearray(block_of)
            s[k] = k - 1
            s[pk] = k
            qp = self.index.kernel_id(s)
        a2 = self._swap(a, at, d)
        s1 = self.same_column(p, qp, a)
        s2 = self.same_row(qp, a, a2)
        s3 = self.cycle_eq(qp, a2)
        return self._add("transitive", conclusion, tuple(s for s in (s1, s2, s3) if s is not None))

    def _cycle_scaffold(self, p: int, a: int, k: int, l: int) -> int:
        """The comparison kernel from the cycle-class chaining argument:
        block i for i in 2..r, and the rest as block 0."""
        elements, s = self._elements[a], bytearray(self.n + 1)
        for i in range(2, k):
            s[elements[i - 1]] = i
        if k != 1:
            s[self._minima[p][k - 1]] = s[elements[k + l - 1]] = k
        for i in range(k + 1, k + l + 1):
            s[elements[i - 2]] = i
        for i in range(k + l + 1, self.r + 1):
            s[elements[i - 1]] = i
        return self.index.kernel_id(s)

    # -- resolution to canonical classes -------------------------------------

    def resolve(self, p: int, a: int) -> tuple[Optional[int], Word]:
        """Express f[P,A] as a word over the r-1 canonical class generators.

        Returns (step index, word); the index is None exactly for the
        canonical adjacent-transposition pairs themselves.
        """
        g = self._gen_of[p][a]
        out = self._res_memo.get(g)
        if out is not None:
            return out
        kind = self.kinds[g]
        if kind is IDENTITY:
            out = (self.one(p, a), ())
        elif kind is None:
            out = self._resolve_descent(p, a, self.labels[g])
        else:
            out = self._resolve_cycle(p, a, *kind)
        self._res_memo[g] = out
        return out

    def _resolve_cycle(self, p: int, a: int, k: int, l: int) -> tuple[Optional[int], Word]:
        rep = self.rep_pair(k, l)
        if (p, a) == rep:
            if l == 1:
                return None, (self.letters[2 * self._gen_of[p][a]],)
            cp, cq, ca, cb = cycle_split(k, l, self.n, self.r)
            sq, s_b = self._square(cp, cq, ca, cb)
            s_one = self.one(cp, ca)
            s_tq = self._three_quarter(sq, "PA", s_b, s_one)
            s_eq = self.cycle_eq(cq, cb)
            i1, w1 = self.resolve(cq, ca)
            i2, w2 = self.resolve(cp, cb)
            idx = self._rewrite(s_tq, (s_eq, i1, i2))
            return idx, free_reduce(w1 + w2)
        s_eq = self.cycle_eq(p, a)
        ri, rw = self.resolve(*rep)
        if ri is None:
            return s_eq, rw
        idx = self._rewrite(s_eq, (ri,))
        return idx, rw

    def _resolve_descent(self, p: int, a: int, lam: tuple[int, ...]) -> tuple[int, Word]:
        q, b = descent_reduction(self.index, p, a, lam)
        sq, s_b = self._square(p, q, a, b)
        s_one = self.one(q, b)
        s_tq = self._three_quarter(sq, "QB", s_b, s_one)
        i1, w1 = self.resolve(p, b)
        i2, w2 = self.resolve(q, a)
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

    def canonical_generators(self) -> list[int]:
        """The ids of the r-1 canonical adjacent-transposition generators."""
        return [self._gen_of[p][a] for p, a in (self.rep_pair(k, 1) for k in range(1, self.r))]

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
        """Emit one discharge step per original relation, as one run held as
        one range: the steps need only the relation count, so no relation
        is read here.  :func:`igmax.replay.replay_log` checks that every
        generator g is resolved to a word with eval(ρ(g)) = label(g), and
        then, since evaluation in S_r and the label map are homomorphisms,
        that each relation u = v holds under ρ by label(u) = label(v)."""
        self.log.steps.add_run(range(sum(self.index.family_sizes())))

    def finish(self) -> GroupPresentation:
        canon = self.canonical_generators()
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
    for k, a in eng.index.pairs:
        eng.resolve(k, a)
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
