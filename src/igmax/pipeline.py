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

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Optional

from .combinatorics import Partition, Subset
from .errors import InvalidParameters, VerificationFailed
from .labels import label_by_subscripts
from .perms import (
    classify_descent_one,
    contiguous_cycle,
    descent_number,
    evaluate_word,
    letter_images,
    rightmost_descent,
)
from .presentation import (
    AbstractGenerator,
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
    presentations_match,
    substitute,
)
from .schreier import IdempotentLetter, SchreierSystem, build_schreier, convex_partition_of, predecessor
from .squares import CORNERS, Square, is_singular_sq2, is_singular_sq3

Pair = tuple[Partition, Subset]

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

@lru_cache(maxsize=1 << 16)
def _gid(pair: Pair) -> GeneratorId:
    return GeneratorId.of(pair[0], pair[1])


def _one_relation(g: GeneratorId) -> Relation:
    return Relation(((g, 1),), (), "derived")


def _eq_relation(g: GeneratorId, h: GeneratorId) -> Relation:
    return Relation(((g, 1),), ((h, 1),), "derived")


def _bottom_relation(sq: Square) -> Relation:
    gpa, gpb, gqa, gqb = map(_gid, sq.corner_pairs())
    return Relation(((gpa, -1), (gpb, 1)), ((gqa, -1), (gqb, 1)), "derived")


def _three_quarter_relation(sq: Square, zero: str) -> Relation:
    """The square relation with ``zero`` erased, solved for its diagonal."""
    gpa, gpb, gqa, gqb = map(_gid, sq.corner_pairs())
    target, (x, y) = {
        "PA": (gqb, (gqa, gpb)),
        "PB": (gqa, (gqb, gpa)),
        "QA": (gpb, (gpa, gqb)),
        "QB": (gpa, (gpb, gqa)),
    }[zero]
    return Relation(((target, 1),), ((x, 1), (y, 1)), "derived")


def _require_singular(sq: Square) -> None:
    if sq.is_degenerate():
        raise InvalidParameters(f"square {sq.to_json()} is degenerate")
    if not is_singular_sq3(sq):
        raise VerificationFailed(f"square fails the label test: {sq.to_json()}")
    if not is_singular_sq2(sq):
        raise VerificationFailed(f"square fails the pair test: {sq.to_json()}")


@dataclass(frozen=True)
class DerivationStep:
    rule: str
    conclusion: Optional[Relation]
    premises: tuple[int, ...] = ()
    square: Optional[Square] = None
    data: Optional[dict] = None

    def to_json(self) -> dict:
        if self.rule == "discharge":
            return {"rule": "discharge", "pz": self.data["pz"]}
        doc: dict = {"rule": self.rule, "premises": list(self.premises)}
        if self.conclusion is not None:
            doc["conclusion"] = {
                "lhs": _word_json(self.conclusion.lhs),
                "rhs": _word_json(self.conclusion.rhs),
            }
        if self.square is not None:
            p, q = self.square.kernels
            a, b = self.square.images
            doc["square"] = [str(p), str(q), str(a), str(b)]
        if self.data:
            doc["data"] = dict(self.data)
        return doc


def _word_json(word: GroupWord) -> list:
    out = []
    for g, e in word:
        if not isinstance(g, GeneratorId):
            raise InvalidParameters("only concrete generators appear in logged words")
        out.append([str(g.partition), str(g.subset), e])
    return out


def _word_from_json(doc: list, n: int, parsed: dict) -> GroupWord:
    """Parse a logged word; ``parsed`` memoises each distinct (kernel, image)
    text, so every generator is validated once and then shared."""
    out = []
    for pt, st, e in doc:
        g = parsed.get((pt, st))
        if g is None:
            g = parsed[(pt, st)] = GeneratorId.of(Partition.parse(pt, n), Subset.parse(st, n))
        out.append((g, e))
    return tuple(out)


def _snapshot_from_json(doc) -> Optional[GroupPresentation]:
    """A stored final presentation over abstract generators, or None if malformed.

    Replay compares what is parsed here with the Coxeter presentation, so a
    snapshot that does not parse counts as a mismatch.
    """
    try:
        gens: list[AbstractGenerator] = []
        for gd in doc["generators"]:
            if gd["kind"] != "abstract" or not isinstance(gd["name"], str):
                return None
            gens.append(AbstractGenerator(gd["name"]))

        def word(letters) -> GroupWord:
            out = []
            for i, e in letters:
                if type(i) is not int or not 0 <= i < len(gens) or e not in (1, -1):
                    raise ValueError(f"bad letter {[i, e]}")
                out.append((gens[i], e))
            return tuple(out)

        relations = tuple(Relation(word(rd["lhs"]), word(rd["rhs"]), rd["tag"]) for rd in doc["relations"])
    except (KeyError, TypeError, ValueError):
        return None
    return GroupPresentation(tuple(gens), relations)


@dataclass
class DerivationLog:
    """Ordered derivation steps plus the final presentation snapshot."""

    n: int
    r: int
    steps: list[DerivationStep] = field(default_factory=list)
    final: Optional[GroupPresentation] = None
    meta: dict = field(default_factory=dict)

    def append(self, step: DerivationStep) -> int:
        self.steps.append(step)
        return len(self.steps) - 1

    def __len__(self) -> int:
        return len(self.steps)

    def to_json(self) -> dict:
        return {
            "format": "igmax-derivation-log",
            "version": 1,
            "n": self.n,
            "r": self.r,
            "steps": [s.to_json() for s in self.steps],
            "final": None if self.final is None else self.final.to_json(),
            "meta": dict(self.meta),
        }

    @classmethod
    def from_json(cls, doc: dict) -> "DerivationLog":
        """Parse a log document; a malformed one raises VerificationFailed."""
        if not isinstance(doc, dict) or doc.get("format") != "igmax-derivation-log":
            raise InvalidParameters("not a derivation log document")
        try:
            return cls._parse(doc)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise VerificationFailed(f"malformed derivation log: {type(exc).__name__}: {exc}") from None

    @classmethod
    def _parse(cls, doc: dict) -> "DerivationLog":
        n, r = doc["n"], doc["r"]
        if type(n) is not int or type(r) is not int:
            raise TypeError(f"n and r must be integers, got {n!r}, {r!r}")
        steps: list[DerivationStep] = []
        parsed: dict[tuple[str, str], GeneratorId] = {}
        for sd in doc["steps"]:
            rule = sd["rule"]
            if rule == "discharge":
                steps.append(DerivationStep("discharge", None, (), None, {"pz": sd["pz"]}))
                continue
            conclusion = None
            if "conclusion" in sd:
                conclusion = Relation(
                    _word_from_json(sd["conclusion"]["lhs"], n, parsed),
                    _word_from_json(sd["conclusion"]["rhs"], n, parsed),
                    "derived",
                )
            square = None
            if "square" in sd:
                pt, qt, at, bt = sd["square"]
                square = Square(
                    (Partition.parse(pt, n), Partition.parse(qt, n)),
                    (Subset.parse(at, n), Subset.parse(bt, n)),
                )
            steps.append(
                DerivationStep(rule, conclusion, tuple(sd.get("premises", ())), square, sd.get("data"))
            )
        log = cls(n=n, r=r, steps=steps, meta=doc.get("meta", {}))
        if doc.get("final") is not None:
            log.final = _snapshot_from_json(doc["final"])
        return log


# ---------------------------------------------------------------------------
# pure constructions
# ---------------------------------------------------------------------------


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
    part = Partition.of(n, blocks)
    sub = Subset.of(n, [i for i in range(1, r + 2) if i != k])
    return part, sub


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
    p = Partition.of(n, pblocks)
    q = Partition.of(n, qblocks)
    a = Subset.of(n, [i for i in range(1, r + 3) if i not in (k, k + l + 2)])
    b = Subset.of(n, [i for i in range(1, r + 3) if i not in (k, k + 2)])
    sq = Square((p, q), (a, b))
    _require_singular(sq)
    return sq, _three_quarter_relation(sq, "PA")


def descent_reduction(P: Partition, A: Subset) -> tuple[Partition, Subset, Relation]:
    """Split f[P,A] (label descent >= 2) across a singular square.

    Returns (Q, B, relation) with the relation solving the square for f[P,A]:
    the first factor's label is a contiguous cycle and the second factor's
    label has descent number exactly one less.
    """
    lam = label_by_subscripts(P, A)
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
    B = Subset.of(n, belems)
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
    Q = Partition.of(n, blocks)
    sq = Square((P, Q), (A, B))
    _require_singular(sq)
    return Q, B, _three_quarter_relation(sq, "QB")


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
    p = Partition.of(n, pblocks)
    q = Partition.of(n, qblocks)
    a = Subset.of(n, [i for i in range(1, r + 3) if i not in (k, k + 3)])
    b = Subset.of(n, [i for i in range(1, r + 3) if i not in (k, k + 1)])
    sq = Square((p, q), (a, b))
    _require_singular(sq)
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
    p = Partition.of(n, pblocks)
    q = Partition.of(n, qblocks)
    rr = Partition.of(n, rblocks)
    a = Subset.of(n, [i for i in range(1, r + 3) if i not in (k + 2, l + 1)])
    b = Subset.of(n, [i for i in range(1, r + 3) if i not in (k, l + 1)])
    c = Subset.of(n, [i for i in range(1, r + 3) if i not in (k, l + 3)])
    sq1 = Square((p, q), (a, b))
    sq2 = Square((q, rr), (b, c))
    _require_singular(sq1)
    _require_singular(sq2)
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
    p = Partition.of(n, pblocks)
    q = Partition.of(n, qblocks)
    a = Subset.of(n, [i for i in range(1, r + 3) if i not in (k + 1, k + 4)])
    b = Subset.of(n, [i for i in range(1, r + 3) if i not in (k, k + 1)])
    sq = Square((p, q), (a, b))
    _require_singular(sq)
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
    sq = Square((w, qb), (z, b))
    _require_singular(sq)
    return sq


# ---------------------------------------------------------------------------
# the derivation engine
# ---------------------------------------------------------------------------


class Derivation:
    """Fact store and step emitter over one (n, r) ground case."""

    def __init__(self, n: int, r: int, pres: Optional[GroupPresentation] = None):
        """``pres``, when given, must be ``build_presentation(n, r)``; it is
        otherwise built on first use."""
        if not (1 <= r <= n - 2):
            raise InvalidParameters(f"derivations cover 1 <= r <= n-2, got r={r}, n={n}")
        self.n = n
        self.r = r
        self.sch: SchreierSystem = build_schreier(n, r)
        self.log = DerivationLog(n=n, r=r)
        self._pres = pres
        self._one_memo: dict[Pair, int] = {}
        self._eq_memo: dict[Pair, int] = {}
        self._res_memo: dict[Pair, tuple[Optional[int], GroupWord]] = {}
        self._rep_memo: dict[tuple[int, int], Pair] = {}
        self._final_steps: list[int] = []

    @property
    def pres(self) -> GroupPresentation:
        if self._pres is None:
            self._pres = build_presentation(self.n, self.r)
        return self._pres

    def _add(
        self,
        rule: str,
        conclusion: Optional[Relation],
        premises: Iterable[int] = (),
        square: Optional[Square] = None,
        data: Optional[dict] = None,
    ) -> int:
        return self.log.append(DerivationStep(rule, conclusion, tuple(premises), square, data))

    def _bottom(self, sq: Square) -> int:
        _require_singular(sq)
        return self._add("bottom", _bottom_relation(sq), square=sq)

    def _three_quarter(self, sq: Square, zero: str, bottom_idx: int, one_idx: int) -> int:
        return self._add(
            "three-quarter",
            _three_quarter_relation(sq, zero),
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
            lhs = substitute(lhs, g, fact.rhs)
            rhs = substitute(rhs, g, fact.rhs)
        conclusion = Relation(free_reduce(lhs), free_reduce(rhs), "derived")
        return self._add("rewrite", conclusion, (base_idx, *subs))

    # -- identity-label facts ------------------------------------------------

    def one(self, P: Partition, A: Subset) -> int:
        """A step concluding f[P,A] = 1; the label must be the identity."""
        key = (P, A)
        if key in self._one_memo:
            return self._one_memo[key]
        g = _gid(key)
        if not g.label.is_identity():
            raise InvalidParameters(f"{g} has label {g.label.cycle_form()}, not the identity")
        idx = self._one_convex(P, A) if P.is_convex() else self._one_general(P, A)
        self._one_memo[key] = idx
        return idx

    def _middle(self, P: Partition) -> int:
        return self._add("middle", _one_relation(_gid((P, P.min_transversal()))))

    def _top(self, P: Partition, X: Subset, Y: Subset) -> int:
        return self._add("top", _eq_relation(_gid((P, X)), _gid((P, Y))))

    def _one_convex(self, P: Partition, A: Subset) -> int:
        if A == P.min_transversal():
            return self._middle(P)
        r = self.r
        if P.minima == tuple(range(1, r + 1)):
            # Blocks {1},...,{r-1},[r,n]: walk the free element down to r.
            B = predecessor(A)
            s_prev = self.one(P, B)
            s_top = self._top(P, B, A)
            return self._add("transitive", _one_relation(_gid((P, A))), (s_prev, s_top))
        m = next(i for i in range(1, r + 1) if P.block(i) != (i,))
        t = next(i for i in range(1, r + 1) if A.element_at(i) != P.minima[i - 1])
        if t == m:
            am = A.element_at(m)
            B = A.replace(am, am - 1)
            Q = convex_partition_of(A)
            s_top = self._top(Q, B, A)
            s_one_b = self.one(P, B)
            if P == Q:
                return self._add("transitive", _one_relation(_gid((P, A))), (s_one_b, s_top))
            sq = Square((Q, P), (B, A))
            s_b = self._bottom(sq)
            s_fl = self._add(
                "flush-row",
                _eq_relation(_gid((P, B)), _gid((P, A))),
                (s_b, s_top),
                square=sq,
            )
            return self._add("transitive", _one_relation(_gid((P, A))), (s_one_b, s_fl))
        # t > m: shrink block m by one and recurse on the lex-smaller minima.
        x = P.minima[m] - 1
        blocks = [list(b) for b in P.blocks]
        blocks[m - 1].remove(x)
        blocks[m].insert(0, x)
        Q = Partition.of(self.n, blocks)
        AP = P.min_transversal()
        sq = Square((P, Q), (A, AP))
        s1 = self.one(Q, A)
        s2 = self.one(Q, AP)
        s3 = self.one(P, AP)
        s_b = self._bottom(sq)
        return self._add(
            "corner",
            _one_relation(_gid((P, A))),
            (s_b, s1, s2, s3),
            square=sq,
            data={"target": "PA"},
        )

    def _one_general(self, P: Partition, A: Subset) -> int:
        AP = P.min_transversal()
        if A == AP:
            return self._middle(P)
        r = self.r
        m = next(i for i in range(1, r + 1) if A.element_at(i) != P.minima[i - 1])
        starts = list(P.minima[:m]) + [A.element_at(i) for i in range(m + 1, r + 1)]
        B = Subset.of(self.n, starts)
        blocks = [tuple(range(starts[i], starts[i + 1])) for i in range(r - 1)]
        blocks.append(tuple(range(starts[-1], self.n + 1)))
        Q = Partition.of(self.n, blocks)
        sq = Square((P, Q), (A, B))
        s1 = self.one(P, B)
        s2 = self.one(Q, A)
        s3 = self.one(Q, B)
        s_b = self._bottom(sq)
        return self._add(
            "corner",
            _one_relation(_gid((P, A))),
            (s_b, s1, s2, s3),
            square=sq,
            data={"target": "PA"},
        )

    # -- row and column identifications --------------------------------------

    def same_row(self, P: Partition, A: Subset, B: Subset) -> Optional[int]:
        """A step concluding f[P,A] = f[P,B] for equal labels; None if A == B."""
        if A == B:
            return None
        pi = label_by_subscripts(P, A)
        if pi != label_by_subscripts(P, B):
            raise InvalidParameters("same-row identification needs equal labels")
        ga, gb = _gid((P, A)), _gid((P, B))
        if pi.is_identity():
            s1 = self.one(P, A)
            s2 = self.one(P, B)
            return self._add("transitive", _eq_relation(ga, gb), (s1, s2))
        blocks: list[tuple[int, ...]] = []
        used: set[int] = set()
        for i in range(2, self.r + 1):
            blk = {A.element_at(i), B.element_at(i)}
            blocks.append(tuple(sorted(blk)))
            used |= blk
        blocks.append(tuple(x for x in range(1, self.n + 1) if x not in used))
        Q = Partition.of(self.n, blocks)
        sq = Square((P, Q), (A, B))
        s1 = self.one(Q, A)
        s2 = self.one(Q, B)
        s_b = self._bottom(sq)
        return self._add("flush-row", _eq_relation(ga, gb), (s_b, s1, s2), square=sq)

    def _shared_transversal_eq(self, P: Partition, Q: Partition, A: Subset, B: Subset) -> int:
        """f[P,A] = f[Q,A] via the identity column B common to both kernels."""
        s1 = self.one(P, B)
        s2 = self.one(Q, B)
        sq = Square((P, Q), (B, A))
        s_b = self._bottom(sq)
        return self._add(
            "flush-column",
            _eq_relation(_gid((P, A)), _gid((Q, A))),
            (s_b, s1, s2),
            square=sq,
        )

    def same_column(self, P: Partition, Q: Partition, A: Subset) -> Optional[int]:
        """A step concluding f[P,A] = f[Q,A] for equal labels; None if P == Q."""
        if P == Q:
            return None
        pi = label_by_subscripts(P, A)
        if pi != label_by_subscripts(Q, A):
            raise InvalidParameters("same-column identification needs equal labels")
        ga, gq = _gid((P, A)), _gid((Q, A))
        if pi.is_identity():
            s1 = self.one(P, A)
            s2 = self.one(Q, A)
            return self._add("transitive", _eq_relation(ga, gq), (s1, s2))
        if P.minima == Q.minima:
            return self._shared_transversal_eq(P, Q, A, Subset.of(self.n, P.minima))
        u = 0
        while P.minima[u] == Q.minima[u]:
            u += 1
        if P.minima[u] > Q.minima[u]:
            s = self.same_column(Q, P, A)
            return self._add("transitive", _eq_relation(ga, gq), (s,))
        x = P.minima[u]
        v = Q.block_index(x)
        blocks = [list(b) for b in Q.blocks]
        blocks[v - 1].remove(x)
        blocks[u].append(x)
        R = Partition.of(self.n, blocks)
        s1 = self.same_column(P, R, A)
        s2 = self._shared_transversal_eq(Q, R, A, Subset.of(self.n, Q.minima))
        premises = tuple(s for s in (s1, s2) if s is not None)
        return self._add("transitive", _eq_relation(ga, gq), premises)

    # -- contiguous-cycle classes --------------------------------------------

    def rep_pair(self, k: int, l: int) -> Pair:
        if (k, l) not in self._rep_memo:
            self._rep_memo[(k, l)] = canonical_cycle_pair(k, l, self.n, self.r)
        return self._rep_memo[(k, l)]

    def cycle_eq(self, P: Partition, A: Subset) -> Optional[int]:
        """Chain f[P,A] to its class representative; None when already there."""
        kl = classify_descent_one(label_by_subscripts(P, A))
        if kl is None:
            raise InvalidParameters(f"label of ({P}, {A}) is not a contiguous cycle")
        k, l = kl
        rep = self.rep_pair(k, l)
        if (P, A) == rep:
            return None
        key = (P, A)
        if key in self._eq_memo:
            return self._eq_memo[key]
        ga = _gid(key)
        grep = _gid(rep)
        conclusion = _eq_relation(ga, grep)
        if A == rep[1]:
            s = self.same_column(P, rep[0], A)
            idx = self._add("transitive", conclusion, (s,))
            self._eq_memo[key] = idx
            return idx
        case_i = next(
            (i for i in range(1, k) if A.element_at(i) != P.minima[i - 1]), None
        )
        if case_i is not None:
            A2 = A.replace(A.element_at(case_i), P.minima[case_i - 1])
            s1 = self.same_row(P, A, A2)
            s2 = self.cycle_eq(P, A2)
            idx = self._add("transitive", conclusion, tuple(s for s in (s1, s2) if s is not None))
            self._eq_memo[key] = idx
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
                Qp = Partition.of(self.n, blocks)
        else:
            blocks = [list(b) for b in Q.blocks]
            blocks[0].remove(k)
            blocks[k - 1].remove(pk)
            blocks[k - 1].append(k)
            blocks[k].append(pk)
            Qp = Partition.of(self.n, blocks)
        A2 = A.replace(at, d)
        s1 = self.same_column(P, Qp, A)
        s2 = self.same_row(Qp, A, A2)
        s3 = self.cycle_eq(Qp, A2)
        idx = self._add(
            "transitive", conclusion, tuple(s for s in (s1, s2, s3) if s is not None)
        )
        self._eq_memo[key] = idx
        return idx

    def _cycle_scaffold(self, P: Partition, A: Subset, k: int, l: int) -> Partition:
        """The comparison kernel from the cycle-class chaining argument."""
        blocks: list[tuple[int, ...]] = []
        used: set[int] = set()
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
        Q = Partition.of(self.n, blocks)
        return Q

    # -- resolution to canonical classes -------------------------------------

    def resolve(self, P: Partition, A: Subset) -> tuple[Optional[int], GroupWord]:
        """Express f[P,A] as a word over the r-1 canonical class generators.

        Returns (step index, word); the index is None exactly for the
        canonical adjacent-transposition pairs themselves.
        """
        key = (P, A)
        if key in self._res_memo:
            return self._res_memo[key]
        g = _gid(key)
        lam = g.label
        if lam.is_identity():
            idx = self.one(P, A)
            out: tuple[Optional[int], GroupWord] = (idx, ())
        else:
            kl = classify_descent_one(lam)
            if kl is not None:
                out = self._resolve_cycle(P, A, *kl)
            else:
                out = self._resolve_descent(P, A)
        self._res_memo[key] = out
        return out

    def _resolve_cycle(self, P: Partition, A: Subset, k: int, l: int) -> tuple[Optional[int], GroupWord]:
        rep = self.rep_pair(k, l)
        if (P, A) == rep:
            if l == 1:
                return None, ((_gid(rep), 1),)
            sq, _ = cycle_split(k, l, self.n, self.r)
            (ps, qs), (as_, bs) = sq.kernels, sq.images
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

    def _resolve_descent(self, P: Partition, A: Subset) -> tuple[int, GroupWord]:
        Q, B, _ = descent_reduction(P, A)
        sq = Square((P, Q), (A, B))
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
        sq, _ = coxeter_square_involution(k, self.n, self.r)
        (p, q), (a, b) = sq.kernels, sq.images
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
        (sq1, sq2), _ = coxeter_square_commute(k, l, self.n, self.r)
        (p, q), (a, b) = sq1.kernels, sq1.images
        rr, c = sq2.kernels[1], sq2.images[1]
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
        mirror = _braid_mirror_square(k, self.n, self.r)
        w, z = mirror.kernels[0], mirror.images[0]
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

    def assert_survivors(self) -> None:
        canon = set(self.canonical_pairs())
        survivors = {pair for pair, (idx, _) in self._res_memo.items() if idx is None}
        if survivors != canon:
            raise VerificationFailed(f"survivors {survivors} != canonical pairs {canon}")
        canon_gens = {_gid(p) for p in canon}
        for pair, (_, word) in self._res_memo.items():
            for g, _e in word:
                if g not in canon_gens:
                    raise VerificationFailed(f"resolution of {pair} mentions non-canonical {g}")

    def discharge_all(self) -> None:
        """Check that the resolution map ρ sends every generator g to a word
        with eval(ρ(g)) = label(g), then emit one discharge step per original
        relation.  Evaluation in S_r and the label map are homomorphisms, so a
        relation u = v then holds under ρ exactly when label(u) = label(v);
        :func:`replay_log` checks that equation for each discharge step."""
        r = self.r
        canonical = letter_images({_gid(p): _gid(p).label for p in self.canonical_pairs()})
        for g in self.pres.generators:
            res = self._res_memo.get((g.partition, g.subset))
            if res is None:
                raise VerificationFailed(f"no resolution for {g}")
            if evaluate_word(res[1], canonical, r) != g.label.images:
                raise VerificationFailed(f"resolution of {g} does not evaluate to its label")
        for i in range(len(self.pres.relations)):
            self._add("discharge", None, data={"pz": i})

    def finish(self) -> GroupPresentation:
        canon = self.canonical_pairs()
        target = coxeter_presentation(self.r)
        rename = {_gid(pair): g for pair, g in zip(canon, coxeter_generators(self.r))}

        def translate(rel: Relation) -> Relation:
            return Relation(
                tuple((rename[g], e) for g, e in rel.lhs),
                tuple((rename[g], e) for g, e in rel.rhs),
                "derived",
            )

        derived_keys = sorted(
            canonical_relator_key(translate(self.log.steps[i].conclusion)) for i in self._final_steps
        )
        target_keys = sorted(canonical_relator_key(rel) for rel in target.relations)
        if derived_keys != target_keys:
            raise VerificationFailed("derived relations do not match the Coxeter presentation")
        self._add(
            "coxeter-match",
            None,
            tuple(self._final_steps),
            data={"canonical": [[str(p), str(a)] for p, a in canon]},
        )
        self.log.final = target
        self.log.meta.update(
            {
                "steps": len(self.log),
                "generators": len(self.pres.generators),
                "relations": len(self.pres.relations),
                "survivors": self.r - 1,
            }
        )
        return target


def run_pipeline(
    n: int, r: int, pres: Optional[GroupPresentation] = None
) -> tuple[GroupPresentation, DerivationLog]:
    """Reduce the full (n, r) presentation to the Coxeter presentation.

    Resolves every generator to a word over the r-1 canonical
    adjacent-transposition classes, derives the Coxeter relations among them,
    discharges every original relation through the resolution map, and
    returns the target presentation with the complete derivation log.
    A caller that already holds ``build_presentation(n, r)`` passes it as
    ``pres`` so that it is not built twice.

    >>> pres, log = run_pipeline(4, 2)
    >>> len(pres.generators), len(pres.relations)
    (1, 1)
    """
    eng = Derivation(n, r, pres)
    for g in eng.pres.generators:
        eng.resolve(g.partition, g.subset)
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
    """
    n, r = log.n, log.r
    if pres is None:
        pres = build_presentation(n, r)
    sch = build_schreier(n, r)
    canon_pairs = [canonical_cycle_pair(k, 1, n, r) for k in range(1, r)]
    canon_gens = {_gid(p) for p in canon_pairs}
    images = letter_images({g: g.label for g in canon_gens})
    labels = letter_images({g: g.label for g in pres.generators})
    resolved = set(canon_gens)
    discharged: set[int] = set()
    failures: list[tuple[int, str]] = []
    verified: set[int] = set()
    match_seen = False

    def premise(idx: int, i: int) -> DerivationStep:
        if not 0 <= i < idx:
            raise _ReplayFailure(f"premise {i} out of range")
        if i not in verified:
            raise _ReplayFailure(f"premise {i} was not verified")
        return log.steps[i]

    def is_one(rel: Relation) -> Optional[GeneratorId]:
        if len(rel.lhs) == 1 and rel.lhs[0][1] == 1 and rel.rhs == ():
            return rel.lhs[0][0]
        return None

    def is_eq(rel: Relation) -> Optional[tuple[GeneratorId, GeneratorId]]:
        if (
            len(rel.lhs) == 1
            and rel.lhs[0][1] == 1
            and len(rel.rhs) == 1
            and rel.rhs[0][1] == 1
        ):
            return rel.lhs[0][0], rel.rhs[0][0]
        return None

    def check(idx: int, st: DerivationStep) -> None:
        rule = st.rule
        if rule not in RULES:
            raise _ReplayFailure(f"unknown rule {rule!r}")
        if rule == "middle":
            g = is_one(st.conclusion)
            if g is None or g.subset != g.partition.min_transversal():
                raise _ReplayFailure("middle step must conclude f[P, minima(P)] = 1")
        elif rule == "top":
            pair = is_eq(st.conclusion)
            if pair is None:
                raise _ReplayFailure("top step must conclude an equality of two generators")
            g1, g2 = pair
            if g1.partition != g2.partition:
                raise _ReplayFailure("top step generators must share a kernel")
            word = sch.word_to(g1.subset) + (IdempotentLetter(g1.partition, g2.subset),)
            if word != sch.word_to(g2.subset):
                raise _ReplayFailure("Schreier words do not certify the top citation")
        elif rule == "bottom":
            sq = st.square
            if sq is None:
                raise _ReplayFailure("bottom step needs its witness square")
            if sq.is_degenerate():
                raise _ReplayFailure("witness square is degenerate")
            if not (is_singular_sq2(sq) and is_singular_sq3(sq)):
                raise _ReplayFailure("witness square is not singular")
            want = _bottom_relation(sq)
            if (st.conclusion.lhs, st.conclusion.rhs) != (want.lhs, want.rhs):
                raise _ReplayFailure("bottom conclusion is not the square relation")
        elif rule in ("corner", "flush-row", "flush-column", "three-quarter"):
            sq = st.square
            if sq is None:
                raise _ReplayFailure(f"{rule} step needs its witness square")
            base = premise(idx, st.premises[0])
            want = _bottom_relation(sq)
            if base.rule != "bottom" or (base.conclusion.lhs, base.conclusion.rhs) != (want.lhs, want.rhs):
                raise _ReplayFailure("first premise must be the square's bottom relation")
            corners = dict(zip(CORNERS, map(_gid, sq.corner_pairs())))
            if rule == "corner":
                target = st.data["target"]
                ones = set()
                for i in st.premises[1:]:
                    g = is_one(premise(idx, i).conclusion)
                    if g is None:
                        raise _ReplayFailure("corner premises must be identity facts")
                    ones.add(g)
                others = {g for c, g in corners.items() if c != target}
                if ones != others:
                    raise _ReplayFailure("corner premises must cover the three other corners")
                want_c = _one_relation(corners[target])
                if (st.conclusion.lhs, st.conclusion.rhs) != (want_c.lhs, want_c.rhs):
                    raise _ReplayFailure("corner conclusion must zero the target corner")
            elif rule == "three-quarter":
                zero = st.data["zero"]
                g = is_one(premise(idx, st.premises[1]).conclusion)
                if g != corners[zero]:
                    raise _ReplayFailure("second premise must zero the stated corner")
                want_c = _three_quarter_relation(sq, zero)
                if (st.conclusion.lhs, st.conclusion.rhs) != (want_c.lhs, want_c.rhs):
                    raise _ReplayFailure("three-quarter conclusion has the wrong solved form")
            else:
                p, q = sq.kernels
                a, b = sq.images
                rest = [premise(idx, i).conclusion for i in st.premises[1:]]
                if rule == "flush-row":
                    rows = {p: (corners["PA"], corners["PB"]), q: (corners["QA"], corners["QB"])}
                    got = _flush_source(rest, rows)
                    other = q if got == p else p
                    want_c = _eq_relation(*rows[other])
                else:
                    cols = {a: (corners["PA"], corners["QA"]), b: (corners["PB"], corners["QB"])}
                    got = _flush_source(rest, cols)
                    other = b if got == a else a
                    want_c = _eq_relation(*cols[other])
                if (st.conclusion.lhs, st.conclusion.rhs) != (want_c.lhs, want_c.rhs):
                    raise _ReplayFailure(f"{rule} conclusion does not transfer to the other side")
        elif rule == "transitive":
            parent: dict[object, object] = {}

            def find(x):
                parent.setdefault(x, x)
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            def union(x, y):
                parent[find(x)] = find(y)

            for i in st.premises:
                rel = premise(idx, i).conclusion
                g = is_one(rel)
                if g is not None:
                    union(g, 1)
                    continue
                pair = is_eq(rel)
                if pair is None:
                    raise _ReplayFailure("transitive premises must be identity or equality facts")
                union(*pair)
            g = is_one(st.conclusion)
            if g is not None:
                if find(g) != find(1):
                    raise _ReplayFailure("identity conclusion is not connected to 1")
            else:
                pair = is_eq(st.conclusion)
                if pair is None:
                    raise _ReplayFailure("transitive conclusion must be an identity or equality fact")
                if find(pair[0]) != find(pair[1]):
                    raise _ReplayFailure("equality conclusion is not connected")
        elif rule == "rewrite":
            base = premise(idx, st.premises[0]).conclusion
            lhs, rhs = base.lhs, base.rhs
            for i in st.premises[1:]:
                fact = premise(idx, i).conclusion
                if len(fact.lhs) != 1 or fact.lhs[0][1] != 1:
                    raise _ReplayFailure("substitution premises need a bare generator on the left")
                g = fact.lhs[0][0]
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
        elif rule == "discharge":
            pz = st.data["pz"]
            if not 0 <= pz < len(pres.relations):
                raise _ReplayFailure(f"relation index {pz} out of range")
            rel = pres.relations[pz]
            for g, _ in rel.lhs + rel.rhs:
                if g not in resolved:
                    raise _ReplayFailure(f"no resolution for {g}")
            if evaluate_word(rel.lhs, labels, r) != evaluate_word(rel.rhs, labels, r):
                raise _ReplayFailure(f"relation {pz} does not hold under the resolution map")
            discharged.add(pz)
        elif rule == "coxeter-match":
            nonlocal match_seen
            stated = [
                (Partition.parse(pt, n), Subset.parse(at, n)) for pt, at in st.data["canonical"]
            ]
            if stated != canon_pairs:
                raise _ReplayFailure("stated canonical pairs are not the expected ones")
            for k, pair in enumerate(canon_pairs, start=1):
                if _gid(pair).label != contiguous_cycle(k, 1, r):
                    raise _ReplayFailure(f"canonical pair {k} does not carry the adjacent transposition")
            rename = {_gid(pair): g for pair, g in zip(canon_pairs, coxeter_generators(r))}
            keys = []
            for i in st.premises:
                rel = premise(idx, i).conclusion
                try:
                    translated = Relation(
                        tuple((rename[g], e) for g, e in rel.lhs),
                        tuple((rename[g], e) for g, e in rel.rhs),
                        "derived",
                    )
                except KeyError:
                    raise _ReplayFailure("final relations must mention only canonical generators")
                keys.append(canonical_relator_key(translated))
            target = coxeter_presentation(r)
            if sorted(keys) != sorted(canonical_relator_key(rel) for rel in target.relations):
                raise _ReplayFailure("derived relations do not match the Coxeter presentation")
            match_seen = True

    def note_resolution(rel: Optional[Relation]) -> None:
        """g is resolved by its first fact g = word over the canonical
        generators; a sound step's word evaluates to g's label."""
        if rel is None or len(rel.lhs) != 1 or rel.lhs[0][1] != 1:
            return
        g = rel.lhs[0][0]
        if g in resolved or not all(h in canon_gens for h, _ in rel.rhs):
            return
        if evaluate_word(rel.rhs, images, r) != g.label.images:
            raise _ReplayFailure(f"the word for {g} does not evaluate to its label")
        resolved.add(g)

    for idx, st in enumerate(log.steps):
        try:
            check(idx, st)
            note_resolution(st.conclusion)
        except _ReplayFailure as exc:
            failures.append((idx, str(exc)))
            continue
        except Exception as exc:  # malformed step data
            failures.append((idx, f"{type(exc).__name__}: {exc}"))
            continue
        verified.add(idx)

    final_matches = (
        match_seen
        and log.final is not None
        and presentations_match(log.final, coxeter_presentation(r))
    )
    return ReplayReport(
        n=n,
        r=r,
        steps_checked=len(log.steps),
        failures=tuple(failures),
        discharged=len(discharged),
        relations=len(pres.relations),
        final_matches=final_matches,
    )


def _flush_source(rest: list[Relation], sides: dict) -> object:
    """Which kernel/image the flush premises certify; raises on mismatch."""
    if len(rest) == 1:
        pair = None
        if len(rest[0].lhs) == 1 and len(rest[0].rhs) == 1:
            pair = (rest[0].lhs[0][0], rest[0].rhs[0][0])
        for key, gens in sides.items():
            if pair == gens:
                return key
        raise _ReplayFailure("flush premise equality does not match either side")
    if len(rest) == 2:
        got = set()
        for rel in rest:
            if len(rel.lhs) != 1 or rel.lhs[0][1] != 1 or rel.rhs != ():
                raise _ReplayFailure("flush premises must be identity facts")
            got.add(rel.lhs[0][0])
        for key, gens in sides.items():
            if got == set(gens):
                return key
        raise _ReplayFailure("flush identity premises do not cover one side")
    raise _ReplayFailure("flush steps take one equality or two identity premises")
