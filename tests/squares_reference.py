"""Singularity by its definition: the idempotent witness search, the
rectangular-band test, and the label graphs.

The package decides singularity by SQ2 and SQ3 alone.  The tests hold both
to the definition itself, a search for an idempotent e that satisfies the
left-right equations (4) or the up-down equations (5) of
:mod:`igmax.squares`, on every square up to n = 6.

The constructive witness moves the A-element of each P-block to the
B-element of the same block and fixes everything else.  It satisfies the LR
equations whenever SQ2 holds; the tests verify this exhaustively.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from igmax.combinatorics import Partition, Subset, enumerate_transversal_pairs
from igmax.errors import InvalidParameters
from igmax.labels import label_by_subscripts
from igmax.perms import Permutation
from igmax.squares import (
    Square,
    _check,
    enumerate_singular_squares,
    enumerate_squares,
    is_singular_sq2,
    is_singular_sq3,
)

from transform_reference import Transformation, idempotent


@lru_cache(maxsize=16)
def corner_idempotents(sq: Square) -> tuple[Transformation, ...]:
    """The idempotents e_PA, e_PB, e_QA, e_QB of the square's corners."""
    return tuple(idempotent(k, i) for k, i in sq.corner_pairs())


def check_left_right(e: Transformation, sq: Square) -> bool:
    """The four LR equations, verbatim."""
    epa, epb, eqa, eqb = corner_idempotents(sq)
    return e * epa == epa and e * eqa == eqa and epa * e == epb and eqa * e == eqb


def check_up_down(e: Transformation, sq: Square) -> bool:
    """The four UD equations, verbatim."""
    epa, epb, eqa, eqb = corner_idempotents(sq)
    return epa * e == epa and epb * e == epb and e * epa == eqa and e * epb == eqb


def constructive_witness(sq: Square) -> Transformation:
    """A-element of each P-block -> B-element of the same block, rest fixed.

    This is the map used in the SQ2 => singular direction.  NOTE: some write-ups
    render it with the roles of A and B exchanged and the target element drawn
    from the Q-block of the same index; that variant fails the LR equations on
    most squares (see the unit tests), so the orientation here is the one that
    actually verifies.
    """
    p = sq.kernels[0]
    a, b = sq.images
    b_set = b._as_set
    move: dict[int, int] = {}
    for block, a_elt in zip(p.blocks, _elements_per_block(p, a)):
        b_elt = next(x for x in block if x in b_set)
        move[a_elt] = b_elt
    return Transformation(sq.n, tuple(move.get(x, x) for x in range(1, sq.n + 1)))


def _elements_per_block(part: Partition, sub: Subset) -> list[int]:
    chosen = [0] * len(part)
    for x in sub.elements:
        chosen[part.block_index(x) - 1] = x
    return chosen


def left_right_witness(sq: Square) -> Transformation | None:
    """Decide LR-singularity directly and return a verified witness.

    The values of the witness on A are forced by the equations: the image of
    an A-element must be the B-element of its P-block and simultaneously the
    B-element of its Q-block.  If those forced values are consistent, fixing
    everything outside A always completes to a valid idempotent witness.
    """
    p, q = sq.kernels
    a, b = sq.images
    b_in_p = _elements_per_block(p, b)
    b_in_q = _elements_per_block(q, b)
    move: dict[int, int] = {}
    for x in a.elements:
        forced = b_in_p[p.block_index(x) - 1]
        if forced != b_in_q[q.block_index(x) - 1]:
            return None
        move[x] = forced
    e = Transformation(sq.n, tuple(move.get(x, x) for x in range(1, sq.n + 1)))
    if not (e.is_idempotent() and check_left_right(e, sq)):  # pragma: no cover
        raise AssertionError(f"LR decision produced an invalid witness on {sq}")
    return e


def up_down_witness(sq: Square) -> Transformation | None:
    """Decide UD-singularity; witness fixes A and B and maps each remaining
    point to the A-element of its Q-block."""
    p, q = sq.kernels
    a, b = sq.images
    a_in_p = _elements_per_block(p, a)
    a_in_q = _elements_per_block(q, a)
    b_in_p = _elements_per_block(p, b)
    b_in_q = _elements_per_block(q, b)
    for j in range(len(q)):
        if p.block_index(a_in_q[j]) != p.block_index(b_in_q[j]):
            return None
    for x in a.elements:
        if b_in_p[p.block_index(x) - 1] != b_in_q[q.block_index(x) - 1]:
            return None
    for x in b.elements:
        if a_in_p[p.block_index(x) - 1] != a_in_q[q.block_index(x) - 1]:
            return None
    keep = a._as_set | b._as_set
    images = tuple(
        x if x in keep else a_in_q[q.block_index(x) - 1] for x in range(1, sq.n + 1)
    )
    e = Transformation(sq.n, images)
    if not (e.is_idempotent() and check_up_down(e, sq)):  # pragma: no cover
        raise AssertionError(f"UD decision produced an invalid witness on {sq}")
    return e


@dataclass(frozen=True)
class SingularityEvidence:
    """Outcome of the witness search.

    ``kind`` is "LR", "UD", "both" or "none", reporting which of the two
    equation systems admits some idempotent witness.  ``witness`` is one
    verified witness (the constructive LR one whenever SQ2 holds).
    """

    kind: str
    witness: Transformation | None

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "witness": None if self.witness is None else self.witness.to_json(),
        }


def all_idempotents(n: int) -> list[Transformation]:
    """Every idempotent of the degree-n monoid, via (kernel, image) pairs."""
    out = []
    for r in range(1, n + 1):
        for p, a in enumerate_transversal_pairs(n, r):
            out.append(idempotent(p, a))
    return out


def find_singularizing_idempotent(sq: Square, method: str = "fast") -> SingularityEvidence:
    """Search for an idempotent witnessing singularity.

    ``method="fast"`` uses the forced-value decision procedures (linear in
    n); ``method="exhaustive"`` scans every idempotent, which is only
    sensible for small n but is what the fast path is tested against.
    """
    if method == "exhaustive":
        pool = all_idempotents(sq.n)
        lr = next((e for e in pool if check_left_right(e, sq)), None)
        ud = next((e for e in pool if check_up_down(e, sq)), None)
    elif method == "fast":
        lr = left_right_witness(sq)
        ud = up_down_witness(sq)
    else:
        raise InvalidParameters(f"unknown method {method!r}")
    if lr is not None and is_singular_sq2(sq):
        # prefer the constructive witness so output is reproducible
        lr = constructive_witness(sq)
        if not (lr.is_idempotent() and check_left_right(lr, sq)):  # pragma: no cover
            raise AssertionError("constructive witness failed verification")
    if lr is not None and ud is not None:
        return SingularityEvidence("both", lr)
    if lr is not None:
        return SingularityEvidence("LR", lr)
    if ud is not None:
        return SingularityEvidence("UD", ud)
    return SingularityEvidence("none", None)


def is_rectangular_band(sq: Square) -> bool:
    """Single-composition closure test: e_PA e_QB == e_PB.

    True means the four corner idempotents form a multiplicatively closed
    2x2 pattern, which forces singularity.
    """
    epa, epb, _, eqb = corner_idempotents(sq)
    return epa * eqb == epb


def find_singular_not_rectangular(n: int, r: int) -> Square | None:
    """Search report: first singular square failing the rectangular-band test.

    Within the computed range (n <= 7) no such square exists -- singularity
    and the band property coincide there -- so this returns None; it is kept
    as an honest search rather than an assumption.
    """
    for sq in enumerate_squares(n, r):
        if is_singular_sq3(sq) and not is_rectangular_band(sq):
            return sq
    return None


def singular_vertex_labels(n: int, r: int) -> list[Permutation]:
    """Distinct labels occurring on any corner of a proper singular square."""
    seen: set[Permutation] = set()
    for sq in enumerate_singular_squares(n, r):
        seen.update(sq.corner_labels)
    return sorted(seen, key=lambda p: p.images)


@dataclass(frozen=True)
class LabelGraph:
    """Vertices are (kernel, image) pairs carrying a fixed label; edges join
    vertices sharing the kernel or sharing the image."""

    label: Permutation
    vertices: tuple[tuple[Partition, Subset], ...]
    edges: tuple[tuple[int, int], ...]

    def components(self) -> tuple[tuple[int, ...], ...]:
        parent = list(range(len(self.vertices)))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for i, j in self.edges:
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[rj] = ri
        groups: dict[int, list[int]] = {}
        for i in range(len(self.vertices)):
            groups.setdefault(find(i), []).append(i)
        return tuple(tuple(sorted(g)) for g in sorted(groups.values(), key=min))


def label_graph(pi: Permutation, n: int, r: int) -> LabelGraph:
    _check(n, r)
    if pi.degree != r:
        raise InvalidParameters(f"label degree {pi.degree} does not match r={r}")
    verts = [
        (p, a)
        for p, a in enumerate_transversal_pairs(n, r)
        if label_by_subscripts(p, a) == pi
    ]
    verts.sort(key=lambda v: (v[0].blocks, v[1].elements))
    edges = [
        (i, j)
        for i, j in itertools.combinations(range(len(verts)), 2)
        if verts[i][0] == verts[j][0] or verts[i][1] == verts[j][1]
    ]
    return LabelGraph(pi, tuple(verts), tuple(edges))
