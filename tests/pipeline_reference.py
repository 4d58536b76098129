"""The square constructions and the canonical pairs on kernel and image
objects, as the producer and the checker computed them before they worked
on ids, and :func:`ids`, the tests' one way from such objects to ids.

:mod:`igmax.pipeline` builds the same squares, and :func:`igmax.replay.cycle_rep`
the same pairs, on the ids of ``squares._singular_index(n, r)``, with no
object looked up per step; ``tests/test_pipeline.py`` holds the two to the
same ids for every 4 <= n <= 7 and r <= n - 2.  Each construction here
looks its kernels and images up in the index by blocks and by elements
(``_kernel``, ``_image``) and returns its squares' corners as the
index's own objects.
"""

from __future__ import annotations

from igmax.combinatorics import Partition, Subset
from igmax.errors import InvalidParameters
from igmax.perms import descent_number, rightmost_descent
from igmax.squares import _singular_index

# a square as its kernels P, Q and images A, B, the index's own objects
Corners = tuple[Partition, Partition, Subset, Subset]


def ids(index, *objects) -> tuple[int, ...]:
    """The ids in ``index`` of kernels (Partition) and images (Subset), in
    order: a kernel looked up by its blocks, an image by its elements, each
    through the index's one lookup of its kind.  InvalidParameters for an
    object the index lacks."""
    return tuple(
        index.kernel_with(x.blocks) if isinstance(x, Partition) else index.image_with(x.elements) for x in objects
    )


def _kernel(index, blocks) -> Partition:
    """The index's kernel with these blocks, given in any order."""
    return index.parts[index.kernel_with(blocks)]


def _image(index, elements) -> Subset:
    """The index's image with these elements, given in any order."""
    return index.subsets[index.image_with(elements)]


def canonical_cycle_pair(k: int, l: int, n: int, r: int) -> tuple[Partition, Subset]:
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
    index = _singular_index(n, r)
    return _kernel(index, blocks), _image(index, [i for i in range(1, r + 2) if i != k])


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
    p, q = _kernel(index, pblocks), _kernel(index, qblocks)
    a = _image(index, [i for i in range(1, r + 3) if i not in (k, k + l + 2)])
    b = _image(index, [i for i in range(1, r + 3) if i not in (k, k + 2)])
    return p, q, a, b


def descent_reduction(P: Partition, A: Subset, lam: tuple[int, ...]) -> tuple[Partition, Subset]:
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
    v, w = rightmost_descent(lam)
    lv = lambda i: lam[i - 1]  # noqa: E731  - 1-based label entry
    av = lambda i: A.elements[i - 1]  # noqa: E731
    belems = (
        [P.minima[i - 1] for i in range(1, v)]
        + [av(lv(i)) for i in range(v + 1, v + w + 1)]
        + [av(lv(v))]
        + [av(lv(i)) for i in range(v + w + 1, r + 1)]
    )
    B = _image(index, belems)
    blocks: list[tuple[int, ...]] = []
    singles_from = 2 if v == 1 else v
    for i in range(2, v):
        blocks.append(P.blocks[i - 1])
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
    return _kernel(index, blocks), B


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
    p, q = _kernel(index, pblocks), _kernel(index, qblocks)
    a = _image(index, [i for i in range(1, r + 3) if i not in (k, k + 3)])
    b = _image(index, [i for i in range(1, r + 3) if i not in (k, k + 1)])
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
    p, q, rr = _kernel(index, pblocks), _kernel(index, qblocks), _kernel(index, rblocks)
    a = _image(index, [i for i in range(1, r + 3) if i not in (k + 2, l + 1)])
    b = _image(index, [i for i in range(1, r + 3) if i not in (k, l + 1)])
    c = _image(index, [i for i in range(1, r + 3) if i not in (k, l + 3)])
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
    p, q = _kernel(index, pblocks), _kernel(index, qblocks)
    a = _image(index, [i for i in range(1, r + 3) if i not in (k + 1, k + 4)])
    b = _image(index, [i for i in range(1, r + 3) if i not in (k, k + 1)])
    return p, q, a, b


def braid_mirror_square(k: int, n: int, r: int) -> Corners:
    """The corners (W, Q, Z, B) of the companion square giving the second
    factorisation used for the braid: W and Z are the involution square's Q
    and A, Q and B the braid square's.  Both label quotients equal the
    adjacent transposition at k.
    """
    _, w, z, _ = coxeter_square_involution(k, n, r)
    _, q, _, b = coxeter_square_braid(k, n, r)
    return w, q, z, b
