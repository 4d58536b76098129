"""The label spectrum by enumeration: every (kernel, image) pair labelled
again, one at a time.

The package counts the spectrum off the labels that the SQ3 index holds
(:func:`igmax.squares.label_spectrum`); the tests hold it to this count.
"""

from __future__ import annotations

from igmax.combinatorics import enumerate_transversal_pairs
from igmax.labels import label_by_subscripts
from igmax.perms import Permutation


def label_spectrum(n: int, r: int) -> dict[Permutation, int]:
    """How many (kernel, image) pairs carry each permutation as label.

    >>> {p.cycle_form(): c for p, c in label_spectrum(3, 2).items()}
    {'()': 5, '(1 2)': 1}
    """
    out: dict[Permutation, int] = {}
    for p, a in enumerate_transversal_pairs(n, r):
        lam = label_by_subscripts(p, a)
        out[lam] = out.get(lam, 0) + 1
    return out
