"""The label spectrum by enumeration: every (kernel, image) pair labelled
again, one at a time.

The package counts the spectrum off the labels that the SQ3 index holds
(:func:`igmax.squares.label_spectrum`); the tests hold it to this count.
"""

from __future__ import annotations

from igmax.combinatorics import enumerate_transversal_pairs
from igmax.labels import label
from igmax.perms import cycle_form


def label_spectrum(n: int, r: int) -> dict[tuple[int, ...], int]:
    """How many (kernel, image) pairs carry each permutation as label.

    >>> {cycle_form(p): c for p, c in label_spectrum(3, 2).items()}
    {'()': 5, '(1 2)': 1}
    """
    out: dict[tuple[int, ...], int] = {}
    for p, a in enumerate_transversal_pairs(n, r):
        lam = label(p, a)
        out[lam] = out.get(lam, 0) + 1
    return out
