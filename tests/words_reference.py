"""Words as tuples of (generator, exponent) pairs over generator objects,
with their free reduction, inversion and substitution.

The package holds every word as int letters (``igmax.presentation``).
The references turn those letters into pair words and work on them with
these, so that they stay independent of the int path they check.
"""

from igmax.perms import invert


def free_reduce(word):
    """Cancel adjacent inverse pairs until none remain."""
    out = []
    for letter in word:
        gen, exp = letter
        if out and out[-1][0] == gen and out[-1][1] == -exp:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def inverse_word(word):
    return tuple((gen, -exp) for gen, exp in reversed(word))


def substitute(word, gen, replacement):
    """Replace every occurrence of ``gen`` (either sign) and freely reduce."""
    rep_inv = inverse_word(replacement)
    out = []
    for letter in word:
        if letter[0] == gen:
            out.extend(replacement if letter[1] == 1 else rep_inv)
        else:
            out.append(letter)
    return free_reduce(tuple(out))


def pair_word(letters):
    """The int letters 2g and 2g + 1 as the pairs (g, 1) and (g, -1)."""
    return tuple((x >> 1, -1 if x & 1 else 1) for x in letters)


def relator(lhs, rhs):
    """The relator lhs * rhs^-1 of the relation lhs = rhs, freely reduced."""
    return free_reduce(lhs + inverse_word(rhs))


def letter_images(perms):
    """Image tuples of both letters ``(g, 1)`` and ``(g, -1)`` of each generator."""
    out = {}
    for g, p in perms.items():
        out[(g, 1)] = p
        out[(g, -1)] = invert(p)
    return out
