"""Maximal subgroup computations over idempotent-generated transformation semigroups.

The package is layered bottom-up:

``combinatorics``  r-subsets and r-block partitions of the ground set
``perms``          permutations, descent statistics, contiguous cycles
``schreier``       canonical idempotent words linking [1, r] to each subset
``labels``         the permutation label of a (kernel, image) pair
``squares``        squares, the SQ2 and SQ3 singularity tests, the SQ3-keyed enumerator
``presentation``   group presentations: construction, word algebra, Coxeter target
``pipeline``       the logged reduction from the big presentation to Coxeter
``verification``   verdicts resting on the replay, coset enumeration
``cli``            command-line front end

Every module is reached from ``cli``.  Oracles that only the tests run (the
idempotent witness search, the label graphs, transformations) live in the
tests' ``*_reference.py`` modules.
"""

__version__ = "0.1.0"
