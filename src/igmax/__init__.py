"""Maximal subgroup computations over idempotent-generated transformation semigroups.

The package is layered bottom-up:

``combinatorics``  r-subsets and r-block partitions of the ground set
``transform``      total maps under left-to-right composition, idempotents
``perms``          permutations, descent statistics, contiguous cycles
``schreier``       canonical idempotent words linking [1, r] to each subset
``labels``         the permutation label of a (kernel, image) pair
``squares``        singular squares and their witnessing idempotents
``presentation``   group presentations: construction, word algebra, Coxeter target
``pipeline``       the logged reduction from the big presentation to Coxeter
``verification``   coset enumeration and end-to-end theorem checks
``cli``            command-line front end
"""

__version__ = "0.1.0"
