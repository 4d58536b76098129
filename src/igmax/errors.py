"""Shared exception types.

Each maps to a distinct CLI exit code, so library code should raise these
rather than bare ValueError wherever a user-facing precondition fails.
"""


class InvalidParameters(ValueError):
    """Out-of-range or mutually inconsistent arguments (n, r, sizes...)."""


class TransversalityViolation(ValueError):
    """A subset was required to meet every block of a partition exactly once."""


class NotASquare(ValueError):
    """A (kernel, kernel, image, image) quadruple missing a transversality."""


class VerificationFailed(RuntimeError):
    """A check that a result rests on came out false.

    Raised in place of ``assert`` where the check must survive ``python -O``.
    """
