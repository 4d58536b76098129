"""The one base of the package's immutable classes.

A subclass sets its fields in ``__init__`` through ``object.__setattr__``
(or into ``__dict__``); after that, assigning or deleting an attribute
raises AttributeError.  Plain classes on this base, rather than classes
generated at import time, keep the package's start-up cheap: every command
is a short process that compiles and imports the package first.
"""


class Frozen:
    """An object whose attributes cannot be assigned or deleted once made."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of a frozen {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of a frozen {type(self).__name__}")
