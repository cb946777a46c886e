"""Exception types shared across tdspace modules, the depth rule of the
sweeps and the wall-clock budget."""

import time


class TdSpaceError(Exception):
    """Base class for all tdspace errors."""


class IndexOutOfRangeError(TdSpaceError, IndexError):
    """A duplication choice points outside the word it applies to."""


class ValidationError(TdSpaceError, ValueError):
    """Structurally invalid input (bad steps, malformed tree, bad choice)."""


class ParseError(TdSpaceError, ValueError):
    """Malformed serialized input.

    ``position`` holds the character offset where parsing failed, when known.
    """

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


class BudgetExceededError(TdSpaceError, RuntimeError):
    """An enumeration or memory budget was exceeded."""


def _check_whole(what: str, value: object) -> None:
    """Refuse a count of ``what`` that is not an ``int``, or is a ``bool``."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValidationError(f"need a whole number of {what}, got {value!r}")


def _check_positive(what: str, name: str, value: object) -> None:
    """:func:`_check_whole`, then refuse a ``value`` below 1 by its ``name``."""
    _check_whole(what, value)
    if value < 1:
        raise ValidationError(f"need {name} >= 1, got {value}")


def _check_depth(sweep: str, n: int, cap: int) -> None:
    """The depth rule of every sweep: ``n`` TDs must be a whole number, at
    least 1 and at most ``cap``; ``sweep`` names the sweep in the budget's
    message."""
    _check_positive("TDs", "n", n)
    if n > cap:
        raise BudgetExceededError(f"{sweep} {n} TDs exceeds the budget of {cap}")


class Deadline:
    """Wall-clock budget of ``limit`` seconds from creation (``None``: none).

    Long sweeps call :meth:`check` between units of work.  The expiry is a
    ``time.monotonic`` instant, which worker processes on the same machine
    share, so a deadline can be sent to them.
    """

    def __init__(self, limit: float | None):
        self._expires = None if limit is None else time.monotonic() + limit

    def check(self) -> None:
        if self._expires is not None and time.monotonic() > self._expires:
            raise BudgetExceededError("time limit exceeded")


class CycleDetectedError(TdSpaceError):
    """The order diagram built from a tree contains a directed cycle."""


class MalformedGraphError(TdSpaceError):
    """A graph handed to the counting routines violates its shape contract."""


class DerivationCollisionError(TdSpaceError):
    """Two distinct derivations produced the same word.

    The counting theory relies on every word having a unique derivation;
    this is raised (never silently repaired) if enumeration ever observes
    a collision.
    """


class NotInducedError(TdSpaceError, ValueError):
    """The supplied evolution pair is not related by first-TD deletion."""
