"""Exception types shared across the package.

The CLI maps these onto distinct exit codes, so keep the hierarchy flat
and the categories disjoint: bad caller input, bad file content, and
numerical breakdown are different failures.
"""

import operator

__all__ = ["SketchsolveError", "InputError", "FormatError", "RankDeficientError", "ZeroRowError"]


class SketchsolveError(Exception):
    """Base class for all errors raised by this package."""


class InputError(SketchsolveError, ValueError):
    """A caller-supplied argument violates a precondition."""


class FormatError(SketchsolveError):
    """A data file (CSV or binary system file) is malformed."""


class RankDeficientError(SketchsolveError):
    """The matrix is numerically rank-deficient for the requested diagnostic."""


class ZeroRowError(SketchsolveError):
    """A projection target row has (near-)zero norm."""


def _index(value, name: str) -> int:
    """value as an int (numpy integers pass); InputError for anything else."""
    try:
        return operator.index(value)
    except TypeError:
        raise InputError(f"{name} must be an integer, got {value!r}") from None
