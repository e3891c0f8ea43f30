"""Exception types shared across the package.

The CLI maps these onto distinct exit codes, so keep the three
categories disjoint, one class each: bad caller input (InputError), bad
file content (FormatError) and numerical breakdown (NumericalError, the
base of RankDeficientError and ZeroRowError) are different failures.
"""

import operator

__all__ = ["SketchsolveError", "InputError", "FormatError", "NumericalError", "RankDeficientError", "ZeroRowError"]


class SketchsolveError(Exception):
    """Base class for all errors raised by this package."""


class InputError(SketchsolveError, ValueError):
    """A caller-supplied argument violates a precondition."""


class FormatError(SketchsolveError):
    """A data file (CSV or binary system file) is malformed."""


class NumericalError(SketchsolveError):
    """A computation broke down numerically (e.g. the squared error rose)."""


class RankDeficientError(NumericalError):
    """The matrix is numerically rank-deficient for the requested diagnostic."""


class ZeroRowError(NumericalError):
    """A projection target row has (near-)zero norm."""


def _index(value, name: str) -> int:
    """value as an int (numpy integers pass); InputError for anything else."""
    try:
        return operator.index(value)
    except TypeError:
        raise InputError(f"{name} must be an integer, got {value!r}") from None
