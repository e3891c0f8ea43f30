"""Dense matrix/vector containers, norms, and spectral diagnostics.

Everything is float64 and row-major: the solvers touch rows, never
columns, so row slices must be cheap views.  The container types are
immutable after construction and reject non-finite entries up front,
which keeps NaN handling out of every downstream routine.

Indices are 0-based throughout the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, RankDeficientError

__all__ = [
    "DenseMatrix",
    "RealVector",
    "ConditionStats",
    "condition_kappa_tilde",
    "dynamic_range",
]

# s_min <= RANK_GATE * ||A||_F counts as numerically rank-deficient.
RANK_GATE = 1e-12


def _own(arr: np.ndarray) -> np.ndarray:
    """Mark a freshly allocated array read-only so wrapping it never copies."""
    arr.setflags(write=False)
    return arr


def _validated(values, ndim, name):
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != ndim:
        raise InputError(f"{name} must be {ndim}-D, got shape {arr.shape}")
    if arr.size == 0:
        raise InputError(f"{name} must be non-empty")
    # The .all() method, not np.all: its Python wrapper costs about as much
    # as the check itself on the small vectors a step wraps.
    if not np.isfinite(arr).all():
        raise InputError(f"{name} must be finite (found NaN or Inf)")
    arr = np.ascontiguousarray(arr)
    if arr.flags.writeable:
        if arr is values:
            # Caller keeps a writeable handle; snapshot it instead of aliasing.
            arr = arr.copy()
        arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class DenseMatrix:
    """Immutable dense real matrix, row-major, all entries finite.

    Writeable input arrays are copied once at construction; read-only
    arrays (including row slices of another DenseMatrix) are wrapped
    without copying.
    """

    a: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "a", _validated(self.a, 2, "matrix"))

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    def __repr__(self):
        return f"DenseMatrix(rows={self.rows}, cols={self.cols})"


@dataclass(frozen=True, eq=False)
class RealVector:
    """Immutable real vector with finite entries.  Same copy policy as DenseMatrix."""

    a: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "a", _validated(self.a, 1, "vector"))

    def __len__(self):
        return self.a.shape[0]

    def __repr__(self):
        return f"RealVector(len={len(self)})"


def as_matrix(m) -> DenseMatrix:
    return m if isinstance(m, DenseMatrix) else DenseMatrix(m)


def as_vector(v) -> RealVector:
    return v if isinstance(v, RealVector) else RealVector(v)


@dataclass(frozen=True)
class ConditionStats:
    """Scaled condition diagnostics of a matrix.

    kappa_tilde = ||A||_F^2 / s_min(A)^2; it is at least cols(A) and
    governs the per-iteration contraction of the row-projection solvers.
    """

    frobenius_sq: float
    s_min: float
    kappa_tilde: float


def condition_kappa_tilde(A) -> ConditionStats:
    """Compute ||A||_F^2, s_min, and their ratio kappa_tilde = ||A||_F^2 / s_min^2.

    A must be tall (rows >= cols).  s_min comes from the eigenvalues of
    the n-by-n Gram matrix A^T A, which is cheap at the column counts
    this package targets; its accuracy degrades with the square of the
    condition number, hence the rank gate below.

    Raises
    ------
    RankDeficientError
        If s_min <= RANK_GATE * ||A||_F, naming the offending value.
    """
    A = as_matrix(A)
    if A.rows < A.cols:
        raise InputError(f"need rows >= cols, got {A.rows}x{A.cols}")
    fro_sq = float((A.a * A.a).sum())
    lam = float(np.linalg.eigvalsh(A.a.T @ A.a)[0])
    s_min = float(np.sqrt(lam)) if lam > 0.0 else 0.0
    if s_min <= RANK_GATE * np.sqrt(fro_sq):
        raise RankDeficientError(
            f"matrix is numerically rank-deficient: s_min={s_min:.6e} "
            f"<= {RANK_GATE:g} * ||A||_F={np.sqrt(fro_sq):.6e}"
        )
    return ConditionStats(fro_sq, s_min, fro_sq / (s_min * s_min))


def dynamic_range(A, x, x_star) -> float:
    """Ratio ||A(x - x_star)||_2^2 / ||A(x - x_star)||_inf^2, in [1, rows].

    Measures how spread out the residual is: 1 when a single entry
    dominates, rows(A) when all entries share the same magnitude.  The
    residual must be nonzero.
    """
    A = as_matrix(A)
    x = as_vector(x)
    x_star = as_vector(x_star)
    if len(x) != A.cols or len(x_star) != A.cols:
        raise InputError("x and x_star must have length cols(A)")
    r = A.a @ x.a - A.a @ x_star.a
    peak = float(np.max(np.abs(r)))
    if peak == 0.0:
        raise InputError("residual A(x - x_star) is zero; dynamic range undefined")
    return float(r @ r) / (peak * peak)
