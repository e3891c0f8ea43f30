"""Seedable randomness for solvers, sketches, and problem generators.

One RngState owns one PCG64 stream.  Identical seeds replay identical
draw sequences on the same platform and library build, which is the
reproducibility contract of the whole package: traces are bit-identical
across reruns, not across machines or library upgrades.

Stream-consumption conventions (they matter for replay):
  * matrix fills consume entries in row-major order;
  * a weighted or uniform index draw consumes exactly one variate;
  * sketch construction draws its block index first, then the Gaussian
    factor entries (see sketch.py);
  * a gsm solver step draws, per attempt, s normals u first (the winner
    is argmax u^2), then m normals g for the winning sketch column; it
    never draws the m-by-s sketch (see sketch.py).
"""

from __future__ import annotations

import numpy as np

from .errors import InputError
from .linalg import DenseMatrix, _own

__all__ = [
    "RngState",
    "sample_standard_normal",
    "sample_gaussian_matrix",
    "sample_weighted_index",
    "sample_uniform_index",
    "sample_uniform_real",
]


class RngState:
    """Owned random stream for one run.  Not thread-safe; do not share."""

    def __init__(self, seed: int):
        seed = int(seed)
        if not 0 <= seed < 2**64:
            raise InputError(f"seed must be a 64-bit unsigned integer, got {seed}")
        self.seed = seed
        self.gen = np.random.Generator(np.random.PCG64(seed))

    def __repr__(self):
        return f"RngState(seed={self.seed})"


def sample_standard_normal(rng: RngState) -> float:
    """One N(0, 1) draw."""
    return float(rng.gen.standard_normal())


def sample_gaussian_matrix(rng: RngState, rows: int, cols: int) -> DenseMatrix:
    """rows-by-cols matrix of iid N(0, 1) entries, filled row-major."""
    if rows < 1 or cols < 1:
        raise InputError(f"matrix dimensions must be positive, got {rows}x{cols}")
    return DenseMatrix(_own(rng.gen.standard_normal((rows, cols))))


def _pick_from_cumulative(gen: np.random.Generator, cum: np.ndarray) -> int:
    # One uniform draw; zero-weight indices are never hit because their
    # cumulative value equals the previous one.
    u = gen.random() * cum[-1]
    return int(np.searchsorted(cum, u, side="right"))


def sample_weighted_index(rng: RngState, weights) -> int:
    """Index i with probability weights[i] / sum(weights).

    Weights must be finite, nonnegative, and not all zero.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1 or w.size == 0:
        raise InputError("weights must be a non-empty 1-D sequence")
    if not np.all(np.isfinite(w)):
        raise InputError("weights must be finite")
    if np.any(w < 0.0):
        raise InputError("weights must be nonnegative")
    cum = np.cumsum(w)
    if cum[-1] <= 0.0:
        raise InputError("weights must have a positive sum")
    return _pick_from_cumulative(rng.gen, cum)


def sample_uniform_index(rng: RngState, k: int) -> int:
    """Uniform draw from {0, ..., k-1}."""
    if k < 1:
        raise InputError(f"k must be at least 1, got {k}")
    return int(rng.gen.integers(k))


def sample_uniform_real(rng: RngState, lo: float, hi: float) -> float:
    """Uniform draw from [lo, hi)."""
    if not lo < hi:
        raise InputError(f"need lo < hi, got [{lo}, {hi})")
    return float(lo + (hi - lo) * rng.gen.random())
