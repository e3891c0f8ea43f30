"""Seedable randomness for solvers, sketches, and problem generators.

One RngState owns one PCG64 stream.  Identical seeds replay identical
draw sequences on the same platform and library build, which is the
reproducibility contract of the whole package: traces are bit-identical
across reruns, not across machines or library upgrades.

Stream-consumption conventions (they matter for replay):
  * matrix fills consume entries in row-major order;
  * a weighted or uniform index draw consumes exactly one variate;
  * a solver stepper draws kaczmarz uniforms and skm block indices in
    chunks of solvers._CHUNK.  On PCG64, random(k) and integers(n,
    size=k) return exactly k scalar draws (tests/test_rng.py guards
    this), so trajectories equal those of one draw per step; the stepper
    owns its generator, so the unused tail of its last chunk is never
    seen;
  * sketch construction draws its block index first, then the Gaussian
    factor entries (see sketch.py);
  * a gsm solver step draws, per attempt, s normals u first (the winner
    is argmax u^2), then m normals g for the winning sketch column; it
    never draws the m-by-s sketch (see sketch.py);
  * a solver step whose selected row has (near-)zero norm reselects once,
    and the reselection takes a second selection draw (one more uniform
    for kaczmarz, one more sketch for skm, gsm and sgsm; motzkin draws
    nothing); for kaczmarz and skm it is the next draw of the chunk.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError, _index

__all__ = ["RngState"]


def _check_seed(seed) -> int:
    """seed as an int in [0, 2**64), the seeds PCG64 takes; InputError otherwise."""
    seed = _index(seed, "seed")
    if not 0 <= seed < 2**64:
        raise InputError(f"seed must be a 64-bit unsigned integer, got {seed}")
    return seed


class RngState:
    """Owned random stream for one run.  Not thread-safe; do not share."""

    def __init__(self, seed: int):
        self.seed = _check_seed(seed)
        self.gen = np.random.Generator(np.random.PCG64(self.seed))

    def __repr__(self):
        return f"RngState(seed={self.seed})"


def _pick_from_cumulative(gen: np.random.Generator, cum: np.ndarray, k: int) -> np.ndarray:
    """k weighted indices from k uniforms: index i with probability
    proportional to cum[i] - cum[i - 1].  A zero-weight index is never hit,
    because its cumulative value equals the previous one."""
    return np.searchsorted(cum, gen.random(k) * cum[-1], side="right")
