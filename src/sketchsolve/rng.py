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
    never draws the m-by-s sketch (see sketch.py);
  * a solver step whose selected row has (near-)zero norm reselects once,
    and the reselection takes a second selection draw (one more uniform
    for kaczmarz, one more sketch for skm, gsm and sgsm; motzkin draws
    nothing).
"""

from __future__ import annotations

import numpy as np

from .errors import InputError, _index

__all__ = ["RngState"]


class RngState:
    """Owned random stream for one run.  Not thread-safe; do not share."""

    def __init__(self, seed: int):
        seed = _index(seed, "seed")
        if not 0 <= seed < 2**64:
            raise InputError(f"seed must be a 64-bit unsigned integer, got {seed}")
        self.seed = seed
        self.gen = np.random.Generator(np.random.PCG64(seed))

    def __repr__(self):
        return f"RngState(seed={self.seed})"


def _pick_from_cumulative(gen: np.random.Generator, cum: np.ndarray) -> int:
    # One uniform draw; zero-weight indices are never hit because their
    # cumulative value equals the previous one.
    u = gen.random() * cum[-1]
    return int(np.searchsorted(cum, u, side="right"))
