"""Seedable randomness for solvers, sketches, and problem generators.

One RngState owns one PCG64 stream.  Identical seeds replay identical
draw sequences on the same platform and library build, which is the
reproducibility contract of the whole package: traces are bit-identical
across reruns, not across machines or library upgrades.

Stream-consumption conventions (they matter for replay):
  * matrix fills consume entries in row-major order;
  * a weighted or uniform index draw consumes exactly one variate;
  * run() draws kaczmarz uniforms and skm block indices in chunks of
    solvers._CHUNK, and step() one at a time.  On PCG64, random(k) and
    integers(n, size=k) return exactly k scalar draws (tests/test_rng.py
    guards this), so the stream, and with it every trajectory, is the
    same either way; run() owns its generator, so the unused tail of its
    last chunk is never seen;
  * sketch construction draws its block index first, then the Gaussian
    factor entries (see sketch.py);
  * a gsm solver step draws, per attempt, s normals u first (the winner
    is argmax u^2), then m normals g for the winning sketch column; it
    never draws the m-by-s sketch (see sketch.py);
  * a solver step whose selected row has (near-)zero norm reselects once,
    and the reselection takes a second selection draw (one more uniform
    for kaczmarz, one more sketch for skm, gsm and sgsm; motzkin draws
    nothing); in run() that is the next draw of the current chunk.
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


def _pick_from_cumulative(gen: np.random.Generator, cum: np.ndarray, k: int) -> np.ndarray:
    """k weighted indices from k uniforms: index i with probability
    proportional to cum[i] - cum[i - 1].  A zero-weight index is never hit,
    because its cumulative value equals the previous one."""
    return np.searchsorted(cum, gen.random(k) * cum[-1], side="right")
