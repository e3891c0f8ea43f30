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
    is argmax u^2), then n + 1 normals z for the winning sketched row,
    drawn in the row space of [A b] (see sketch.py); it never draws the
    m-by-s sketch or any column of it.  An sgsm solver step draws, per
    attempt, its block index, then its s-by-s factor in row-major order;
  * a solver step whose selected row has (near-)zero norm reselects once,
    and the reselection takes a second selection draw (one more uniform
    for kaczmarz, one more sketch for skm, gsm and sgsm; motzkin draws
    nothing); it is the next item of its stream.

The chunk rule.  A solver stepper takes each kind of draw from one
stream of its own, _stream(fill): the items of fill(), fill(), ... in
order, each fill run when the stream's next item is wanted.  The fills
are kaczmarz uniforms (as row indices) and skm and sgsm block indices
solvers._CHUNK at a time, and gsm attempts (u, z) and sgsm factors as
many per standard_normal fill as fit in sketch._NORMALS normals (at
least one; at s = 1 sgsm hands out its 1-by-1 factors from that same
fill as Python floats).  A step takes its draws, reselection draws too,
as the next items of its streams (solvers._walker), so a fill runs at
the first draw and again where a step needs a draw and the last chunk
is used up.  A fill that raises ends its stream, so a step loop whose
fill may raise starts a fresh stream after it.  On PCG64 a fill of k
draws, row-major, equals the same k draws made one at a time
(tests/test_rng.py guards this), so a stream with one kind of draw does
not depend on its chunk size: kaczmarz, skm and gsm trajectories equal
those of one draw per step.  sgsm interleaves its index chunks with its
factor chunks, the index's fill first when a step needs both, so its
stream depends on both sizes.  The stepper owns its generator, so the
unused tail of its last chunk is never seen.
"""

from __future__ import annotations

import itertools

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


def _stream(fill):
    """One iterator over the items of fill(), fill(), ... in order; each
    fill runs when the next item is wanted, and a fill that raises ends
    the stream.  starmap, because iter(fill, None) compares an ndarray
    fill with None elementwise and operator.call needs Python 3.11.
    """
    return itertools.chain.from_iterable(itertools.starmap(fill, itertools.repeat(())))
