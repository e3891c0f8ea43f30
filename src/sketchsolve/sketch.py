"""Row sketches: block, Gaussian, and sparse Gaussian.

A sketch compresses the m-row system (A, b) to an s-row system
(M, r) = (S^T A, S^T b) for some m-by-s matrix S:

  * block_sketch (skm): S selects s contiguous rows, so M is a zero-copy
    view of A and building it costs no floating-point multiplies;
  * gaussian_sketch (gsm): S has iid N(0, 1) entries, costing
    Theta(m*s*n) multiplies per sketch (the materialized reference);
  * sparse_gaussian_sketch (sgsm): S is zero outside one s-row block,
    where it holds an s-by-s Gaussian factor X; then M = X^T A_block
    costs only Theta(s^2*n) multiplies while still mixing rows.

Block placement is aligned: the block index z is uniform on
{0, ..., ceil(m/s) - 1} and the block covers rows [shift, shift + s)
with shift = min(s*z, m - s).  When s does not divide m the last block
is [m - s, m), which overlaps its neighbour, so every row can be drawn.

Draw order per sketch: block index first (block and sparse sketches),
then the Gaussian factor entries in row-major order.

SketchedSystem(M, r, z, shift, factor) is the one record of a drawn
system, for every method: a named tuple of the arrays the solver steps
already build, in that field order.  For kaczmarz and motzkin the drawn
system is A itself (M is A.a, r is b.a, z None, shift 0, no factor).

A max-residual step on a Gaussian sketch only ever uses the winning
column of S, so the solver draws that column alone from its conditional
law (_gaussian_winner_raw): Theta(m*n + m + s) per step instead of
Theta(m*s*n).  Its draw order per attempt is u (s normals), then g
(m normals).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import InputError, _index
from .rng import RngState

__all__ = [
    "SketchedSystem",
    "block_sketch",
    "gaussian_sketch",
    "sparse_gaussian_sketch",
]


def _check_sketch(s: int, m: int | None = None):
    """The one rule for sketch sizes: s is an integer of at least 1, and
    s <= m when m is given (block and sparse sketches take their s rows
    from the m rows of A; a Gaussian sketch may be overcomplete).
    """
    if _index(s, "sketch size") < 1:
        raise InputError(f"sketch size must be at least 1, got {s}")
    if m is not None and s > m:
        raise InputError(f"sketch size {s} exceeds row count {m}")


class SketchedSystem(NamedTuple):
    """A drawn system (M, r) = (S^T A, S^T b) and the randomness that drew
    it: the block index z and row shift min(s*z, m - s) (block and sparse
    sketches), and the Gaussian factor (S of a Gaussian sketch, X of a
    sparse one).  Enough to rematerialize the sketch exactly.

    The fields are plain numpy arrays, built from an already validated
    A and b and not checked again.  A block's M and r are read-only views
    of A and b; a mixed sketch's arrays are fresh.
    """

    M: np.ndarray
    r: np.ndarray
    z: int | None = None
    shift: int | None = None
    factor: np.ndarray | None = None


def _block_count(m: int, s: int) -> int:
    """The number ceil(m/s) of aligned s-row blocks of an m-row system."""
    return -(-m // s)


def _build_raw(Aa, ba, s, z, gen=None):
    """The block sketch of block z as raw arrays: (Ma, ra, z, shift,
    factor); with gen, the block is mixed by an s-by-s Gaussian factor
    drawn from gen (sparse).

    Shared by the public constructors and the solver steps; every caller
    draws z from its stream before calling, so all consume the stream
    identically.
    """
    shift = min(s * z, Aa.shape[0] - s)
    if gen is None:
        return Aa[shift:shift + s], ba[shift:shift + s], z, shift, None
    X = gen.standard_normal((s, s))
    return X.T @ Aa[shift:shift + s], X.T @ ba[shift:shift + s], z, shift, X


def _gaussian_winner_raw(Aa, ba, res, s, gen):
    """The max-residual row of a fresh m-by-s N(0, 1) sketch S, without S.

    With res = A x - b and rhat = res / ||res||, column j of S splits as
    S_j = u_j rhat + P g_j, where P projects onto the complement of rhat,
    u_j ~ N(0, 1) and P g_j is independent of u_j.  The sketched residual
    of row j is (S^T res)_j = u_j ||res||, so the winner is
    j* = argmax u_j^2 and depends on u alone.  Drawing u (s normals), then
    one g (m normals), and forming S_j* = u_j* rhat + P g gives the
    winning column the same law as in the materialized sketch.  When res
    is zero every column is N(0, I) and S_j* = g.

    Returns (t, raw, 0) in the solver's select(x) shape: t is the
    winner's sketched residual u_j* ||res||, and raw is a one-row sketch
    (Ma, ra, None, None, F) with F the m-by-1 winning column, Ma = F^T A
    and ra = F^T b.
    """
    u = gen.standard_normal(s)
    u_star = float(u[int(np.argmax(u * u))])
    g = gen.standard_normal(Aa.shape[0])
    res_sq = float(res @ res)
    t = 0.0
    if res_sq > 0.0:
        t = u_star * math.sqrt(res_sq)
        g += ((t - float(g @ res)) / res_sq) * res
    F = g[:, None]
    return t, (F.T @ Aa, F.T @ ba, None, None, F), 0


def block_sketch(system, s: int, rng: RngState) -> SketchedSystem:
    """Uniformly placed aligned block of s contiguous rows of (A, b).

    The returned rows are views of A and b: bit-identical, zero copies,
    zero multiplies.
    """
    _check_sketch(s, system.A.rows)
    z = int(rng.gen.integers(_block_count(system.A.rows, s)))
    return SketchedSystem._make(_build_raw(system.A.a, system.b.a, s, z))


def gaussian_sketch(system, s: int, rng: RngState) -> SketchedSystem:
    """Dense Gaussian sketch: fresh m-by-s iid N(0, 1) S, M = S^T A, r = S^T b.

    s may exceed the row count; the sketch is then overcomplete.  This is
    the Theta(m*s*n) materialized reference; the gsm solver step draws
    only the winning column of S (see _gaussian_winner_raw).
    """
    _check_sketch(s)
    S = rng.gen.standard_normal((system.A.rows, s))
    return SketchedSystem(S.T @ system.A.a, S.T @ system.b.a, None, None, S)


def sparse_gaussian_sketch(system, s: int, rng: RngState) -> SketchedSystem:
    """Gaussian mix of one aligned s-row block: M = X^T A_block, X s-by-s N(0, 1).

    Equals the dense sketch whose S is zero outside the block, at
    Theta(s^2*n) multiplies instead of Theta(m*s*n).
    """
    _check_sketch(s, system.A.rows)
    z = int(rng.gen.integers(_block_count(system.A.rows, s)))
    return SketchedSystem._make(_build_raw(system.A.a, system.b.a, s, z, rng.gen))

