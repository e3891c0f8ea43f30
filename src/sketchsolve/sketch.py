"""Row sketches: block, Gaussian, and sparse Gaussian.

A sketch compresses the m-row system (A, b) to an s-row system
(M, r) = (S^T A, S^T b) for some m-by-s matrix S:

  * block_sketch (skm): S selects s contiguous rows, so M is a zero-copy
    view of A and building it costs no floating-point multiplies;
  * gaussian_sketch (gsm): S has iid N(0, 1) entries, costing
    Theta(m*s*n) multiplies per sketch (the materialized reference);
  * sparse_gaussian_sketch (sgsm): S is zero outside one s-row block,
    where it holds an s-by-s Gaussian factor X; then M = X^T A_block
    costs Theta(s^2*n) multiplies while still mixing rows (the
    materialized reference).

Block placement is aligned: the block index z is uniform on
{0, ..., ceil(m/s) - 1} and the block covers rows [shift, shift + s)
with shift = min(s*z, m - s).  When s does not divide m the last block
is [m - s, m), which overlaps its neighbour, so every row can be drawn.

Draw order per public sketch: block index first (block and sparse
sketches), then the Gaussian factor entries in row-major order.

Each sketch returns a SketchedSystem(M, r, z, shift, factor), a named
tuple of plain arrays.

A max-residual step on a Gaussian sketch only ever uses the winning
row of S^T A.  The gsm step draws that row, (w^T A, w^T b) for the
winning column w of S, from its exact law in the (n+1)-dimensional row
space of [A b] (_gaussian_row): S is rotation invariant, so the
row depends on (A, b) only through the triangular factor [R_A r_b] of
a QR [A b] = Q [R_A r_b], which LinearSystem makes once per system
(LinearSystem._residual_factor, Theta(m*n^2), the factor run()'s trace
records read).  Per attempt it takes s normals u, then n + 1 normals z
(_winner_fill), and a step costs Theta(n^2 + s), flat in m.  The sgsm
step draws the whole s-by-s factor X (_factor_fill) after its block
index, and builds only the winning row of X^T A_block
(_sparse_winner): s^2 normals and Theta(s*n + s^2) multiplies instead
of Theta(s^2*n).  At s = 1 the factor is one normal xi, and xi a_z has
a_z's hyperplane, so the sgsm:1 step (solvers._walker) takes xi from
the same fill as a Python float and projects onto row z of A itself,
forming xi a_z only where the zero-row gate must read it.  Both steps
take each kind of draw from one stream of chunked fills (rng._stream,
the chunk rule in rng.py), and return only the winning row and its
right-hand side.
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
    of A and b; a mixed sketch's arrays share no memory with them.
    """

    M: np.ndarray
    r: np.ndarray
    z: int | None = None
    shift: int | None = None
    factor: np.ndarray | None = None


# Normals per fill of a step's normal source (_winner_fill, _factor_fill):
# 2**14 doubles (128 KiB), or one attempt's worth when an attempt needs more.
_NORMALS = 2**14


def _block_count(m: int, s: int) -> int:
    """The number ceil(m/s) of aligned s-row blocks of an m-row system."""
    return -(-m // s)


def _block(Aa, ba, s, z):
    """Block z as (Ab, bb, shift): read-only views of rows [shift, shift
    + s) of A and b.

    The one definition of a block, shared by block_sketch and the skm and
    sgsm steps; every caller draws z from its stream before calling.  At
    s >= 2 the skm and sgsm steps share one select, which keeps each
    block it has made in a table keyed by z (solvers._walker), so a step
    calls this only the first time it draws z; at s = 1 block z is row z
    of A, and the steps read it from the system's row views.
    """
    shift = min(s * z, Aa.shape[0] - s)
    return Aa[shift:shift + s], ba[shift:shift + s], shift


def _winner_fill(gen, s, n):
    """One chunk of gsm attempts on an n-column system, as (u*, z) pairs
    from one (k, s + n + 1) standard_normal fill, k = max(1, _NORMALS //
    (s + n + 1)): row j holds attempt j's s normals u, then its n + 1
    normals z (a 1-D view), and u* is the u of largest square (ties to
    the first).  See the chunk rule in rng.py.
    """
    k = max(1, _NORMALS // (s + n + 1))
    Z = gen.standard_normal((k, s + n + 1))
    U = Z[:, :s]
    return zip(U[np.arange(k), (U * U).argmax(axis=1)].tolist(), Z[:, s:])


def _factor_fill(gen, s):
    """One chunk of s-by-s N(0, 1) factors: a (k, s, s) standard_normal
    fill, k = max(1, _NORMALS // s**2), whose iteration yields the factors
    as views (the sgsm:1 step flattens a chunk of 1-by-1 factors to a list
    of floats).  See the chunk rule in rng.py."""
    return gen.standard_normal((max(1, _NORMALS // (s * s)), s, s))


def _gaussian_row(factor, xa, u_star, z):
    """The max-residual row of a fresh m-by-s N(0, 1) sketch S^T (A, b),
    drawn in the row space of [A b], without S or any m-vector.

    With res = A x - b and rhat = res / ||res||, column j of S splits as
    S_j = u_j rhat + P g_j, P the projection off rhat, u_j ~ N(0, 1)
    independent of P g_j.  Row j's sketched residual is u_j ||res||, so
    the winner j* = argmax u_j^2 depends on u alone, and its column is w =
    g + coef res, coef = (t - g.res) / ||res||^2, t = u_j* ||res||, for a
    fresh g ~ N(0, I_m).  Only w^T [A b] is needed.  factor = (R_A, r_b)
    is LinearSystem._residual_factor, [A b] = Q [R_A r_b] with Q's n + 1
    columns orthonormal; with v = R_A x - r_b and z = Q^T g ~ N(0, I_{n+1}):
      res = Q v, so ||res||^2 = v.v;
      g.res = z.v;
      w^T [A b] = c^T [R_A r_b], c = z + coef v.
    This is the winning row's law whatever the rank of A and whether or
    not b is consistent, at two (n+1)-by-n products per step.  When m = n
    the factor's last row is zero, so z's last normal drops out.  When
    ||res||^2 computes as zero, w = g (coef = 0) and t = 0.

    Returns select(x)'s shape (t, row, beta, row_sq).  Each product is a
    1-D .dot, numpy's cheapest call for it, and each scalar a Python float
    (the cost rules in solvers.py).
    """
    RA, rb = factor
    v = RA.dot(xa) - rb
    res_sq = float(v.dot(v))
    t = coef = 0.0
    if res_sq > 0.0:
        t = u_star * math.sqrt(res_sq)
        coef = (t - float(z.dot(v))) / res_sq
    c = z + coef * v
    row, beta = c.dot(RA), float(c.dot(rb))
    return t, row, beta, float(row.dot(row))


def _sparse_winner(Ab, bb, X, xa):
    """The max-residual row of the sparse sketch X^T (Ab, bb) of a drawn
    block, forming only that row.

    Row j's sketched residual is (X^T (Ab x - bb))_j, so one s-by-s
    product with the block residual gives every row's residual, and the
    winner j* (ties to the first) is its only row built: w = X[:, j*],
    row = w^T Ab, beta = w^T bb.  Theta(s*n + s^2) multiplies instead of
    the Theta(s^2*n) of X^T Ab, on the same factor and the same sketch.

    The sgsm step calls it for s >= 2: at s = 1 it projects onto row z of
    A, the sketched row's hyperplane (solvers._walker).
    Returns select(x)'s shape (t, row, beta, row_sq), as _gaussian_row
    does for gsm.
    """
    t = (Ab.dot(xa) - bb).dot(X)
    j = int((t * t).argmax())
    w = X[:, j]
    row, beta = w.dot(Ab), float(w.dot(bb))
    return t[j], row, beta, float(row.dot(row))


def block_sketch(system, s: int, rng: RngState) -> SketchedSystem:
    """Uniformly placed aligned block of s contiguous rows of (A, b).

    The returned rows are views of A and b: bit-identical, zero copies,
    zero multiplies.
    """
    _check_sketch(s, system.A.rows)
    z = int(rng.gen.integers(_block_count(system.A.rows, s)))
    Ab, bb, shift = _block(system.A.a, system.b.a, s, z)
    return SketchedSystem(Ab, bb, z, shift, None)


def gaussian_sketch(system, s: int, rng: RngState) -> SketchedSystem:
    """Dense Gaussian sketch: fresh m-by-s iid N(0, 1) S, M = S^T A, r = S^T b.

    s may exceed the row count; the sketch is then overcomplete.  This is
    the Theta(m*s*n) materialized reference; the gsm solver step draws
    only the winning row, in the row space of [A b] (see
    _gaussian_row).
    """
    _check_sketch(s)
    S = rng.gen.standard_normal((system.A.rows, s))
    return SketchedSystem(S.T @ system.A.a, S.T @ system.b.a, None, None, S)


def sparse_gaussian_sketch(system, s: int, rng: RngState) -> SketchedSystem:
    """Gaussian mix of one aligned s-row block: M = X^T A_block, X s-by-s N(0, 1).

    Equals the dense sketch whose S is zero outside the block, at
    Theta(s^2*n) multiplies instead of Theta(m*s*n).  This is the
    materialized reference; the sgsm solver step draws X the same way but
    builds only the winning row of X^T A_block (see _sparse_winner).
    """
    Ab, bb, z, shift, _ = block_sketch(system, s, rng)
    X = rng.gen.standard_normal((s, s))
    return SketchedSystem(X.T @ Ab, X.T @ bb, z, shift, X)

