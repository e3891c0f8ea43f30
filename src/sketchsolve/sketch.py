"""Row sketches: block, Gaussian, and sparse Gaussian.

A sketch compresses the m-row system (A, b) to an s-row system
(M, r) = (S^T A, S^T b) for some m-by-s matrix S:

  * block:    S selects s contiguous rows, so M is a zero-copy view of
              A and building it costs no floating-point multiplies;
  * gaussian: S has iid N(0, 1) entries, costing Theta(m*s*n) multiplies
              per sketch (gaussian_sketch, the materialized reference);
  * sparse:   S is zero outside one s-row block, where it holds an
              s-by-s Gaussian factor X; then M = X^T A_block costs only
              Theta(s^2*n) multiplies while still mixing rows.

Block placement is aligned: the block index z is uniform on
{0, ..., floor(m/s) - 1} and the block covers rows [s*z, s*z + s).
When s does not divide m the trailing m mod s rows are never sampled.

Draw order per sketch: block index first (when the kind has one and it
is not pinned), then the Gaussian factor entries in row-major order.

A max-residual step on a Gaussian sketch only ever uses the winning
column of S, so the solver draws that column alone from its conditional
law (_gaussian_winner_raw): Theta(m*n + m + s) per step instead of
Theta(m*s*n).  Its draw order per attempt is u (s normals), then g
(m normals).
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .linalg import DenseMatrix, RealVector, _own
from .rng import RngState

__all__ = [
    "SKETCH_KINDS",
    "SketchSpec",
    "SketchProvenance",
    "SketchedSystem",
    "block_sketch",
    "gaussian_sketch",
    "sparse_gaussian_sketch",
    "apply_sparse_block",
    "count_multiplies",
]

SKETCH_KINDS = ("block", "gaussian", "sparse")

_counter_slot = threading.local()


class MultiplyCounter:
    """Tally of floating-point multiplies spent building sketches."""

    def __init__(self):
        self.count = 0


@contextmanager
def count_multiplies():
    """Context manager that counts sketch-building multiplies on this thread.

    Only products routed through this module are tallied; a block sketch
    performs none (its outputs are views into A and b).
    """
    counter = MultiplyCounter()
    _counter_slot.counter = counter
    try:
        yield counter
    finally:
        _counter_slot.counter = None


def _mm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    counter = getattr(_counter_slot, "counter", None)
    if counter is not None:
        counter.count += a.shape[0] * a.shape[1] * (b.shape[1] if b.ndim == 2 else 1)
    return a @ b


@dataclass(frozen=True)
class SketchSpec:
    """Sketch family plus size.  For block and sparse kinds, s must not
    exceed the row count of the system it is applied to (checked at use)."""

    kind: str
    s: int

    def __post_init__(self):
        if self.kind not in SKETCH_KINDS:
            raise InputError(f"unknown sketch kind {self.kind!r}, expected one of {SKETCH_KINDS}")
        if self.s < 1:
            raise InputError(f"sketch size must be at least 1, got {self.s}")


@dataclass(frozen=True, eq=False)
class SketchProvenance:
    """What randomness produced a sketch: the block index z and row shift
    s*z (block and sparse kinds), and the Gaussian factor (S for gaussian,
    X for sparse).  Enough to rematerialize the sketch exactly."""

    kind: str
    z: int | None = None
    shift: int | None = None
    factor: DenseMatrix | None = None


@dataclass(frozen=True, eq=False)
class SketchedSystem:
    """An s-row compressed system (M, r) with its provenance."""

    M: DenseMatrix
    r: RealVector
    provenance: SketchProvenance

    def __post_init__(self):
        if self.M.rows != len(self.r):
            raise InputError(f"sketched sides disagree: M has {self.M.rows} rows, r has length {len(self.r)}")


def _check_block_size(s: int, m: int):
    if s < 1:
        raise InputError(f"sketch size must be at least 1, got {s}")
    if s > m:
        raise InputError(f"block sketch size {s} exceeds row count {m}")


def _build_raw(Aa, ba, kind, s, gen, fixed_block=None):
    """One sketch as raw arrays: (Ma, ra, z, shift, factor).

    Shared by the public constructors and the solver run loop so both
    consume the random stream identically.
    """
    m = Aa.shape[0]
    if kind == "block":
        z = int(gen.integers(m // s))
        shift = s * z
        return Aa[shift:shift + s], ba[shift:shift + s], z, shift, None
    # sparse
    if fixed_block is None:
        z = int(gen.integers(m // s))
    else:
        z = fixed_block
    shift = s * z
    X = gen.standard_normal((s, s))
    return _mm(X.T, Aa[shift:shift + s]), _mm(X.T, ba[shift:shift + s]), z, shift, X


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

    Returns (raw, t): raw is a one-row sketch (Ma, ra, None, None, F) with
    F the m-by-1 winning column, Ma = F^T A and ra = F^T b; t is the
    winner's sketched residual u_j* ||res||.
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
    return (_mm(F.T, Aa), _mm(F.T, ba), None, None, F), t


def _wrap(kind, raw) -> SketchedSystem:
    Ma, ra, z, shift, factor = raw
    prov = SketchProvenance(
        kind,
        z=z,
        shift=shift,
        factor=DenseMatrix(_own(factor)) if factor is not None else None,
    )
    if Ma.flags.writeable:
        _own(Ma)
        _own(ra)
    return SketchedSystem(DenseMatrix(Ma), RealVector(ra), prov)


def block_sketch(system, s: int, rng: RngState) -> SketchedSystem:
    """Uniformly placed aligned block of s contiguous rows of (A, b).

    The returned rows are views of A and b: bit-identical, zero copies,
    zero multiplies.
    """
    _check_block_size(s, system.A.rows)
    return _wrap("block", _build_raw(system.A.a, system.b.a, "block", s, rng.gen))


def gaussian_sketch(system, s: int, rng: RngState) -> SketchedSystem:
    """Dense Gaussian sketch: fresh m-by-s iid N(0, 1) S, M = S^T A, r = S^T b.

    s may exceed the row count; the sketch is then overcomplete.  This is
    the Theta(m*s*n) materialized reference; the gsm solver step draws
    only the winning column of S (see _gaussian_winner_raw).
    """
    if s < 1:
        raise InputError(f"sketch size must be at least 1, got {s}")
    S = rng.gen.standard_normal((system.A.rows, s))
    return _wrap("gaussian", (_mm(S.T, system.A.a), _mm(S.T, system.b.a), None, None, S))


def sparse_gaussian_sketch(system, s: int, rng: RngState, fixed_block: int | None = None) -> SketchedSystem:
    """Gaussian mix of one aligned s-row block: M = X^T A_block, X s-by-s N(0, 1).

    Equals the dense sketch whose S is zero outside the block, at
    Theta(s^2*n) multiplies instead of Theta(m*s*n).  Pass fixed_block to
    pin the block index z (no index draw is consumed then).
    """
    m = system.A.rows
    _check_block_size(s, m)
    if fixed_block is not None and not 0 <= fixed_block < m // s:
        raise InputError(f"fixed_block {fixed_block} out of range [0, {m // s})")
    return _wrap("sparse", _build_raw(system.A.a, system.b.a, "sparse", s, rng.gen, fixed_block))


def apply_sparse_block(system, x_factor, shift: int) -> SketchedSystem:
    """Sketch the s-row block of (A, b) starting at `shift` with a given
    s-by-s factor.  Used for injecting deterministic factors."""
    X = x_factor if isinstance(x_factor, DenseMatrix) else DenseMatrix(x_factor)
    if X.rows != X.cols:
        raise InputError(f"factor must be square, got {X.rows}x{X.cols}")
    s = X.rows
    m = system.A.rows
    _check_block_size(s, m)
    if shift % s != 0 or not 0 <= shift <= m - s:
        raise InputError(f"shift {shift} is not an aligned block start for s={s}, m={m}")
    Ma = _mm(X.a.T, system.A.a[shift:shift + s])
    ra = _mm(X.a.T, system.b.a[shift:shift + s])
    prov = SketchProvenance("sparse", z=shift // s, shift=shift, factor=X)
    return SketchedSystem(DenseMatrix(_own(Ma)), RealVector(_own(ra)), prov)
