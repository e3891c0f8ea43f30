"""Row-projection solvers for consistent overdetermined linear systems.

All five methods are one select-then-project step: draw a system (A
itself, one row of A, a block of A, or a sketch of A), select one of its
rows, and project the iterate onto that row's hyperplane,
x <- x + ((b_i - <a_i, x>) / ||a_i||^2) a_i.  They differ only in the
selection rule (_selector):

  * kaczmarz: random row, probability proportional to ||a_i||^2;
  * motzkin:  the row with the largest squared residual (deterministic);
  * skm:      max-residual row within a random block of s rows of A;
  * gsm:      max-residual row of a fresh dense Gaussian sketch S^T A,
              drawn without S, in the row space of [A b]: each attempt
              draws s normals u (the sketched residuals over
              ||A x - b||) first, then n + 1 normals for the winning row
              alone, so a step costs Theta(n^2 + s) after the one QR of
              [A b] made once per system, which the trace records read
              too (see sketch.py);
  * sgsm:     max-residual row of a sparse Gaussian sketch (an s-by-s
              Gaussian mix X of one random block): the step draws all of
              X but builds only the winning row of X^T A_block, so it
              costs s^2 normals and Theta(s*n + s^2) multiplies; at
              s = 1 it projects onto a_z, the hyperplane of xi a_z.

The step loop (_steps) applies one rule to every method: a zero selected
residual leaves x unchanged (the iterate already solves the drawn
system); a selected row with ||row||^2 <= 1e-14 * max_i ||a_i||^2 is
reselected once, with fresh draws, and a second such row raises
ZeroRowError.

Stepper(system, config) is the one stepping engine, built once: it
checks (method, s, m), owns RngState(config.seed) and takes its draws in
chunks (the chunk rule in rng.py).  Stepper.step takes one step of
_steps, and run() all the steps between two record points in one call,
so run() is bit for bit the iteration of the public stepper.

A step costs about as many microseconds as it makes numpy and Python
calls, so the step and the recorder keep three rules, none of which
changes a value.  Scalars are Python floats: a numpy scalar costs more
per operation.  The steps that project onto a row of A (kaczmarz,
motzkin, skm, sgsm at s = 1) read b_i and ||a_i||^2 from Python-float
copies of b and LinearSystem.row_norms_sq (the one row-norm table, equal
bit for bit to each row's dot product with itself), made once per
system; gsm and sgsm at s >= 2 return w^T b and their row's norm as
floats.  Products are ndarray.dot, which rounds as @ does, without its
ufunc dispatch.  A step is one select call in the loop of _steps, which
projects inline.  skm and sgsm read a drawn block's views from a table
keyed by block index, filled the first time each index is drawn, so a
step makes no slice after that and building a stepper costs nothing per
block.  At s = 1 a step is one dot, one scale and one add, as kaczmarz's.
Recording never changes an iterate.
A motzkin record computes A x - b and puts it in the stepper's residual
cell, which motzkin's selection reads back when it selects at the
iterate just recorded, so a recorded motzkin step costs one A x product,
not two.  The other methods' records cost Theta(n^2), not Theta(m*n):
they read ||A x - b|| from one cached QR of [A b], the factor the gsm
step draws its row from, and run() measures them a block of record
points at a time, with stacked products that make the same BLAS calls
as one iterate's (see run()).

The sketched methods project onto the selected *sketched* row, which
keeps the one-step geometry exact: the error stays orthogonal to the
row used, so the squared error never increases on consistent systems.

run() drives any method to a residual tolerance with a timed, thinned
trace; reruns with the same seed are bit-identical except wall times.
"""

from __future__ import annotations

import math
import operator
import time
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import InputError, NumericalError, ZeroRowError, _index, _real
from .linalg import DenseMatrix, RealVector, _own, as_matrix, as_vector
from .rng import RngState, _check_seed, _chunked, _pick_from_cumulative
from .sketch import _block, _block_count, _check_sketch, _factor_fill, _gaussian_row, _sparse_winner, _winner_fill

__all__ = [
    "METHODS",
    "CONVERGED",
    "MAX_ITERS",
    "LinearSystem",
    "SolverConfig",
    "TraceRecord",
    "RunTrace",
    "project_row",
    "select_max_residual",
    "Stepper",
    "run",
    "contraction_summary",
]

METHODS = ("kaczmarz", "motzkin", "skm", "gsm", "sgsm")
_SKETCHED = METHODS[2:]

CONVERGED = "converged"
MAX_ITERS = "max_iters"

# A row is unusable for projection when ||row||^2 <= gate * max_i ||a_i||^2,
# a threshold in the units of A alone (see LinearSystem.zero_row_gate).
ZERO_ROW_GATE = 1e-14

# The residual a selector reports when it computes none (kaczmarz): NaN
# never equals 0.0, so the step never takes it for a solved row.
_NO_RESIDUAL = float("nan")

# Draws per chunk of a stepper's kaczmarz uniforms and skm and sgsm block
# indices.  A chunk costs about as much as ten single draws (about 25 us
# for 1000 kaczmarz rows), so a refill is cheap per step and so is the
# unused tail of a short run's last chunk.
_CHUNK = 1024

# Consistency slack for a planted solution: ||A x* - b|| <= slack * ||b||.
CONSISTENCY_TOL = 1e-10

# run() lets error_sq rise between trace records by at most the larger of
# MONOTONE_SLACK * e_0^2 and MONOTONE_ROUNDOFF * u * (||e_prev|| + u), u = eps * ||x*||:
# roundoff near x*, widened because cancellation in a Gaussian-sketched row
# amplifies its rounding (by up to 9e4 on coherent 20x2).  A larger rise
# raises NumericalError.
MONOTONE_SLACK = 1e-9
MONOTONE_ROUNDOFF = 2.0**20

# run() steps through up to this many consecutive record points of a
# kaczmarz, skm, gsm or sgsm run before it measures their records together.
_RECORD_BLOCK = 32

# A record block ends where the recent decay rate of the residual (or of
# error_sq, under error_stop) says the run stops, stretched by this factor,
# so a run steps past its stop by a few steps, not by a whole block.  A
# block ended short of the stop needs another, at a fixed cost of about
# eight steps; a stretch of a fifth kept the block count within 1% of fixed
# 32-step blocks on gaussian 1000x50.
_STOP_MARGIN = 1.2

# A record's factored ||R_A x - r_b|| and the direct ||A x - b|| differ by at
# most RESIDUAL_WINDOW * (||A||_F ||x|| + ||b||).  The computed QR is exact
# for [A b] + dC with ||dc_j|| <= g ||c_j|| per column (Higham, Accuracy and
# Stability of Numerical Algorithms, Thm 19.4), so by Cauchy-Schwarz the
# factored value is ||A x - b|| to within g * (||A||_F ||x|| + ||b||); both
# matrix-vector products add roundoff of the same form.  The theorem's g
# grows with m*n in the worst case, which rounding does not attain: the gap
# measured from 120x8 to 1e5x50, kappa up to 1e14, stays under 2 units of
# eps * (||A||_F ||x|| + ||b||), so 2**10 units leave a margin of 500.
RESIDUAL_WINDOW = 2.0**10 * np.finfo(float).eps


def _row_dots(M):
    """Each row of M dotted with itself, bit for bit as its own .dot: a
    batched matmul of 1-by-n and n-by-1 makes the same BLAS dot call."""
    return (M[:, None, :] @ M[:, :, None]).ravel()


@dataclass(frozen=True, eq=False)
class LinearSystem:
    """An m-by-n system A x = b with m >= n, consistent or not.

    x_star, when present, is a planted solution and must satisfy
    ||A x_star - b||_2 <= 1e-10 * ||b||_2, a rule that scaling (A, b)
    leaves unchanged (with b = 0 only an exact solution passes); solvers
    can then track the true error per iteration.  Squares must stay in
    the range of a double: ||A||_F^2 and ||b|| finite (or the stopping
    threshold is inf), and a nonzero A's largest squared row norm not
    subnormal.  A, b and x_star may be arrays or wrappers; each is wrapped
    once, under linalg's copy rule (_validated), so nothing cached from
    the system (the row-norm table and its float copy, the Kaczmarz
    table, the zero-row gate, the QR of [A b]) can go stale under it.
    """

    A: DenseMatrix
    b: RealVector
    x_star: RealVector | None = None

    def __post_init__(self):
        object.__setattr__(self, "A", as_matrix(self.A))
        if self.A.rows < self.A.cols:
            raise InputError(f"system must have rows >= cols, got {self.A.rows}x{self.A.cols}")
        object.__setattr__(self, "b", as_vector(self.b, self.A.rows, "b"))
        norms = self.row_norms_sq
        if not (math.isfinite(float(norms.sum())) and math.isfinite(self.b_norm)):
            raise InputError("||A||_F^2 or ||b|| overflows a double; rescale the system")
        top = float(norms.max())
        if top < np.finfo(float).tiny and np.any(self.A.a):
            raise InputError(f"largest squared row norm {top:.3e} is subnormal; rescale the system")
        if self.x_star is not None:
            object.__setattr__(self, "x_star", as_vector(self.x_star, self.A.cols, "x_star"))
            gap = float(np.linalg.norm(self.A.a @ self.x_star.a - self.b.a))
            bound = CONSISTENCY_TOL * self.b_norm
            if gap > bound:
                raise InputError(f"x_star is not a solution: ||A x* - b|| = {gap:.3e} > {bound:.3e}")

    @cached_property
    def row_norms_sq(self) -> np.ndarray:
        """||a_i||^2 for every row: the one table behind the Kaczmarz
        weights, the zero-row gate, the range checks and the projections
        onto rows of A.  A batched matmul of each row with itself rounds
        exactly as the row's own dot product does, so a step that reads
        the table moves x bit for bit as one that recomputes the norm; a
        summed elementwise square rounds differently on most rows."""
        with np.errstate(over="ignore"):  # overflow is refused in __post_init__
            return _own(_row_dots(self.A.a))

    @cached_property
    def _row_floats(self):
        """(b.tolist(), row_norms_sq.tolist()): b_i and ||a_i||^2 as Python
        floats, which the kaczmarz, motzkin, skm and sgsm:1 steps read (the
        cost rules in the module docstring).  Made at the first Stepper of
        one of those methods and shared by every later one; the two lists
        hold 64 bytes a row (a pointer and a float object each)."""
        return self.b.a.tolist(), self.row_norms_sq.tolist()

    @cached_property
    def zero_row_gate(self) -> float:
        """Squared norm at or below which a (sketched) row is treated as zero."""
        return ZERO_ROW_GATE * float(self.row_norms_sq.max())

    @cached_property
    def cum_row_weights(self) -> np.ndarray:
        """Cumulative squared row norms, the Kaczmarz sampling table."""
        cum = np.cumsum(self.row_norms_sq)
        if cum[-1] <= 0.0:
            raise ZeroRowError("all rows of A are zero; cannot sample a row")
        return _own(cum)

    @cached_property
    def b_norm(self) -> float:
        return float(np.linalg.norm(self.b.a))

    @cached_property
    def _residual_factor(self):
        """(R_A, r_b): the (n+1)-by-(n+1) triangular factor [R_A r_b] of
        one Householder QR [A b] = Q [R_A r_b], padded with a zero row when
        m = n (Q then has n columns).  Q has orthonormal columns, so
        ||A x - b|| = ||R_A x - r_b|| for every x, whatever the rank of A
        and whether or not b is consistent.  run()'s trace records read it
        (see RESIDUAL_WINDOW), and the gsm step draws its row from it
        (sketch._gaussian_row).  Theta(m*n^2), made at the first gsm
        Stepper on the system or before the clock of its first kaczmarz,
        skm or sgsm run; Steppers of the other methods and a motzkin run
        leave it uncomputed.  Its temporaries (about two copies of [A b])
        are freed."""
        r = np.linalg.qr(np.column_stack([self.A.a, self.b.a]), mode="r")
        r = np.vstack([r, np.zeros((self.A.cols + 1 - len(r), self.A.cols + 1))])
        return np.ascontiguousarray(r[:, :-1]), np.ascontiguousarray(r[:, -1])

    def __repr__(self):
        planted = self.x_star is not None
        return f"LinearSystem(rows={self.A.rows}, cols={self.A.cols}, planted={planted})"


def _check_method(method: str, s: int, m: int | None = None):
    """The one check of a (method, s, m) combination: a method in METHODS
    and an integer sketch size s >= 1, at most m for skm and sgsm when the
    row count m is given.  kaczmarz and motzkin ignore s, but it must
    still be valid (the CLI gives them s = 1).
    """
    if method not in METHODS:
        raise InputError(f"unknown method {method!r}, expected one of {METHODS}")
    _check_sketch(s, m if method in ("skm", "sgsm") else None)


@dataclass(frozen=True)
class SolverConfig:
    """Method choice and run controls.

    s is the sketch size (ignored by kaczmarz and motzkin); skm and sgsm
    draw their block index afresh at every step.  seed must be an integer
    in [0, 2**64), as RngState requires; s, max_iters, record_dense_limit
    and record_stride must be integers, tol and error_stop real numbers.
    The trace records every iteration up to record_dense_limit, then
    every record_stride-th; the stopping rules are checked at record
    points.
    The run stops once ||A x - b||_2 <= tol * ||b||_2, a rule that scaling
    (A, b) leaves unchanged; with b = 0 only a zero residual stops it.
    error_stop, when set, additionally stops the run once the recorded
    squared error drops to that absolute value (requires record_error).
    """

    method: str
    s: int = 1
    max_iters: int = 1000
    tol: float = 1e-8
    seed: int = 0
    record_error: bool = False
    record_dense_limit: int = 10_000
    record_stride: int = 10
    error_stop: float | None = None

    def __post_init__(self):
        _check_method(self.method, self.s)
        _check_seed(self.seed)
        for name in ("max_iters", "record_dense_limit", "record_stride"):
            _index(getattr(self, name), name)
        if self.max_iters < 1:
            raise InputError(f"max_iters must be at least 1, got {self.max_iters}")
        tol = _real(self.tol, "tol")
        if not math.isfinite(tol) or tol < 0.0:
            raise InputError(f"tol must be a nonnegative real, got {self.tol}")
        if self.record_dense_limit < 0 or self.record_stride < 1:
            raise InputError("record_dense_limit must be >= 0 and record_stride >= 1")
        if self.error_stop is not None:
            if not self.record_error:
                raise InputError("error_stop requires record_error")
            error_stop = _real(self.error_stop, "error_stop")
            if not math.isfinite(error_stop) or error_stop < 0.0:
                raise InputError(f"error_stop must be a nonnegative real, got {self.error_stop}")


class TraceRecord(NamedTuple):
    """State snapshot after `iter` completed steps (iter 0 is the start).

    residual_norm is ||A x - b||_2: computed directly for motzkin, and
    for the other methods from a QR of [A b], to within RESIDUAL_WINDOW *
    (||A||_F ||x|| + ||b||) of the direct value (see run())."""

    iter: int
    error_sq: float | None
    residual_norm: float
    elapsed_ns: int


@dataclass(frozen=True, eq=False)
class RunTrace:
    """Recorded run history: strictly iter-ordered records plus a status
    (run() checks that error_sq does not rise; see MONOTONE_SLACK)."""

    records: tuple[TraceRecord, ...]
    status: str

    def __post_init__(self):
        if self.status not in (CONVERGED, MAX_ITERS):
            raise InputError(f"unknown status {self.status!r}")
        if not self.records:
            raise InputError("a trace needs at least one record")
        iters = [rec.iter for rec in self.records]
        if iters[0] < 0:
            raise InputError("record iterations must be nonnegative")
        if not all(map(operator.lt, iters, iters[1:])):
            raise InputError("records must be strictly ordered by iteration")

    @property
    def final(self) -> TraceRecord:
        return self.records[-1]


def project_row(x, a, beta: float) -> RealVector:
    """Orthogonal projection of x onto the hyperplane {y : <a, y> = beta}.

    Raises ZeroRowError only when a is zero: the step's zero-row rule on
    the one-row system {a}, which x does not enter.  "Zero" is the
    computed ||a||^2, which underflows to 0 for ||a|| below about 1.5e-162
    (2**-538 * e_1 raises, 2**-537 * e_1 projects) and loses precision
    once it is subnormal (||a|| below about 1.5e-154).  So scaling (a,
    beta) by 2**k leaves the result bit-identical only while ||a||^2
    neither underflows nor overflows, |k| up to about 500 for unit rows.
    """
    x = as_vector(x)
    a = as_vector(a, len(x), "a")
    beta = _real(beta, "beta")
    if not math.isfinite(beta):
        raise InputError("beta must be finite")
    row_sq = float(a.a.dot(a.a))
    if row_sq == 0.0:
        raise ZeroRowError(f"cannot project onto a (near-)zero row (||row||^2 = {row_sq:.3e})")
    return RealVector(_own(x.a + ((beta - float(a.a.dot(x.a))) / row_sq) * a.a))


def select_max_residual(M, r, x) -> int:
    """Index of the largest squared residual (M x - r)_i^2; ties take the
    lowest index."""
    M = as_matrix(M)
    t = M.a @ as_vector(x, M.cols, "x").a - as_vector(r, M.rows, "r").a
    return int(np.argmax(t * t))


def _selector(system: LinearSystem, method: str, s: int, gen, recorded):
    """The row-selection rule of one method, as
    select(x) -> (t, row, beta, row_sq).

    The chosen row is row with right-hand side beta and squared norm
    row_sq, and t is its residual.  For kaczmarz, motzkin, skm and sgsm
    at s = 1, row is a read-only view of a row of A; for gsm and sgsm at
    s >= 2 it is the winning sketched row, a fresh array.  kaczmarz and
    the s = 1 steps compute no residual: t = _NO_RESIDUAL.  beta and
    row_sq are Python floats: a row of A reads them from the system's
    float copies of b and LinearSystem.row_norms_sq (_row_floats, made at
    the first selector that reads them, so a selector makes no copy of
    its own); a sketched row computes its own.  Each kind of draw comes
    from its own _chunked source (the chunk rule in rng.py).  (method, s,
    m) is checked before any draw.  The Kaczmarz sampling table is read
    at the first draw: building a selector never fails on an all-zero A.

    skm and sgsm keep a table of the blocks drawn so far: block z's
    views, sketch._block(A, b, s, z), are made the first time z is drawn
    and read back with one lookup after that.  The table starts empty,
    so building a selector costs nothing per block, and it holds at most
    ceil(m/s) entries of about 300 bytes each.  When s = 1 block z is
    row z of A and the winner.  sgsm takes its one normal xi as a float
    from the same fill (sketch._factor_fill, flattened) and returns row z
    of A, whose hyperplane xi a_z shares, unless the zero-row gate may
    tell them apart: when xi^2 ||a_z||^2 is within a factor 2 of the gate
    (or of 2**-900, where its sum of squares may underflow), or ||a_z||^2
    is under it, it returns _sparse_winner's xi a_z, xi b_z and t.

    recorded is the one-slot cell [x, res] that run()'s motzkin recorder
    fills with res = A x - b for the iterate x it recorded last: motzkin
    reads res instead of recomputing it when it selects at that same array
    x.  The other methods' records leave the cell empty.
    gsm reads the system's cached QR factor of [A b]
    (LinearSystem._residual_factor), which a selector of any other method
    leaves uncomputed.
    """
    m = system.A.rows
    _check_method(method, s, m)
    Aa, ba = system.A.a, system.b.a
    if method == "gsm":
        factor = system._residual_factor
        attempts = _chunked(lambda: _winner_fill(gen, s, system.A.cols))

        def select(xa):
            return _gaussian_row(factor, xa, *attempts())

        return select
    if method in ("skm", "sgsm"):
        blocks = _chunked(lambda: gen.integers(_block_count(m, s), size=_CHUNK).tolist())
        table = {}  # block z's views, made when z is first drawn
    if method == "sgsm" and s > 1:
        factors = _chunked(lambda: _factor_fill(gen, s))

        def select(xa):
            z = blocks()
            Ab, bb, _ = table.get(z) or table.setdefault(z, _block(Aa, ba, s, z))
            return _sparse_winner(Ab, bb, factors(), xa)

        return select
    # Rows of A: beta and row_sq as Python floats (the module docstring's cost rules).
    bl, norms = system._row_floats
    if method == "kaczmarz":
        rows = _chunked(lambda: _pick_from_cumulative(gen, system.cum_row_weights, _CHUNK).tolist())

        def select(xa):
            i = rows()
            return _NO_RESIDUAL, Aa[i], bl[i], norms[i]

        return select
    if method == "motzkin":

        def select(xa):
            t = recorded[1] if recorded[0] is xa else Aa.dot(xa) - ba
            i = int((t * t).argmax())
            return t[i], Aa[i], bl[i], norms[i]

        return select
    if s == 1:
        scales = _chunked(lambda: _factor_fill(gen, 1).ravel().tolist()) if method == "sgsm" else lambda: 1.0
        gate, clear = system.zero_row_gate, max(2.0 * system.zero_row_gate, 2.0**-900)

        def select(xa):
            z, xi = blocks(), scales()
            if norms[z] > gate and xi * xi * norms[z] > clear:
                return _NO_RESIDUAL, Aa[z], bl[z], norms[z]
            row = Aa[z] if xi == 1.0 else xi * Aa[z]  # skm's xi is 1: a view of A, as kaczmarz's
            return (float(Aa[z].dot(xa)) - bl[z]) * xi, row, xi * bl[z], float(row.dot(row))

        return select

    def select(xa):
        z = blocks()
        Ab, bb, shift = table.get(z) or table.setdefault(z, _block(Aa, ba, s, z))
        t = Ab.dot(xa) - bb
        i = int((t * t).argmax())
        return t[i], Ab[i], bl[shift + i], norms[shift + i]

    return select


def _steps(select, xa, gate, k, done=None):
    """k select-then-project steps from x: (x_k, row, beta), with the row
    and right-hand side of the last step's select.

    Each step leaves x unchanged when its residual is zero.  A row with
    ||row||^2 <= gate (gate = LinearSystem.zero_row_gate) gets exactly one
    reselection; a second such row raises ZeroRowError.  Given done, the
    steps taken before x, a failing step's ZeroRowError (its own, or one
    select raises) names its iteration: "iteration {done + i}: ...".
    """
    try:
        for i in range(1, k + 1):
            t, row, beta, row_sq = select(xa)
            if row_sq <= gate and t != 0.0:
                t, row, beta, row_sq = select(xa)
                if row_sq <= gate and t != 0.0:
                    raise ZeroRowError(f"selected row has (near-)zero norm (||row||^2 = {row_sq:.3e}) "
                                       "after one resample")
            if t != 0.0:  # NaN (kaczmarz's) included
                xa = xa + ((beta - float(row.dot(xa))) / row_sq) * row
    except ZeroRowError as exc:
        if done is None:
            raise
        raise ZeroRowError(f"iteration {done + i}: {exc}") from exc
    return xa, row, beta


class Stepper:
    """The configured method's step on one system, built once.

    Building it checks (method, s, m) and starts the stepper's own stream
    RngState(config.seed); config's run controls are not read.  step(x)
    returns (x_next, row, beta): x_next is project_row(x, row, beta), bit
    for bit, or x itself when the row's residual is zero.  For kaczmarz,
    motzkin, skm and sgsm at s = 1, row is a read-only view of a row of A
    (xi a_z near the zero-row gate, see _selector); otherwise it is the
    winning sketched row, which aliases neither A nor b.  Stepping by
    hand from x0 reproduces run(system, config, x0)'s iterates bit for
    bit.  Not thread-safe.
    """

    def __init__(self, system: LinearSystem, config: SolverConfig):
        self._system = system
        self._recorded = [None, None]  # run()'s recorder fills it (see _selector)
        self._select = _selector(system, config.method, config.s, RngState(config.seed).gen, self._recorded)
        self._gate = system.zero_row_gate

    def step(self, x):
        xa, row, beta = _steps(self._select, as_vector(x, self._system.A.cols, "x").a, self._gate, 1)
        return RealVector(_own(xa)), row, beta


def run(system: LinearSystem, config: SolverConfig, x0=None):
    """Iterate the configured method until the relative residual rule
    ||A x - b||_2 <= tol * ||b||_2 fires, the optional error_stop fires,
    or max_iters steps complete.  The rule is scale-free; with b = 0 only
    an exactly zero residual satisfies it (as x0 = 0 does at once).

    The iterate starts at 0 unless x0 is given.  Stopping is checked at
    record points; past record_dense_limit iterations only every
    record_stride-th iteration is recorded (the final one always is), so
    a run can overshoot the rule by at most record_stride - 1 steps.

    Returns (x_final, RunTrace).  Reruns with identical inputs produce
    identical traces except the elapsed_ns fields.

    A motzkin record computes A x - b, which the next motzkin selection
    reads back.  The other methods' records compute ||A x - b|| in n
    dimensions, from a QR of [A b] (LinearSystem._residual_factor), and
    recompute it directly when that value lies within RESIDUAL_WINDOW of
    the threshold.  So every stop is decided on the direct residual, and
    the iterates, stops and error_sq are those of direct records; only the
    last bits of residual_norm can differ.

    One loop serves every method: it steps through a block of record
    points, up to _RECORD_BLOCK of them (one for motzkin, whose next
    selection reads its record's A x - b), measures them together, and
    records them in order, so the window recompute, the error_sq check
    and the stopping rules see one record at a time.  A stop discards the
    steps its block took past it; to take fewer, a block ends at the
    guessed stop (stop_guess).  A run never takes more than max_iters
    steps, and a step that finds no usable row raises only when no record
    before it stops the run.

    elapsed_ns is read when the record's step returns, before the record
    is measured.  It starts after the one-time QR of [A b], which a gsm
    stepper makes when it is built and the other non-motzkin runs make
    before the clock, so it leaves it out.
    """
    # The inputs are checked before a gsm Stepper computes the QR of [A b].
    if config.record_error and system.x_star is None:
        raise InputError("record_error requires a system with a planted solution")
    xa = np.zeros(system.A.cols) if x0 is None else as_vector(x0, system.A.cols, "x0").a
    stepper = Stepper(system, config)
    select, gate, recorded = stepper._select, stepper._gate, stepper._recorded
    Aa, ba = system.A.a, system.b.a
    xs = system.x_star.a if config.record_error else None
    unit = 0.0 if xs is None else np.finfo(float).eps * float(np.linalg.norm(xs))

    threshold = config.tol * system.b_norm
    factored = config.method != "motzkin"
    if factored:
        RA, rb = system._residual_factor
        # The window is wx * ||x|| + wb: RESIDUAL_WINDOW * (||A||_F ||x|| + ||b||).
        wx = RESIDUAL_WINDOW * math.sqrt(float(system.row_norms_sq.sum()))
        wb = RESIDUAL_WINDOW * system.b_norm
    error_stop = config.error_stop
    records, new_record = [], tuple.__new__  # TraceRecord's own __new__ costs twice as much
    prev = slack = None  # the last recorded error_sq and MONOTONE_SLACK * e_0^2

    def snapshot(k, xa, ns, measured):
        """Record iterate xa after k steps, stamped ns, from its measured
        (residual, ||x||^2, error_sq); return whether it stops the run."""
        nonlocal prev, slack
        residual, x_sq, err = measured
        if factored and abs(residual - threshold) <= wx * math.sqrt(x_sq) + wb:
            res = Aa.dot(xa) - ba
            residual = math.sqrt(res.dot(res))
        if err is not None:
            if prev is None:
                slack = MONOTONE_SLACK * err
            elif err > prev + slack and err > prev + MONOTONE_ROUNDOFF * unit * (prev**0.5 + unit):
                raise NumericalError(f"squared error increased at iteration {k}: {prev!r} -> {err!r}")
            prev = err
        records.append(new_record(TraceRecord, (k, err, residual, ns)))
        return residual <= threshold or (error_stop is not None and err <= error_stop)

    def stop_guess():
        """The iteration at which the next record block ends: _STOP_MARGIN
        times the steps that the decay rate of the residual, or of error_sq
        under error_stop, over the latter half of the run so far says its
        rule needs (the nearer); max_iters when neither decays."""
        now, then = records[-1], records[len(records) // 2]
        guess = last
        for goal, q, q_then in ((threshold, now.residual_norm, then.residual_norm),
                                (error_stop or 0.0, now.error_sq, then.error_sq)):
            if goal > 0.0 and q < q_then:
                need = _STOP_MARGIN * (now.iter - then.iter) * math.log(goal / q) / math.log(q / q_then)
                guess = min(guess, now.iter + math.ceil(need))
        return guess

    def measure(points):
        """The (residual, ||x||^2, error_sq) that snapshot() reads, of each
        point's iterate.  The other methods' points are measured together,
        bit for bit as one at a time: a stacked matmul makes the same BLAS
        call per iterate as the iterate's own product.  motzkin's point (it
        has at most one) computes A x - b and leaves it in the stepper's
        cell.  There may be no point (a block's first step failed)."""
        if factored:
            X = np.array([x for _, x, _ in points]).reshape(len(points), system.A.cols)
            V = (RA @ X[:, :, None])[:, :, 0] - rb
            errs = [None] * len(X) if xs is None else _row_dots(X - xs).tolist()
            return zip(np.sqrt(_row_dots(V)).tolist(), _row_dots(X).tolist(), errs)
        if not points:
            return ()
        x = points[0][1]
        res = recorded[1] = Aa.dot(x) - ba  # its norm below is np.linalg.norm's own arithmetic
        recorded[0], d = x, None if xs is None else x - xs
        return [(math.sqrt(res.dot(res)), None, None if d is None else float(d.dot(d)))]

    clock = time.perf_counter_ns
    start = clock()
    k, last, size = 0, config.max_iters, _RECORD_BLOCK if factored else 1
    dense, stride = config.record_dense_limit, config.record_stride
    reached, fault = [(0, xa, clock() - start)], None
    while True:
        # Record the points reached, in order: a stop before a failed step ends the run.
        for (j, x, ns), measured in zip(reached, measure(reached)):
            if snapshot(j, x, ns, measured):
                return RealVector(_own(x)), RunTrace(tuple(records), CONVERGED)
        if fault is not None:
            raise fault
        if k == last:
            return RealVector(_own(xa)), RunTrace(tuple(records), MAX_ITERS)
        # Step through up to size record points: each step up to dense,
        # then each stride-th, and the last; a block ends at the guessed stop.
        reached, end = [], stop_guess() if factored else last
        try:
            while len(reached) < size and k < end:
                point = k + 1 if k < dense else min(last, (k // stride + 1) * stride)
                xa, k = _steps(select, xa, gate, point - k, k)[0], point
                reached.append((k, xa, clock() - start))
        except ZeroRowError as exc:
            fault = exc


def contraction_summary(trace: RunTrace) -> float:
    """Mean per-iteration contraction factor of the squared error.

    Geometric mean of the per-iteration error_sq ratios implied by the
    trace (gaps between thinned records are weighted by their length).
    Requires at least two records with error_sq and a positive initial
    value; returns 0.0 in the degenerate case of an exactly zero final
    error.
    """
    recs = [r for r in trace.records if r.error_sq is not None]
    if len(recs) < 2:
        raise InputError("need at least two records with squared error")
    first, last = recs[0], recs[-1]
    if first.error_sq <= 0.0:
        raise InputError("initial squared error must be positive")
    if last.error_sq == 0.0:
        return 0.0
    span = last.iter - first.iter
    return float(np.exp(np.log(last.error_sq / first.error_sq) / span))
