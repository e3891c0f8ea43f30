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
              alone, so a step costs Theta(n^2 + s) after a Theta(m*n^2)
              factorization made once per system (see sketch.py);
  * sgsm:     max-residual row of a sparse Gaussian sketch (an s-by-s
              Gaussian mix X of one random block): the step draws all of
              X but builds only the winning row of X^T A_block, so it
              costs s^2 normals and Theta(s*n + s^2) multiplies.

The step (_step) applies one rule to every method: a zero selected
residual leaves x unchanged (the iterate already solves the drawn
system); a selected row with ||row||^2 <= 1e-14 * max_i ||a_i||^2 is
reselected once, with fresh draws, and a second such row raises
ZeroRowError.

Stepper(system, config) is the one stepping engine, built once: it
checks (method, s, m), owns RngState(config.seed) and takes its draws in
chunks (the chunk rule in rng.py).  run() iterates its selector through
_step, so run() is bit for bit the iteration of the public stepper.

A step costs about as many microseconds as it makes numpy calls, so the
step and the recorder keep two rules, neither of which changes a value.
Scalars are Python floats: a numpy scalar costs more per operation.  The
steps that project onto a row of A (kaczmarz, motzkin, skm) read b_i and
||a_i||^2 from Python-float copies of b and LinearSystem.row_norms_sq
(the one row-norm table, equal bit for bit to each row's dot product
with itself), made once per stepper; gsm and sgsm return w^T b and
their row's norm as floats.  Products are ndarray.dot, which rounds as
@ does, without its ufunc dispatch.  Recording never changes an iterate.
A motzkin record computes A x - b and puts it in the stepper's residual
cell, which motzkin's selection reads back when it selects at the
iterate just recorded, so a recorded motzkin step costs one A x product,
not two.  The other methods' records cost Theta(n^2), not Theta(m*n):
they read ||A x - b|| from one cached QR of [A b] (see run()).

The sketched methods project onto the selected *sketched* row, which
keeps the one-step geometry exact: the error stays orthogonal to the
row used, so the squared error never increases on consistent systems.

run() drives any method to a residual tolerance with a timed, thinned
trace; reruns with the same seed are bit-identical except wall times.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import InputError, NumericalError, ZeroRowError, _index, _real
from .linalg import DenseMatrix, RealVector, _own, as_matrix, as_vector
from .rng import RngState, _check_seed, _chunked, _pick_from_cumulative
from .sketch import (
    SketchedSystem,
    _block_count,
    _build_raw,
    _check_sketch,
    _factor_fill,
    _gaussian_row_raw,
    _one_row_sketch,
    _sparse_winner_raw,
    _winner_fill,
)

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


@dataclass(frozen=True, eq=False)
class LinearSystem:
    """A consistent m-by-n system A x = b with m >= n.

    x_star, when present, is a planted solution and must satisfy
    ||A x_star - b||_2 <= 1e-10 * ||b||_2, a rule that scaling (A, b)
    leaves unchanged (with b = 0 only an exact solution passes); solvers
    can then track the true error per iteration.  Squares must stay in
    the range of a double: ||A||_F^2 and ||b|| finite (or the stopping
    threshold is inf), and a nonzero A's largest squared row norm not
    subnormal.
    """

    A: DenseMatrix
    b: RealVector
    x_star: RealVector | None = None

    def __post_init__(self):
        object.__setattr__(self, "A", as_matrix(self.A))
        object.__setattr__(self, "b", as_vector(self.b))
        if self.A.rows < self.A.cols:
            raise InputError(f"system must have rows >= cols, got {self.A.rows}x{self.A.cols}")
        if len(self.b) != self.A.rows:
            raise InputError(f"b has length {len(self.b)}, expected {self.A.rows}")
        norms = self.row_norms_sq
        if not (math.isfinite(float(norms.sum())) and math.isfinite(self.b_norm)):
            raise InputError("||A||_F^2 or ||b|| overflows a double; rescale the system")
        top = float(norms.max())
        if top < np.finfo(float).tiny and np.any(self.A.a):
            raise InputError(f"largest squared row norm {top:.3e} is subnormal; rescale the system")
        if self.x_star is not None:
            object.__setattr__(self, "x_star", as_vector(self.x_star))
            if len(self.x_star) != self.A.cols:
                raise InputError(f"x_star has length {len(self.x_star)}, expected {self.A.cols}")
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
        a = self.A.a
        with np.errstate(over="ignore"):  # overflow is refused in __post_init__
            return _own((a[:, None, :] @ a[:, :, None]).ravel())

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
    def _row_space(self):
        """(G, R, x_ls, rho): G = A^T A, R with R^T R = G (from a QR of A),
        the minimum-norm least-squares point x_ls (rank-deficient A
        included) and rho = ||b - A x_ls||.  The gsm step draws its row
        from these alone (sketch._gaussian_row_raw).  Theta(m*n^2), made
        at the first gsm stepper on the system and by no other method;
        its temporaries (about one copy of A at a time) are freed."""
        a, b = self.A.a, self.b.a
        x_ls = np.linalg.lstsq(a, b, rcond=None)[0]
        r_ls = b - a.dot(x_ls)
        return a.T @ a, np.linalg.qr(a, mode="r"), x_ls, math.sqrt(r_ls.dot(r_ls))

    @cached_property
    def _residual_factor(self):
        """(R_A, r_b): the min(m, n+1)-by-(n+1) triangular factor
        [R_A r_b] of one Householder QR [A b] = Q [R_A r_b].  Q has
        orthonormal columns, so ||A x - b|| = ||R_A x - r_b|| for every x,
        whatever the rank of A and whether or not b is consistent.  run()'s
        trace records read it (see RESIDUAL_WINDOW).  Theta(m*n^2), made
        before the clock of the first kaczmarz, skm, gsm or sgsm run on the
        system; a Stepper and a motzkin run leave it uncomputed.  Its
        temporaries (about two copies of [A b]) are freed."""
        r = np.linalg.qr(np.column_stack([self.A.a, self.b.a]), mode="r")
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
        if any(b <= a for a, b in zip(iters, iters[1:])):
            raise InputError("records must be strictly ordered by iteration")

    @property
    def final(self) -> TraceRecord:
        return self.records[-1]


def _project_raw(xa, row, beta, row_sq):
    return xa + ((beta - float(row.dot(xa))) / row_sq) * row


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
    a = as_vector(a)
    if len(x) != len(a):
        raise InputError(f"x and a must have equal length, got {len(x)} and {len(a)}")
    beta = _real(beta, "beta")
    if not math.isfinite(beta):
        raise InputError("beta must be finite")
    row_sq = float(a.a.dot(a.a))
    if row_sq == 0.0:
        raise ZeroRowError(f"cannot project onto a (near-)zero row (||row||^2 = {row_sq:.3e})")
    return RealVector(_own(_project_raw(x.a, a.a, beta, row_sq)))


def select_max_residual(M, r, x) -> int:
    """Index of the largest squared residual (M x - r)_i^2; ties take the
    lowest index."""
    M = as_matrix(M)
    r = as_vector(r)
    x = as_vector(x)
    if len(r) != M.rows or len(x) != M.cols:
        raise InputError("select_max_residual: shapes disagree")
    t = M.a @ x.a - r.a
    return int(np.argmax(t * t))


def _selector(system: LinearSystem, method: str, s: int, gen, recorded):
    """The row-selection rule of one method, as
    select(x) -> (t, raw, i, row, beta, row_sq).

    The chosen row is row with right-hand side beta and squared norm
    row_sq, and t is its residual.  raw is the step's drawn system in
    SketchedSystem's field order (M, r, z, shift, factor), with row =
    M[i] and beta = r[i]: (A, b, None, 0, None) for kaczmarz and motzkin,
    a block of A for skm.  For gsm and sgsm, i is None and raw is the
    winner's (row, beta, z, shift, column), whose record is
    _one_row_sketch(raw) with i = 0; gsm forms no column, so its column
    is None.  kaczmarz computes no residual and returns t = _NO_RESIDUAL.  beta and row_sq are Python floats: a row
    of A reads them from float copies of b and LinearSystem.row_norms_sq;
    a sketched row computes its own.  Each kind of draw comes from its
    own _chunked source (the chunk rule in rng.py).  (method, s, m) is
    checked before any draw.  The Kaczmarz sampling table is read at the
    first draw, so building a selector never fails on an all-zero A.

    recorded is the one-slot cell [x, res] that run()'s motzkin recorder
    fills with res = A x - b for the iterate x it recorded last: motzkin
    reads res instead of recomputing it when it selects at that same array
    x.  The other methods' records leave the cell empty.
    gsm reads the system's cached row-space factorization
    (LinearSystem._row_space), which a selector of any other method
    leaves uncomputed.
    """
    m = system.A.rows
    _check_method(method, s, m)
    Aa, ba = system.A.a, system.b.a
    if method == "gsm":
        space = system._row_space
        attempts = _chunked(lambda: _winner_fill(gen, s, system.A.cols))

        def select(xa):
            return _gaussian_row_raw(space, xa, *attempts())

        return select
    if method in ("skm", "sgsm"):
        blocks = _chunked(lambda: gen.integers(_block_count(m, s), size=_CHUNK).tolist())
    if method == "sgsm":
        factors = _chunked(lambda: _factor_fill(gen, s))

        def select(xa):
            return _sparse_winner_raw(_build_raw(Aa, ba, s, blocks()), factors(), xa)

        return select
    # Rows of A: beta and row_sq as Python floats (the module docstring's cost rules).
    bl, norms = ba.tolist(), system.row_norms_sq.tolist()
    whole = (Aa, ba, None, 0, None)
    if method == "kaczmarz":
        rows = _chunked(lambda: _pick_from_cumulative(gen, system.cum_row_weights, _CHUNK).tolist())

        def select(xa):
            i = rows()
            return _NO_RESIDUAL, whole, i, Aa[i], bl[i], norms[i]

        return select
    if method == "motzkin":

        def select(xa):
            t = recorded[1] if recorded[0] is xa else Aa.dot(xa) - ba
            i = int((t * t).argmax())
            return t[i], whole, i, Aa[i], bl[i], norms[i]

        return select

    def select(xa):
        raw = Ab, bb, _, shift, _ = _build_raw(Aa, ba, s, blocks())
        t = Ab.dot(xa) - bb
        i = int((t * t).argmax())
        return t[i], raw, i, Ab[i], bl[shift + i], norms[shift + i]

    return select


def _step(select, xa, gate):
    """One select-then-project step: (x_next, raw, i) with the row of
    select(x).

    A zero residual returns x unchanged.  A row with ||row||^2 <= gate
    (gate = LinearSystem.zero_row_gate) gets exactly one reselection; a
    second such row raises ZeroRowError.
    """
    for _ in (0, 1):
        t, raw, i, row, beta, row_sq = select(xa)
        if t == 0.0:
            return xa, raw, i
        if row_sq > gate:
            return _project_raw(xa, row, beta, row_sq), raw, i
    raise ZeroRowError(f"selected row has (near-)zero norm (||row||^2 = {row_sq:.3e}) after one resample")


def _iterate(system: LinearSystem, x, name="x") -> np.ndarray:
    """The raw array of an iterate for system, checked for length."""
    x = as_vector(x)
    if len(x) != system.A.cols:
        raise InputError(f"{name} has length {len(x)}, expected {system.A.cols}")
    return x.a


class Stepper:
    """The configured method's step on one system, built once.

    Building it checks (method, s, m) and starts the stepper's own stream
    RngState(config.seed); config's run controls are not read.  step(x)
    returns (x_next, sketch, i): x_next projects x onto row i of the drawn
    SketchedSystem, sketch.M[i] with right-hand side sketch.r[i] (x_next
    is x when that row's residual is zero), so a step can be replayed
    exactly.  For kaczmarz and motzkin the drawn system is A itself:
    sketch.M is system.A.a, sketch.r is system.b.a and shift is 0.  For
    gsm and sgsm it is the one-row sketch of the winning row, and i is 0;
    its factor is the winning column of X for sgsm and None for gsm, whose
    step never forms a column of S.  Stepping by hand from x0 reproduces
    run(system, config, x0)'s iterates bit for bit.  Not thread-safe.
    """

    def __init__(self, system: LinearSystem, config: SolverConfig):
        self._system = system
        self._recorded = [None, None]  # run()'s recorder fills it (see _selector)
        self._select = _selector(system, config.method, config.s, RngState(config.seed).gen, self._recorded)
        self._gate = system.zero_row_gate

    def step(self, x):
        xa, raw, i = _step(self._select, _iterate(self._system, x), self._gate)
        if i is None:  # a Gaussian winner: its row is the whole drawn system
            return RealVector(_own(xa)), _one_row_sketch(raw), 0
        return RealVector(_own(xa)), SketchedSystem._make(raw), i


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

    elapsed_ns starts after the one-time factorizations, gsm's row space
    (LinearSystem._row_space) and the records' QR, so it leaves them out.
    """
    stepper = Stepper(system, config)
    select, gate, recorded = stepper._select, stepper._gate, stepper._recorded
    if config.record_error and system.x_star is None:
        raise InputError("record_error requires a system with a planted solution")
    Aa, ba = system.A.a, system.b.a
    xa = np.zeros(system.A.cols) if x0 is None else _iterate(system, x0, "x0")
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
    records = []
    prev = slack = None  # the last recorded error_sq and MONOTONE_SLACK * e_0^2
    start = time.perf_counter_ns()

    def snapshot(k, xa):
        nonlocal prev, slack
        if factored:
            v = RA.dot(xa) - rb
            residual = math.sqrt(v.dot(v))
            if abs(residual - threshold) <= wx * math.sqrt(xa.dot(xa)) + wb:
                res = Aa.dot(xa) - ba
                residual = math.sqrt(res.dot(res))
        else:
            res = recorded[1] = Aa.dot(xa) - ba
            recorded[0] = xa
            residual = math.sqrt(res.dot(res))  # np.linalg.norm's own arithmetic
        err = None
        if xs is not None:
            d = xa - xs
            err = float(d.dot(d))
            if prev is None:
                slack = MONOTONE_SLACK * err
            elif err > prev + slack and err > prev + MONOTONE_ROUNDOFF * unit * (prev**0.5 + unit):
                raise NumericalError(f"squared error increased at iteration {k}: {prev!r} -> {err!r}")
            prev = err
        records.append(TraceRecord(k, err, residual, time.perf_counter_ns() - start))
        return residual <= threshold or (error_stop is not None and err <= error_stop)

    status = CONVERGED if snapshot(0, xa) else MAX_ITERS
    k, last = 0, config.max_iters
    dense, stride = config.record_dense_limit, config.record_stride
    try:
        while status == MAX_ITERS and k < last:
            # Step to the next record point: each step up to dense, then
            # each stride-th, and the last.
            point = k + 1 if k < dense else min(last, (k // stride + 1) * stride)
            for k in range(k + 1, point + 1):
                xa = _step(select, xa, gate)[0]
            if snapshot(k, xa):
                status = CONVERGED
    except ZeroRowError as exc:
        raise ZeroRowError(f"iteration {k}: {exc}") from exc
    return RealVector(_own(xa)), RunTrace(tuple(records), status)


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
