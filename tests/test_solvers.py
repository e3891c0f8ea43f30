"""Projection-step and run-loop tests.

Reference values come from independent re-derivations: a brute-force scan
for row selection, a per-row Python loop re-implementing the max-residual
iteration, and closed-form projections on integer-valued systems (where
the arithmetic is exact, so unchanged iterates can be compared bitwise).
"""

import functools
import itertools
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sketchsolve import solvers
from sketchsolve import (
    CONVERGED,
    MAX_ITERS,
    DenseMatrix,
    InputError,
    LinearSystem,
    ModelSpec,
    NumericalError,
    RealVector,
    RngState,
    RunTrace,
    SolverConfig,
    Stepper,
    TraceRecord,
    ZeroRowError,
    block_sketch,
    contraction_summary,
    gaussian_sketch,
    generate_system,
    load_csv_matrix,
    project_row,
    run,
    select_max_residual,
    sparse_gaussian_sketch,
)


def make_system(m, n, seed=0, planted=True):
    gen = np.random.default_rng(seed)
    a = gen.standard_normal((m, n))
    x_star = gen.standard_normal(n)
    b = a @ x_star
    return LinearSystem(DenseMatrix(a), RealVector(b), RealVector(x_star) if planted else None)


INTEGER_SYSTEM = LinearSystem(
    DenseMatrix([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
    RealVector([1.0, 1.0, 2.0]),
    RealVector([1.0, 1.0]),
)


# ----------------------------------------------------------------- oracles

def scan_max_index(m_arr, r_arr, x_arr):
    best, best_val = 0, -1.0
    for i in range(m_arr.shape[0]):
        v = float(m_arr[i] @ x_arr) - float(r_arr[i])
        if v * v > best_val:
            best, best_val = i, v * v
    return best


def reference_max_residual_iteration(a, b, x0, steps):
    x = np.array(x0, dtype=float)
    for _ in range(steps):
        resid = [float(a[i] @ x) - float(b[i]) for i in range(a.shape[0])]
        i = max(range(len(resid)), key=lambda j: resid[j] * resid[j])
        row = a[i]
        x = x + (float(b[i]) - float(row @ x)) / float(row @ row) * row
    return x


def step_row_and_beta(stepper, x):
    """Take one step of `stepper`, returning (x1, row projected on, beta).

    The row comes back as a plain array."""
    x1, sketch, i = stepper.step(x)
    return x1, sketch.M.a[i], float(sketch.r.a[i])


# -------------------------------------------------------------- projection

def test_project_row_fixed_point():
    got = project_row(RealVector([1.0, 1.0]), RealVector([1.0, 0.0]), 1.0)
    assert got.a.tolist() == [1.0, 1.0]


def test_project_row_onto_axis():
    got = project_row(RealVector([3.0, 4.0]), RealVector([0.0, 2.0]), 0.0)
    assert got.a.tolist() == [3.0, 0.0]
    got = project_row(RealVector([0.0, 0.0]), RealVector([1.0, 0.0]), 2.0)
    assert got.a.tolist() == [2.0, 0.0]


def test_project_row_closed_form():
    got = project_row(RealVector([0.0, 0.0]), RealVector([1.0, 1.0]), 2.0)
    assert got.a.tolist() == [1.0, 1.0]


def test_project_row_lands_on_hyperplane():
    gen = np.random.default_rng(5)
    for _ in range(50):
        n = int(gen.integers(1, 12))
        x = gen.standard_normal(n)
        a = gen.standard_normal(n)
        beta = float(gen.standard_normal())
        got = project_row(RealVector(x), RealVector(a), beta)
        assert abs(float(a @ got.a) - beta) <= 1e-10 * max(1.0, abs(beta))


def test_project_row_zero_row_raises():
    x = RealVector([1.0, 2.0])
    with pytest.raises(ZeroRowError):
        project_row(x, RealVector([0.0, 0.0]), 1.0)
    # Only a zero row is rejected: a row of norm 1e-8 is a valid hyperplane.
    got = project_row(x, RealVector([1e-8, 0.0]), 1.0)
    assert abs(1e-8 * got.a[0] - 1.0) <= 1e-12 and got.a[1] == 2.0


def test_project_row_rule_is_scale_free():
    # The zero-row rule reads neither the size of x nor the units of a.
    assert project_row(RealVector([0.0, 1e8]), RealVector([1.0, 0.0]), 1.0).a.tolist() == [1.0, 1e8]
    gen = np.random.default_rng(6)
    x, a, beta = gen.standard_normal(5), gen.standard_normal(5), float(gen.standard_normal())
    base = project_row(RealVector(x), RealVector(a), beta)
    for k in (-30, -10, 10, 30):
        scale = 2.0 ** k
        got = project_row(RealVector(x), RealVector(scale * a), scale * beta)
        assert np.array_equal(got.a, base.a), k


def test_project_row_input_checks():
    with pytest.raises(InputError):
        project_row(RealVector([1.0]), RealVector([1.0, 2.0]), 0.0)
    with pytest.raises(InputError):
        project_row(RealVector([1.0]), RealVector([1.0]), float("nan"))


# --------------------------------------------------------------- selection

def test_select_max_residual_single_spike():
    m = DenseMatrix(np.eye(4))
    r = RealVector([0.0, 0.0, -5.0, 0.0])
    assert select_max_residual(m, r, RealVector([0.0] * 4)) == 2


def test_select_max_residual_tie_takes_lowest():
    m = DenseMatrix([[1.0], [-1.0]])
    r = RealVector([0.0, 0.0])
    assert select_max_residual(m, r, RealVector([3.0])) == 0


def test_select_max_residual_matches_scan_oracle():
    gen = np.random.default_rng(31)
    for _ in range(20):
        m_arr = gen.standard_normal((40, 7))
        r_arr = gen.standard_normal(40)
        x_arr = gen.standard_normal(7)
        got = select_max_residual(DenseMatrix(m_arr), RealVector(r_arr), RealVector(x_arr))
        assert got == scan_max_index(m_arr, r_arr, x_arr)


def test_select_max_residual_shape_checks():
    with pytest.raises(InputError):
        select_max_residual(DenseMatrix(np.eye(3)), RealVector([1.0, 2.0]), RealVector([0.0] * 3))


# ---------------------------------------------------------------- kaczmarz

def test_kaczmarz_solution_is_fixed_point():
    stepper = Stepper(INTEGER_SYSTEM, SolverConfig("kaczmarz"))
    x_star = INTEGER_SYSTEM.x_star
    for _ in range(20):
        x1, _, _ = stepper.step(x_star)
        assert np.array_equal(x1.a, x_star.a)


def test_kaczmarz_single_row_solves_exactly():
    sy = LinearSystem(DenseMatrix([[2.0]]), RealVector([6.0]))
    x1, _, i = Stepper(sy, SolverConfig("kaczmarz", seed=1)).step(RealVector([0.0]))
    assert i == 0
    assert x1.a.tolist() == [3.0]


def test_kaczmarz_forced_selection_projects_correctly():
    # Find a seed whose first weighted draw picks the (1,1) row, then the
    # projection from the origin lands on the exact solution.
    for seed in range(100):
        x1, _, i = Stepper(INTEGER_SYSTEM, SolverConfig("kaczmarz", seed=seed)).step(RealVector([0.0, 0.0]))
        if i == 2:
            assert x1.a.tolist() == [1.0, 1.0]
            break
    else:
        pytest.fail("no seed in range selected the heavy row")


def test_kaczmarz_selection_tracks_row_weights():
    sy = make_system(12, 3, seed=6)
    weights = np.einsum("ij,ij->i", sy.A.a, sy.A.a)
    probs = weights / weights.sum()
    stepper = Stepper(sy, SolverConfig("kaczmarz", seed=77))
    counts = np.zeros(12)
    x = RealVector(np.zeros(3))
    for _ in range(20_000):
        x, _, i = stepper.step(x)
        counts[i] += 1
    assert np.max(np.abs(counts / 20_000 - probs)) <= 0.03


def test_kaczmarz_never_samples_zero_rows():
    # A zero row carries no sampling mass: its cumulative weight equals
    # the previous row's, so no uniform draw lands on it.
    a = np.array([[0.0, 0.0], [1.0, 2.0], [0.0, 0.0], [3.0, -1.0], [0.5, 0.5]])
    sy = LinearSystem(DenseMatrix(a), RealVector(a @ np.array([1.0, -2.0])))
    stepper = Stepper(sy, SolverConfig("kaczmarz", seed=11))
    x = RealVector(np.zeros(2))
    picked = set()
    for _ in range(10_000):
        x, _, i = stepper.step(x)
        picked.add(i)
    assert picked == {1, 3, 4}


def test_kaczmarz_all_zero_rows_rejected():
    # The zero-row failure every method reports, not a usage error, at the
    # first draw: building the stepper reads no sampling table.
    sy = LinearSystem(DenseMatrix(np.zeros((3, 2))), RealVector([0.0] * 3))
    stepper = Stepper(sy, SolverConfig("kaczmarz"))
    with pytest.raises(ZeroRowError, match="all rows of A are zero"):
        stepper.step(RealVector([0.0, 0.0]))


# ||a_0||^2 = 1e-16 is under the gate 1e-14 * max ||a_i||^2.  A uniform of
# 0.0 lands on row 0, one in (0, 0.5) on row 1 and one in [0.5, 1) on row 2.
NEAR_ZERO_ROW_SYSTEM = LinearSystem(
    DenseMatrix([[1e-8, 0.0], [1.0, 0.0], [0.0, 1.0]]),
    RealVector([1e-8, 1.0, 2.0]),
)


def script_uniforms(monkeypatch, values):
    """Make every stream the solvers start a stand-in whose random(k)
    returns the next k of values, then 0.9 forever."""
    it = itertools.chain(values, itertools.repeat(0.9))
    gen = SimpleNamespace(random=lambda k: np.array([next(it) for _ in range(k)]))
    monkeypatch.setattr(solvers, "RngState", lambda seed: SimpleNamespace(gen=gen))


def test_kaczmarz_near_zero_row_is_reselected_once(monkeypatch):
    # The first uniform (0.0) lands on row 0, the reselection (0.75) on row 2.
    script_uniforms(monkeypatch, [0.0, 0.75])
    x1, _, i = Stepper(NEAR_ZERO_ROW_SYSTEM, SolverConfig("kaczmarz")).step(RealVector([0.0, 0.0]))
    assert i == 2
    assert x1.a.tolist() == [0.0, 2.0]


# ----------------------------------------------------------------- motzkin

def test_motzkin_identity_system_solves_in_dimension_steps():
    b = np.array([3.0, -1.0, 2.0, 0.0, 5.0])
    sy = LinearSystem(DenseMatrix(np.eye(5)), RealVector(b), RealVector(b))
    stepper = Stepper(sy, SolverConfig("motzkin"))
    x = RealVector(np.zeros(5))
    for _ in range(5):
        x, _, _ = stepper.step(x)
    assert np.array_equal(x.a, b)


def test_motzkin_zero_residual_returns_unchanged():
    x1, _, _ = Stepper(INTEGER_SYSTEM, SolverConfig("motzkin")).step(INTEGER_SYSTEM.x_star)
    assert np.array_equal(x1.a, INTEGER_SYSTEM.x_star.a)


def test_motzkin_trajectory_matches_reference_loop():
    gen = np.random.default_rng(8)
    a = gen.standard_normal((20, 4))
    x_star = gen.standard_normal(4)
    sy = LinearSystem(DenseMatrix(a), RealVector(a @ x_star), RealVector(x_star))
    stepper = Stepper(sy, SolverConfig("motzkin"))
    x = RealVector(np.zeros(4))
    for _ in range(10):
        x, _, _ = stepper.step(x)
    want = reference_max_residual_iteration(a, a @ x_star, np.zeros(4), 10)
    assert np.max(np.abs(x.a - want)) <= 1e-10 * max(1.0, np.max(np.abs(want)))


def test_motzkin_zero_selected_row_raises():
    sy = LinearSystem(
        DenseMatrix([[1.0, 0.0], [0.0, 0.0]]), RealVector([1.0, 5.0])
    )
    with pytest.raises(ZeroRowError):
        Stepper(sy, SolverConfig("motzkin")).step(RealVector([0.0, 0.0]))


# ---------------------------------------------------------------- sketched

def test_skm_full_block_equals_motzkin():
    sy = make_system(8, 3, seed=9)
    x = RealVector(np.zeros(3))
    got, _, i = Stepper(sy, SolverConfig("skm", s=8, seed=5)).step(x)
    want, _, j = Stepper(sy, SolverConfig("motzkin")).step(x)
    assert i == j
    assert np.array_equal(got.a, want.a)


def test_sketched_solution_is_fixed_point():
    x_star = INTEGER_SYSTEM.x_star
    # Block rows are rows of A, so integer arithmetic keeps this exact.
    x1, _, _ = Stepper(INTEGER_SYSTEM, SolverConfig("skm", s=2, seed=3)).step(x_star)
    assert np.array_equal(x1.a, x_star.a)
    # Dense factors mix rows, so exactness is only up to roundoff.
    for method in ("gsm", "sgsm"):
        x1, _, _ = Stepper(INTEGER_SYSTEM, SolverConfig(method, s=2, seed=3)).step(x_star)
        assert np.max(np.abs(x1.a - x_star.a)) <= 1e-12


def test_sparse_step_matches_materialized_oracle():
    sy = make_system(15, 4, seed=10)
    x = RealVector(np.random.default_rng(2).standard_normal(4))
    got, sk, chosen = Stepper(sy, SolverConfig("sgsm", s=3, seed=11)).step(x)
    full = np.zeros((15, 3))
    full[sk.shift:sk.shift + 3, :] = sk.factor.a
    m_arr = full.T @ sy.A.a
    r_arr = full.T @ sy.b.a
    i = scan_max_index(m_arr, r_arr, x.a)
    assert i == chosen
    row = m_arr[i]
    want = x.a + (r_arr[i] - row @ x.a) / (row @ row) * row
    assert np.max(np.abs(got.a - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


def test_sketched_provenance_is_replayable():
    sy = make_system(12, 3, seed=12)
    x = RealVector(np.random.default_rng(3).standard_normal(3))
    got, sk, i = Stepper(sy, SolverConfig("gsm", s=4, seed=13)).step(x)
    assert np.array_equal(sk.M.a, sk.factor.a.T @ sy.A.a)
    replay = project_row(x, sk.M.a[i], float(sk.r.a[i]))
    assert np.array_equal(got.a, replay.a)


def test_gsm_step_matches_materialized_oracle_in_law():
    # The gsm step draws only the winning sketch column, from its law given
    # the residual.  At a fixed x, its one-step squared-error drops must
    # follow the law of the materialized path (full m-by-s sketch, then
    # max-residual row, then projection).  Two-sample Kolmogorov-Smirnov
    # statistic over 10^4 draws a side, against the 0.1% critical value
    # 1.95 * sqrt(2 / 10^4) = 0.028.
    sy = make_system(30, 5, seed=81)
    x = RealVector(np.random.default_rng(4).standard_normal(5))
    e0 = x.a - sy.x_star.a
    draws = 10_000

    def drop(x1):
        e1 = x1.a - sy.x_star.a
        return float(e0 @ e0 - e1 @ e1)

    stepper = Stepper(sy, SolverConfig("gsm", s=4, seed=5))
    conditional = [drop(stepper.step(x)[0]) for _ in range(draws)]
    rng = RngState(6)
    materialized = []
    for _ in range(draws):
        sk = gaussian_sketch(sy, 4, rng)
        i = select_max_residual(sk.M, sk.r, x)
        materialized.append(drop(project_row(x, sk.M.a[i], float(sk.r.a[i]))))
    a, b = np.sort(conditional), np.sort(materialized)
    grid = np.concatenate([a, b])
    ks = np.max(np.abs(np.searchsorted(a, grid, side="right") - np.searchsorted(b, grid, side="right"))) / draws
    assert ks <= 0.028


def test_gsm_step_never_materializes_the_sketch():
    # At m = 1000, s = 2000 a materialized m-by-s sketch alone is 16 MB.
    m, s = 1000, 2000
    sy = make_system(m, 20, seed=82)
    x = RealVector(np.zeros(20))
    tracemalloc.start()
    try:
        Stepper(sy, SolverConfig("gsm", s=s)).step(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * 8 * m * s


def test_gsm_step_draws_u_then_the_winning_column():
    # Per attempt: s normals u pick the winner j* = argmax u_j^2, then m
    # normals g give its column u_j* rhat + (g - (g . rhat) rhat).
    sy = make_system(12, 3, seed=83)
    x = RealVector(np.random.default_rng(5).standard_normal(3))
    _, sk, i = Stepper(sy, SolverConfig("gsm", s=6, seed=17)).step(x)
    gen = RngState(17).gen
    u = gen.standard_normal(6)
    g = gen.standard_normal(12)
    res = sy.A.a @ x.a - sy.b.a
    rhat = res / np.linalg.norm(res)
    want = u[np.argmax(u * u)] * rhat + (g - (g @ rhat) * rhat)
    column = sk.factor.a
    assert column.shape == (12, 1) and i == 0
    assert np.allclose(column[:, 0], want, rtol=0.0, atol=1e-12 * np.max(np.abs(want)))


def test_gsm_step_zero_residual_and_zero_rows():
    # A zero residual leaves x untouched; a zero sketched row is resampled
    # once and then raises.
    x_star = INTEGER_SYSTEM.x_star
    x1, _, _ = Stepper(INTEGER_SYSTEM, SolverConfig("gsm", s=3, seed=3)).step(x_star)
    assert np.array_equal(x1.a, x_star.a)
    zero = LinearSystem(DenseMatrix(np.zeros((3, 2))), RealVector([1.0, 1.0, 1.0]))
    with pytest.raises(ZeroRowError, match="resample"):
        Stepper(zero, SolverConfig("gsm", s=3)).step(RealVector(np.zeros(2)))


def test_sketched_validation():
    sy = make_system(6, 2, seed=15)
    with pytest.raises(InputError):
        Stepper(sy, SolverConfig("skm", s=7))


def test_step_validation():
    # A stepper makes run's own (method, s, m) check: a known method and an
    # integer s >= 1 (SolverConfig), at most m for skm and sgsm (Stepper).
    sy = make_system(6, 2, seed=16)
    x = RealVector(np.zeros(2))
    Stepper(sy, SolverConfig("skm", s=1)).step(x)
    Stepper(sy, SolverConfig("gsm", s=7)).step(x)  # a Gaussian sketch may exceed m
    Stepper(sy, SolverConfig("motzkin")).step(x)
    for method, s, match in [("fourier", 2, "unknown method"), ("skm", 0, "at least 1"),
                             ("kaczmarz", 0, "at least 1"), ("skm", 2.5, "must be an integer"),
                             ("skm", 7, "exceeds row count"), ("sgsm", 7, "exceeds row count")]:
        with pytest.raises(InputError, match=match):
            Stepper(sy, SolverConfig(method, s=s))


ZERO_BLOCK_SYSTEM = LinearSystem(
    DenseMatrix([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
    RealVector([1.0, 1.0, 1.0, 1.0]),
)


def predict_block_draws(seed, n_blocks, count):
    gen = RngState(seed).gen
    return [int(gen.integers(n_blocks)) for _ in range(count)]


def test_sketched_zero_row_resample_then_succeed():
    # First draw hits the all-zero block, the resample hits the good one.
    seed = next(
        s for s in range(200) if predict_block_draws(s, 2, 2) == [0, 1]
    )
    x = RealVector(np.zeros(2))
    x1, sk, _ = Stepper(ZERO_BLOCK_SYSTEM, SolverConfig("skm", s=2, seed=seed)).step(x)
    assert sk.z == 1
    assert not np.array_equal(x1.a, x.a)


def test_sketched_zero_row_twice_raises():
    seed = next(
        s for s in range(200) if predict_block_draws(s, 2, 2) == [0, 0]
    )
    with pytest.raises(ZeroRowError, match="resample"):
        Stepper(ZERO_BLOCK_SYSTEM, SolverConfig("skm", s=2, seed=seed)).step(RealVector(np.zeros(2)))


# ---------------------------------------------------------- step geometry

METHOD_NAMES = ("kaczmarz", "motzkin", "skm", "gsm", "sgsm")


def test_step_orthogonality_and_pythagoras():
    # The update moves orthogonally to the projected row, and the squared
    # error drops by exactly the squared scaled residual of that row.
    gen = np.random.default_rng(40)
    for method in METHOD_NAMES:
        sy = make_system(30, 5, seed=int(gen.integers(1_000)))
        stepper = Stepper(sy, SolverConfig(method, s=4, seed=41))
        xs = sy.x_star.a
        for _ in range(8):
            x0 = RealVector(gen.standard_normal(5))
            x1, row, beta = step_row_and_beta(stepper, x0)
            row_norm = math.sqrt(float(row @ row))
            err0 = x0.a - xs
            err1 = x1.a - xs
            scale = row_norm * math.sqrt(float(err0 @ err0))
            assert abs(float(row @ err1)) <= 1e-8 * scale
            t = float(row @ x0.a) - beta
            drop = t * t / float(row @ row)
            got = float(err1 @ err1)
            want = float(err0 @ err0) - drop
            assert abs(got - want) <= 1e-8 * float(err0 @ err0)


def test_selected_row_maximizes_decrease_on_equal_norm_rows():
    # With unit-norm rows the squared-residual argmax is also the argmax
    # of error decrease, so no other row of the sketch can beat it.
    gen = np.random.default_rng(50)
    a = gen.standard_normal((20, 4))
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    x_star = gen.standard_normal(4)
    sy = LinearSystem(DenseMatrix(a), RealVector(a @ x_star), RealVector(x_star))
    for s in (1, 2, 4, 5, 10, 20):
        stepper = Stepper(sy, SolverConfig("skm", s=s, seed=51))
        for _ in range(5):
            x0 = RealVector(gen.standard_normal(4))
            _, sk, i = stepper.step(x0)
            t = sk.M.a @ x0.a - sk.r.a
            norms = np.einsum("ij,ij->i", sk.M.a, sk.M.a)
            decreases = t * t / norms
            chosen = decreases[i]
            assert np.all(decreases <= chosen + 1e-12 * max(1.0, chosen))


def test_step_error_never_increases():
    gen = np.random.default_rng(60)
    for method in METHOD_NAMES:
        sy = make_system(25, 4, seed=int(gen.integers(1_000)))
        stepper = Stepper(sy, SolverConfig(method, s=4, seed=61))
        xs = sy.x_star.a
        x = RealVector(gen.standard_normal(4))
        err = float((x.a - xs) @ (x.a - xs))
        slack = 1e-10 * err
        for _ in range(30):
            x, _, _ = step_row_and_beta(stepper, x)
            nxt = float((x.a - xs) @ (x.a - xs))
            assert nxt <= err + slack
            err = nxt


def test_step_sketch_replays_every_method():
    # project_row onto row i of the drawn system reproduces every method's
    # step bit for bit; for kaczmarz and motzkin that system is A itself,
    # not a copy.
    sy = make_system(30, 5, seed=84)
    for method in METHOD_NAMES:
        stepper = Stepper(sy, SolverConfig(method, s=4, seed=19))
        x = RealVector(np.random.default_rng(6).standard_normal(5))
        for _ in range(10):
            x1, sketch, i = stepper.step(x)
            assert np.array_equal(project_row(x, sketch.M.a[i], sketch.r.a[i]).a, x1.a), method
            whole = method in ("kaczmarz", "motzkin")
            assert (sketch.M is sy.A, sketch.r is sy.b) == (whole, whole), method
            if whole:
                assert (sketch.z, sketch.shift, sketch.factor) == (None, 0, None)
            x = x1


# --------------------------------------------------------------- run loop

def test_run_zero_rhs_converges_immediately():
    sy = LinearSystem(DenseMatrix(np.eye(3)), RealVector(np.zeros(3)), RealVector(np.zeros(3)))
    x, trace = run(sy, SolverConfig("motzkin", tol=1e-8))
    assert trace.status == CONVERGED
    assert trace.final.iter == 0
    assert np.all(x.a == 0.0)
    # An all-zero A has no Kaczmarz sampling table, but b = 0 stops the run first.
    zero = LinearSystem(DenseMatrix(np.zeros((3, 2))), RealVector(np.zeros(3)))
    for method in METHOD_NAMES:
        _, trace = run(zero, SolverConfig(method, s=2))
        assert trace.status == CONVERGED and trace.final.iter == 0, method


def test_run_identity_motzkin_converges_in_dimension_steps():
    b = np.array([3.0, -1.0, 2.0, 0.5, 5.0])
    sy = LinearSystem(DenseMatrix(np.eye(5)), RealVector(b), RealVector(b))
    x, trace = run(sy, SolverConfig("motzkin", tol=1e-12, max_iters=100))
    assert trace.status == CONVERGED
    assert trace.final.iter <= 5
    assert np.max(np.abs(x.a - b)) <= 1e-12


def test_run_starting_at_solution_stops_at_zero_iterations():
    sy = make_system(20, 4, seed=70)
    _, trace = run(sy, SolverConfig("gsm", s=3, tol=1e-8), x0=sy.x_star)
    assert trace.status == CONVERGED and trace.final.iter == 0


def test_run_converges_for_every_method():
    sy = make_system(60, 6, seed=71)
    for method in METHOD_NAMES:
        x, trace = run(
            sy, SolverConfig(method, s=5, tol=1e-9, max_iters=20_000, seed=7, record_error=True)
        )
        assert trace.status == CONVERGED, method
        assert np.max(np.abs(x.a - sy.x_star.a)) <= 1e-6
        errors = [r.error_sq for r in trace.records]
        assert errors[-1] <= errors[0]


def test_run_reaches_trailing_rows_for_every_method():
    # m = 11, s = 2: only row 10 carries e_2, so a block law that never
    # draws the trailing row leaves x_2 at 0 forever.
    a = np.vstack([np.tile([1.0, 0.0], (10, 1)), [0.0, 1.0]])
    x_star = np.array([1.0, 2.0])
    sy = LinearSystem(DenseMatrix(a), RealVector(a @ x_star), RealVector(x_star))
    for method in METHOD_NAMES:
        x, trace = run(sy, SolverConfig(method, s=2, tol=1e-10, max_iters=5000))
        assert trace.status == CONVERGED, method
        assert np.max(np.abs(x.a - x_star)) <= 1e-8, method


def test_run_matches_manual_step_composition():
    # run() is bit for bit the iteration of the public stepper: stepping a
    # Stepper(system, config) by hand from x0 gives run(system, config,
    # x0)'s iterates, from a zero and a nonzero start.  The run crosses two
    # chunk refills of the kaczmarz and skm draws.  On coherent rows no
    # method reaches a zero residual that soon, so every run goes the
    # whole way.  motzkin and gsm read back the residual the trace recorded
    # at an iterate, so the run is checked with every step recorded and
    # with a thinned schedule (dense to 5, then every 7th), where they
    # select at recorded and unrecorded iterates alike; each record holds
    # what a fresh computation at the hand-stepped iterate gives, bit for bit.
    sy = generate_system(ModelSpec("coherent", 24, 5, 72))
    steps = 2 * solvers._CHUNK + 37
    starts = (np.zeros(5), np.random.default_rng(72).standard_normal(5))
    schedules = ({}, {"record_dense_limit": 5, "record_stride": 7})
    for method, start in itertools.product(METHOD_NAMES, starts):
        stepper = Stepper(sy, SolverConfig(method, s=4, seed=99))
        iterates = [RealVector(start)]
        for _ in range(steps):
            iterates.append(stepper.step(iterates[-1])[0])
        for schedule in schedules:
            cfg = SolverConfig(method, s=4, tol=0.0, max_iters=steps, seed=99, record_error=True, **schedule)
            got, trace = run(sy, cfg, x0=RealVector(start))
            assert trace.status == MAX_ITERS
            assert np.array_equal(got.a, iterates[-1].a), (method, schedule)
            dense, stride = cfg.record_dense_limit, cfg.record_stride
            want = [k for k in range(steps + 1) if k <= dense or k % stride == 0 or k == steps]
            assert [rec.iter for rec in trace.records] == want
            for rec in trace.records:
                x = iterates[rec.iter].a
                d = x - sy.x_star.a
                assert rec.residual_norm == float(np.linalg.norm(sy.A.a @ x - sy.b.a)), (method, rec.iter)
                assert rec.error_sq == float(d @ d), (method, rec.iter)


def zero_block_fault(draws):
    """The step at which skm:2 on ZERO_BLOCK_SYSTEM draws its all-zero block
    0 twice, given the block draws, and the stream positions of the draws
    its reselections started at."""
    pos, starts = 0, []
    for k in itertools.count(1):
        if draws[pos] == 1:
            pos += 1
        elif draws[pos + 1] == 1:
            starts.append(pos)
            pos += 2
        else:
            return k, starts


def test_run_matches_step_composition_across_reselections(monkeypatch):
    # With chunks of 3, reselections fall inside a chunk and across a
    # refill; each must take the next draw of the stream, the draw that
    # one-at-a-time predictions (predict_block_draws, a scripted stream)
    # say it takes, in run() and in a stepper alike.
    monkeypatch.setattr(solvers, "_CHUNK", 3)
    # skm: find a seed whose reselections start at a mid-chunk draw and at
    # a chunk's last draw before block 0 comes twice, at step `fault`.
    for seed in range(1000):
        fault, starts = zero_block_fault(predict_block_draws(seed, 2, 200))
        if fault > 4 and {p % 3 for p in starts} >= {0, 2}:
            break
    else:
        pytest.fail("no seed in range reselects both inside a chunk and across a refill")
    stepper, x = Stepper(ZERO_BLOCK_SYSTEM, SolverConfig("skm", s=2, seed=seed)), RealVector(np.zeros(2))
    for _ in range(fault - 1):
        x, _, _ = stepper.step(x)
    with pytest.raises(ZeroRowError):
        stepper.step(x)
    got, _ = run(ZERO_BLOCK_SYSTEM, SolverConfig("skm", s=2, tol=0.0, max_iters=fault - 1, seed=seed))
    assert np.array_equal(got.a, x.a)
    with pytest.raises(ZeroRowError, match=f"iteration {fault}:"):
        run(ZERO_BLOCK_SYSTEM, SolverConfig("skm", s=2, tol=0.0, max_iters=fault, seed=seed))
    # kaczmarz: step 2 reselects within the first chunk (draws 1, 2) and
    # step 5 across the refill (draws 5, 6), where row 1 completes the solve.
    # A run that dropped the rest of a chunk at a reselection would reach
    # that row one step early.
    uniforms = [0.9, 0.0, 0.9, 0.9, 0.9, 0.0, 0.3]
    script_uniforms(monkeypatch, uniforms)
    got, trace = run(NEAR_ZERO_ROW_SYSTEM, SolverConfig("kaczmarz", tol=0.0, max_iters=50))
    assert (trace.status, trace.final.iter) == (CONVERGED, 5)
    script_uniforms(monkeypatch, uniforms)
    stepper, x = Stepper(NEAR_ZERO_ROW_SYSTEM, SolverConfig("kaczmarz")), RealVector(np.zeros(2))
    for _ in range(5):
        x, _, _ = stepper.step(x)
    assert np.array_equal(got.a, x.a) and x.a.tolist() == [1.0, 2.0]


def test_run_trace_thinning_schedule():
    sy = make_system(30, 3, seed=73)
    cfg = SolverConfig("kaczmarz", tol=0.0, max_iters=120, record_dense_limit=50, record_stride=10)
    _, trace = run(sy, cfg)
    iters = [r.iter for r in trace.records]
    assert iters == list(range(51)) + [60, 70, 80, 90, 100, 110, 120]


def test_run_final_iteration_always_recorded():
    sy = make_system(30, 3, seed=74)
    cfg = SolverConfig("kaczmarz", tol=0.0, max_iters=55, record_dense_limit=50, record_stride=10)
    _, trace = run(sy, cfg)
    assert [r.iter for r in trace.records][-3:] == [49, 50, 55]


def test_run_error_stop_halts_on_squared_error():
    sy = make_system(80, 5, seed=75)
    err0 = float(sy.x_star.a @ sy.x_star.a)
    cfg = SolverConfig(
        "gsm", s=8, tol=0.0, max_iters=50_000, record_error=True, error_stop=1e-4 * err0
    )
    _, trace = run(sy, cfg)
    assert trace.status == CONVERGED
    assert trace.final.error_sq <= 1e-4 * err0


def test_run_reruns_identically_except_elapsed():
    sy = make_system(40, 4, seed=76)
    cfg = SolverConfig("sgsm", s=4, tol=1e-9, max_iters=5_000, seed=5, record_error=True)
    x1, t1 = run(sy, cfg)
    x2, t2 = run(sy, cfg)
    assert np.array_equal(x1.a, x2.a)
    assert [(r.iter, r.error_sq, r.residual_norm) for r in t1.records] == [
        (r.iter, r.error_sq, r.residual_norm) for r in t2.records
    ]


def test_run_gaussian_sketch_midsize_trace_shape():
    # A converged Gaussian-sketch run must show strict per-record error
    # decrease, and the trajectory must be a pure function of the seed.
    sy = make_system(200, 20, seed=11)
    cfg = SolverConfig("gsm", s=10, tol=1e-8, max_iters=50_000, seed=7, record_error=True)
    x1, t1 = run(sy, cfg)
    assert t1.status == CONVERGED
    errors = [r.error_sq for r in t1.records]
    assert all(later < earlier for earlier, later in zip(errors, errors[1:]))
    x2, t2 = run(sy, cfg)
    assert np.array_equal(x1.a, x2.a)
    assert [(r.iter, r.error_sq, r.residual_norm) for r in t1.records] == [
        (r.iter, r.error_sq, r.residual_norm) for r in t2.records
    ]


def test_run_seed_changes_trajectory():
    sy = make_system(40, 4, seed=77)
    x1, _ = run(sy, SolverConfig("kaczmarz", tol=0.0, max_iters=50, seed=1))
    x2, _ = run(sy, SolverConfig("kaczmarz", tol=0.0, max_iters=50, seed=2))
    assert not np.array_equal(x1.a, x2.a)


def test_run_zero_row_error_names_iteration():
    seed = next(s for s in range(200) if predict_block_draws(s, 2, 2) == [0, 0])
    with pytest.raises(ZeroRowError, match="iteration 1"):
        run(ZERO_BLOCK_SYSTEM, SolverConfig("skm", s=2, tol=0.0, max_iters=10, seed=seed))


SCALING_BASE = generate_system(ModelSpec("gaussian", 200, 20, 0))


@functools.cache
def unscaled_run(method, tol):
    return run(SCALING_BASE, SolverConfig(method, s=10, tol=tol, max_iters=1000, record_error=True))


@pytest.mark.parametrize("method", METHOD_NAMES)
@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(k=st.integers(-30, 30), tol=st.sampled_from([0.0, 1e-8]))
@example(k=-30, tol=1e-8)
@example(k=30, tol=1e-8)
def test_run_is_invariant_under_power_of_two_scaling(method, k, tol):
    # Scaling (A, b) by 2^k is exact in floating point and leaves x* fixed,
    # so any difference in the iterates, or in where the run stops, is a
    # threshold in the wrong units (at tol 1e-8 kaczmarz stops at 785 for
    # every k; the rule tol * (1 + ||b||) stopped it at 74 for k = -30).
    x_base, t_base = unscaled_run(method, tol)
    scale = 2.0 ** k
    scaled = LinearSystem(DenseMatrix(scale * SCALING_BASE.A.a), RealVector(scale * SCALING_BASE.b.a),
                          SCALING_BASE.x_star)
    x, trace = run(scaled, SolverConfig(method, s=10, tol=tol, max_iters=1000, record_error=True))
    assert np.array_equal(x.a, x_base.a)
    assert (trace.status, trace.final.iter) == (t_base.status, t_base.final.iter)
    assert [r.error_sq for r in trace.records] == [r.error_sq for r in t_base.records]


@pytest.mark.parametrize("method", METHOD_NAMES)
def test_run_near_solution_completes(method):
    # Started 1e-15 from x*, the error only moves at roundoff level, and
    # that is no reason to throw the finished run away.
    sy = generate_system(ModelSpec("gaussian", 200, 20, 0))
    x0 = RealVector(sy.x_star.a + 1e-15 * np.ones(20) / math.sqrt(20))
    _, trace = run(sy, SolverConfig(method, s=10, tol=0.0, max_iters=300, record_error=True), x0=x0)
    assert trace.status == MAX_ITERS and trace.final.iter == 300


@pytest.mark.parametrize("method", ["kaczmarz", "motzkin"])
def test_error_rise_on_near_consistent_input_is_numerical(method):
    # b is off A x* by 1e-11, inside the consistency slack, so the first
    # step from x* moves away from it: a numerical event, not bad input.
    a = INTEGER_SYSTEM.A.a
    sy = LinearSystem(INTEGER_SYSTEM.A, RealVector(a @ INTEGER_SYSTEM.x_star.a + [0.0, 0.0, 1e-11]),
                      INTEGER_SYSTEM.x_star)
    with pytest.raises(NumericalError, match="squared error increased at iteration 1"):
        run(sy, SolverConfig(method, tol=0.0, max_iters=50, record_error=True), x0=sy.x_star)


def test_run_validation_errors():
    sy = make_system(10, 2, seed=78, planted=False)
    with pytest.raises(InputError):
        run(sy, SolverConfig("motzkin", record_error=True))
    with pytest.raises(InputError):
        run(sy, SolverConfig("skm", s=11))
    # The sketch is checked before iteration 0, even for a run that would stop there.
    solved = make_system(10, 2, seed=78)
    with pytest.raises(InputError):
        run(solved, SolverConfig("skm", s=11), x0=solved.x_star)
    with pytest.raises(InputError):
        run(sy, SolverConfig("motzkin"), x0=RealVector([1.0, 2.0, 3.0]))


def test_solver_config_validation():
    with pytest.raises(InputError):
        SolverConfig("newton")
    with pytest.raises(InputError):
        SolverConfig("gsm", s=0)
    with pytest.raises(InputError):
        SolverConfig("gsm", max_iters=0)
    with pytest.raises(InputError):
        SolverConfig("gsm", tol=-1.0)
    with pytest.raises(InputError):
        SolverConfig("gsm", record_stride=0)
    with pytest.raises(InputError):
        SolverConfig("gsm", error_stop=1.0)
    # The seed range is RngState's, checked when the config is built.
    for seed in (-1, 2**64):
        with pytest.raises(InputError, match="seed must be a 64-bit unsigned integer"):
            SolverConfig("gsm", seed=seed)
    assert SolverConfig("gsm", seed=2**64 - 1).seed == 2**64 - 1


def test_integer_arguments_are_checked(tmp_path):
    sy = make_system(10, 2, seed=80)
    with pytest.raises(InputError, match="seed must be an integer"):
        RngState(2.5)
    for build in (block_sketch, gaussian_sketch, sparse_gaussian_sketch):
        with pytest.raises(InputError, match="sketch size must be an integer"):
            build(sy, 2.5, RngState(0))
    with pytest.raises(InputError, match="sketch size must be an integer"):
        Stepper(sy, SolverConfig("skm", s=2.5))
    for field in ("s", "seed", "max_iters", "record_dense_limit", "record_stride"):
        with pytest.raises(InputError, match="must be an integer, got 2.5"):
            SolverConfig("sgsm", **{field: 2.5})
    for m, n in ((10.0, 2), ("10", 2), (10, 2.0)):
        with pytest.raises(InputError, match="must be an integer"):
            ModelSpec("gaussian", m, n)
    path = tmp_path / "a.csv"
    path.write_text("1,2,3\n4,5,6\n7,8,9\n")
    for kwargs in ({"target_column": 2.0}, {"skip_rows": 0.5}, {"skip_rows": "1"}):
        with pytest.raises(InputError, match="must be an integer"):
            load_csv_matrix(path, **kwargs)
    # numpy integers are integers.
    assert RngState(np.uint64(3)).gen.random() == RngState(3).gen.random()
    config = SolverConfig("sgsm", s=np.int64(2), max_iters=np.int32(4), record_stride=np.int64(2))
    assert run(sy, config)[1].final.iter == 4
    assert generate_system(ModelSpec("gaussian", np.int64(10), np.int32(2))).A.rows == 10
    assert load_csv_matrix(path, skip_rows=np.int64(1), target_column=np.int64(2)).b.a.tolist() == [6.0, 9.0]


def test_real_arguments_are_checked():
    # A non-numeric real is a usage error, a numeric string included.
    for kwargs, name in (({"tol": None}, "tol"), ({"tol": "1e-8"}, "tol"),
                         ({"record_error": True, "error_stop": "0.1"}, "error_stop")):
        with pytest.raises(InputError, match=f"{name} must be a real number"):
            SolverConfig("motzkin", **kwargs)
    with pytest.raises(InputError, match="beta must be a real number"):
        project_row([0.0, 0.0], [1.0, 0.0], "1")
    # numpy reals and integers are reals.
    config = SolverConfig("motzkin", tol=np.float32(0.5), record_error=True, error_stop=np.int64(0))
    assert run(make_system(10, 2, seed=81), config)[1].status == CONVERGED
    assert project_row([0.0, 0.0], [1.0, 0.0], np.float64(2.0)).a.tolist() == [2.0, 0.0]


def test_linear_system_validation():
    with pytest.raises(InputError):
        LinearSystem(DenseMatrix(np.ones((2, 3))), RealVector([1.0, 2.0]))
    with pytest.raises(InputError):
        LinearSystem(DenseMatrix(np.eye(3)), RealVector([1.0, 2.0]))
    with pytest.raises(InputError):
        LinearSystem(DenseMatrix(np.eye(2)), RealVector([1.0, 1.0]), RealVector([5.0, 5.0]))
    # Relative gap 0.30 at a tiny scale: the slack is relative to ||b||.
    tiny = 2.0**-40
    with pytest.raises(InputError, match="not a solution"):
        LinearSystem(INTEGER_SYSTEM.A, RealVector(tiny * np.array([1.0, 1.0, 3.0])), RealVector([tiny, tiny]))


@pytest.mark.parametrize("scale, refused", [
    (1e155, "overflows a double"),  # ||b|| is inf, so the stopping threshold would be inf
    (1.5 * 2.0**-537, "is subnormal"),  # ||a_i||^2 subnormal: projections go wrong silently
    (1e150, None),
    (2.0**-500, None),
], ids=["overflow", "subnormal", "1e150", "2^-500"])
def test_linear_system_refuses_squares_outside_double_range(scale, refused):
    a = scale * np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    x_star = np.array([1.0, 2.0])
    if refused:
        with pytest.raises(InputError, match=refused):
            LinearSystem(DenseMatrix(a), RealVector(a @ x_star), RealVector(x_star))
        return
    sy = LinearSystem(DenseMatrix(a), RealVector(a @ x_star), RealVector(x_star))
    for method in METHOD_NAMES:
        x, _ = run(sy, SolverConfig(method, s=2, tol=0.0, max_iters=300, seed=1))
        assert np.max(np.abs(x.a - x_star)) <= 1e-10, method


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(k=st.integers(-30, 30))
@example(k=-30)
@example(k=30)
def test_planted_solution_check_is_scale_free(k):
    # b off A x* by 1e-11 ||b|| is consistent and by 1e-9 ||b|| is not, at
    # every scale: scaling (A, b) by 2^k scales the gap and ||b|| exactly.
    # (The slack 1e-10 (1 + ||b||) accepted the 1e-9 gap at k = -30.)
    a, b, x_star = SCALING_BASE.A.a, SCALING_BASE.b.a, SCALING_BASE.x_star
    scale = 2.0**k
    direction = np.ones(len(b)) / math.sqrt(len(b))
    for rel_gap, consistent in ((1e-11, True), (1e-9, False)):
        b_off = scale * (b + rel_gap * float(np.linalg.norm(b)) * direction)
        if consistent:
            LinearSystem(DenseMatrix(scale * a), RealVector(b_off), x_star)
        else:
            with pytest.raises(InputError, match="not a solution"):
                LinearSystem(DenseMatrix(scale * a), RealVector(b_off), x_star)


# ------------------------------------------------------------------ traces

def test_trace_rejects_disorder_and_error_increase(monkeypatch):
    rec = lambda k, e: TraceRecord(k, e, 1.0, 0)
    with pytest.raises(InputError):
        RunTrace((), CONVERGED)
    with pytest.raises(InputError):
        RunTrace((rec(0, 4.0), rec(0, 3.0)), CONVERGED)
    with pytest.raises(InputError):
        RunTrace((rec(0, 1.0),), "running")
    # The error check lives in run, which knows x*: a step that moves away
    # from x* is rejected there.
    sy = make_system(12, 3, seed=79)
    xs = sy.x_star.a
    monkeypatch.setattr(solvers, "_step", lambda select, xa, gate: (2.0 * xa - xs, None, 0))
    with pytest.raises(NumericalError, match="squared error increased at iteration 1"):
        run(sy, SolverConfig("kaczmarz", tol=0.0, max_iters=5, record_error=True))


def test_contraction_halving():
    rec = lambda k, e: TraceRecord(k, e, 1.0, 0)
    trace = RunTrace((rec(0, 4.0), rec(1, 2.0), rec(2, 1.0)), MAX_ITERS)
    assert contraction_summary(trace) == pytest.approx(0.5, rel=1e-12)


def test_contraction_flat_is_one():
    rec = lambda k, e: TraceRecord(k, e, 1.0, 0)
    trace = RunTrace((rec(0, 5.0), rec(4, 5.0)), MAX_ITERS)
    assert contraction_summary(trace) == pytest.approx(1.0, rel=1e-12)


def test_contraction_weights_thinned_gaps():
    rec = lambda k, e: TraceRecord(k, e, 1.0, 0)
    trace = RunTrace((rec(0, 100.0), rec(10, 1.0), rec(20, 0.01)), MAX_ITERS)
    assert contraction_summary(trace) == pytest.approx((1e-4) ** (1 / 20), rel=1e-12)


def test_contraction_zero_final_error():
    rec = lambda k, e: TraceRecord(k, e, 1.0, 0)
    trace = RunTrace((rec(0, 1.0), rec(2, 0.0)), CONVERGED)
    assert contraction_summary(trace) == 0.0


def test_contraction_matches_pairwise_recomputation():
    sy = make_system(50, 5, seed=80)
    _, trace = run(sy, SolverConfig("gsm", s=6, tol=0.0, max_iters=300, record_error=True))
    got = contraction_summary(trace)
    recs = [r for r in trace.records if r.error_sq is not None]
    acc = 0.0
    for prev, cur in zip(recs, recs[1:]):
        acc += math.log(cur.error_sq / prev.error_sq)
    want = math.exp(acc / (recs[-1].iter - recs[0].iter))
    assert got == pytest.approx(want, rel=1e-12)


def test_contraction_error_cases():
    rec = lambda k, e: TraceRecord(k, e, 1.0, 0)
    with pytest.raises(InputError):
        contraction_summary(RunTrace((rec(0, 1.0),), MAX_ITERS))
    with pytest.raises(InputError):
        contraction_summary(
            RunTrace((TraceRecord(0, None, 1.0, 0), TraceRecord(1, None, 1.0, 0)), MAX_ITERS)
        )
    with pytest.raises(InputError):
        contraction_summary(RunTrace((rec(0, 0.0), rec(1, 0.0)), MAX_ITERS))
