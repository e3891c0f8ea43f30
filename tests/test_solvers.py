"""Projection-step and run-loop tests.

Reference values come from independent re-derivations: a brute-force scan
for row selection, a per-row Python loop re-implementing the max-residual
iteration, and closed-form projections on integer-valued systems (where
the arithmetic is exact, so unchanged iterates can be compared bitwise).
"""

import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from sketchsolve import solvers
from sketchsolve import (
    CONVERGED,
    MAX_ITERS,
    DenseMatrix,
    InputError,
    LinearSystem,
    ModelSpec,
    RealVector,
    RngState,
    RunTrace,
    SketchSpec,
    SolverConfig,
    TraceRecord,
    ZeroRowError,
    block_sketch,
    contraction_summary,
    gaussian_sketch,
    generate_system,
    kaczmarz_step,
    motzkin_step,
    project_row,
    run,
    select_max_residual,
    sketched_motzkin_step,
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


def step_row_and_beta(system, method, x, rng, s=4):
    """Run one step of `method`, returning (x1, row projected on, beta).

    The row comes back as a plain array."""
    if method == "kaczmarz":
        x1, i = kaczmarz_step(system, x, rng)
        return x1, system.A.row(i), float(system.b.a[i])
    if method == "motzkin":
        x1, i = motzkin_step(system, x)
        return x1, system.A.row(i), float(system.b.a[i])
    kind = {"skm": "block", "gsm": "gaussian", "sgsm": "sparse"}[method]
    x1, prov = sketched_motzkin_step(system, SketchSpec(kind, s), x, rng)
    sk = prov.sketched
    return x1, sk.M.row(prov.chosen), float(sk.r.a[prov.chosen])


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
    rng = RngState(0)
    x_star = INTEGER_SYSTEM.x_star
    for _ in range(20):
        x1, _ = kaczmarz_step(INTEGER_SYSTEM, x_star, rng)
        assert np.array_equal(x1.a, x_star.a)


def test_kaczmarz_single_row_solves_exactly():
    sy = LinearSystem(DenseMatrix([[2.0]]), RealVector([6.0]))
    x1, i = kaczmarz_step(sy, RealVector([0.0]), RngState(1))
    assert i == 0
    assert x1.a.tolist() == [3.0]


def test_kaczmarz_forced_selection_projects_correctly():
    # Find a seed whose first weighted draw picks the (1,1) row, then the
    # projection from the origin lands on the exact solution.
    for seed in range(100):
        x1, i = kaczmarz_step(INTEGER_SYSTEM, RealVector([0.0, 0.0]), RngState(seed))
        if i == 2:
            assert x1.a.tolist() == [1.0, 1.0]
            break
    else:
        pytest.fail("no seed in range selected the heavy row")


def test_kaczmarz_selection_tracks_row_weights():
    sy = make_system(12, 3, seed=6)
    weights = np.einsum("ij,ij->i", sy.A.a, sy.A.a)
    probs = weights / weights.sum()
    rng = RngState(77)
    counts = np.zeros(12)
    x = RealVector(np.zeros(3))
    for _ in range(20_000):
        x, i = kaczmarz_step(sy, x, rng)
        counts[i] += 1
    assert np.max(np.abs(counts / 20_000 - probs)) <= 0.03


def test_kaczmarz_never_samples_zero_rows():
    # A zero row carries no sampling mass: its cumulative weight equals
    # the previous row's, so no uniform draw lands on it.
    a = np.array([[0.0, 0.0], [1.0, 2.0], [0.0, 0.0], [3.0, -1.0], [0.5, 0.5]])
    sy = LinearSystem(DenseMatrix(a), RealVector(a @ np.array([1.0, -2.0])))
    rng = RngState(11)
    x = RealVector(np.zeros(2))
    picked = set()
    for _ in range(10_000):
        x, i = kaczmarz_step(sy, x, rng)
        picked.add(i)
    assert picked == {1, 3, 4}


def test_kaczmarz_all_zero_rows_rejected():
    sy = LinearSystem(DenseMatrix(np.zeros((3, 2))), RealVector([0.0] * 3))
    with pytest.raises(InputError):
        kaczmarz_step(sy, RealVector([0.0, 0.0]), RngState(0))


def test_kaczmarz_near_zero_row_is_reselected_once():
    # ||a_0||^2 = 1e-16 is under the gate 1e-14 * max ||a_i||^2: the first
    # uniform (0.0) lands on row 0, the reselection (0.75) on row 2.
    a = np.array([[1e-8, 0.0], [1.0, 0.0], [0.0, 1.0]])
    sy = LinearSystem(DenseMatrix(a), RealVector(a @ np.array([1.0, 2.0])))
    uniforms = iter([0.0, 0.75])
    rng = RngState(0)
    rng.gen = SimpleNamespace(random=lambda: next(uniforms))
    x1, i = kaczmarz_step(sy, RealVector([0.0, 0.0]), rng)
    assert i == 2
    assert x1.a.tolist() == [0.0, 2.0]


# ----------------------------------------------------------------- motzkin

def test_motzkin_identity_system_solves_in_dimension_steps():
    b = np.array([3.0, -1.0, 2.0, 0.0, 5.0])
    sy = LinearSystem(DenseMatrix(np.eye(5)), RealVector(b), RealVector(b))
    x = RealVector(np.zeros(5))
    for _ in range(5):
        x, _ = motzkin_step(sy, x)
    assert np.array_equal(x.a, b)


def test_motzkin_zero_residual_returns_unchanged():
    x1, _ = motzkin_step(INTEGER_SYSTEM, INTEGER_SYSTEM.x_star)
    assert np.array_equal(x1.a, INTEGER_SYSTEM.x_star.a)


def test_motzkin_trajectory_matches_reference_loop():
    gen = np.random.default_rng(8)
    a = gen.standard_normal((20, 4))
    x_star = gen.standard_normal(4)
    sy = LinearSystem(DenseMatrix(a), RealVector(a @ x_star), RealVector(x_star))
    x = RealVector(np.zeros(4))
    for _ in range(10):
        x, _ = motzkin_step(sy, x)
    want = reference_max_residual_iteration(a, a @ x_star, np.zeros(4), 10)
    assert np.max(np.abs(x.a - want)) <= 1e-10 * max(1.0, np.max(np.abs(want)))


def test_motzkin_zero_selected_row_raises():
    sy = LinearSystem(
        DenseMatrix([[1.0, 0.0], [0.0, 0.0]]), RealVector([1.0, 5.0])
    )
    with pytest.raises(ZeroRowError):
        motzkin_step(sy, RealVector([0.0, 0.0]))


# ---------------------------------------------------------------- sketched

def test_skm_full_block_equals_motzkin():
    sy = make_system(8, 3, seed=9)
    x = RealVector(np.zeros(3))
    got, prov = sketched_motzkin_step(sy, SketchSpec("block", 8), x, RngState(5))
    want, i = motzkin_step(sy, x)
    assert prov.chosen == i
    assert np.array_equal(got.a, want.a)


def test_sketched_solution_is_fixed_point():
    x_star = INTEGER_SYSTEM.x_star
    # Block rows are rows of A, so integer arithmetic keeps this exact.
    x1, _ = sketched_motzkin_step(INTEGER_SYSTEM, SketchSpec("block", 2), x_star, RngState(3))
    assert np.array_equal(x1.a, x_star.a)
    # Dense factors mix rows, so exactness is only up to roundoff.
    for kind in ("gaussian", "sparse"):
        x1, _ = sketched_motzkin_step(INTEGER_SYSTEM, SketchSpec(kind, 2), x_star, RngState(3))
        assert np.max(np.abs(x1.a - x_star.a)) <= 1e-12


def test_sparse_step_matches_materialized_oracle():
    sy = make_system(15, 4, seed=10)
    x = RealVector(np.random.default_rng(2).standard_normal(4))
    got, prov = sketched_motzkin_step(sy, SketchSpec("sparse", 3), x, RngState(11))
    sk = prov.sketched
    full = np.zeros((15, 3))
    full[sk.provenance.shift:sk.provenance.shift + 3, :] = sk.provenance.factor.a
    m_arr = full.T @ sy.A.a
    r_arr = full.T @ sy.b.a
    i = scan_max_index(m_arr, r_arr, x.a)
    assert i == prov.chosen
    row = m_arr[i]
    want = x.a + (r_arr[i] - row @ x.a) / (row @ row) * row
    assert np.max(np.abs(got.a - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


def test_sketched_provenance_is_replayable():
    sy = make_system(12, 3, seed=12)
    x = RealVector(np.random.default_rng(3).standard_normal(3))
    got, prov = sketched_motzkin_step(sy, SketchSpec("gaussian", 4), x, RngState(13))
    sk = prov.sketched
    assert np.array_equal(sk.M.a, sk.provenance.factor.a.T @ sy.A.a)
    replay = project_row(x, sk.M.row(prov.chosen), float(sk.r.a[prov.chosen]))
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

    rng = RngState(5)
    conditional = [drop(sketched_motzkin_step(sy, SketchSpec("gaussian", 4), x, rng)[0]) for _ in range(draws)]
    rng = RngState(6)
    materialized = []
    for _ in range(draws):
        sk = gaussian_sketch(sy, 4, rng)
        i = select_max_residual(sk.M, sk.r, x)
        materialized.append(drop(project_row(x, sk.M.row(i), float(sk.r.a[i]))))
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
        sketched_motzkin_step(sy, SketchSpec("gaussian", s), x, RngState(0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * 8 * m * s


def test_gsm_step_draws_u_then_the_winning_column():
    # Per attempt: s normals u pick the winner j* = argmax u_j^2, then m
    # normals g give its column u_j* rhat + (g - (g . rhat) rhat).
    sy = make_system(12, 3, seed=83)
    x = RealVector(np.random.default_rng(5).standard_normal(3))
    _, prov = sketched_motzkin_step(sy, SketchSpec("gaussian", 6), x, RngState(17))
    gen = RngState(17).gen
    u = gen.standard_normal(6)
    g = gen.standard_normal(12)
    res = sy.A.a @ x.a - sy.b.a
    rhat = res / np.linalg.norm(res)
    want = u[np.argmax(u * u)] * rhat + (g - (g @ rhat) * rhat)
    column = prov.sketched.provenance.factor.a
    assert column.shape == (12, 1) and prov.chosen == 0
    assert np.allclose(column[:, 0], want, rtol=0.0, atol=1e-12 * np.max(np.abs(want)))


def test_gsm_step_zero_residual_and_zero_rows():
    # A zero residual leaves x untouched; a zero sketched row is resampled
    # once and then raises.
    x_star = INTEGER_SYSTEM.x_star
    x1, _ = sketched_motzkin_step(INTEGER_SYSTEM, SketchSpec("gaussian", 3), x_star, RngState(3))
    assert np.array_equal(x1.a, x_star.a)
    zero = LinearSystem(DenseMatrix(np.zeros((3, 2))), RealVector([1.0, 1.0, 1.0]))
    with pytest.raises(ZeroRowError, match="resample"):
        sketched_motzkin_step(zero, SketchSpec("gaussian", 3), RealVector(np.zeros(2)), RngState(0))


def test_sketched_validation():
    sy = make_system(6, 2, seed=15)
    x = RealVector(np.zeros(2))
    with pytest.raises(InputError):
        sketched_motzkin_step(sy, SketchSpec("block", 7), x, RngState(0))


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
    x1, prov = sketched_motzkin_step(ZERO_BLOCK_SYSTEM, SketchSpec("block", 2), x, RngState(seed))
    assert prov.sketched.provenance.z == 1
    assert not np.array_equal(x1.a, x.a)


def test_sketched_zero_row_twice_raises():
    seed = next(
        s for s in range(200) if predict_block_draws(s, 2, 2) == [0, 0]
    )
    with pytest.raises(ZeroRowError, match="resample"):
        sketched_motzkin_step(
            ZERO_BLOCK_SYSTEM, SketchSpec("block", 2), RealVector(np.zeros(2)), RngState(seed)
        )


# ---------------------------------------------------------- step geometry

METHOD_NAMES = ("kaczmarz", "motzkin", "skm", "gsm", "sgsm")


def test_step_orthogonality_and_pythagoras():
    # The update moves orthogonally to the projected row, and the squared
    # error drops by exactly the squared scaled residual of that row.
    gen = np.random.default_rng(40)
    rng = RngState(41)
    for method in METHOD_NAMES:
        sy = make_system(30, 5, seed=int(gen.integers(1_000)))
        xs = sy.x_star.a
        for _ in range(8):
            x0 = RealVector(gen.standard_normal(5))
            x1, row, beta = step_row_and_beta(sy, method, x0, rng)
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
    rng = RngState(51)
    for s in (1, 2, 4, 5, 10, 20):
        for _ in range(5):
            x0 = RealVector(gen.standard_normal(4))
            _, prov = sketched_motzkin_step(sy, SketchSpec("block", s), x0, rng)
            sk = prov.sketched
            t = sk.M.a @ x0.a - sk.r.a
            norms = np.einsum("ij,ij->i", sk.M.a, sk.M.a)
            decreases = t * t / norms
            chosen = decreases[prov.chosen]
            assert np.all(decreases <= chosen + 1e-12 * max(1.0, chosen))


def test_step_error_never_increases():
    gen = np.random.default_rng(60)
    rng = RngState(61)
    for method in METHOD_NAMES:
        sy = make_system(25, 4, seed=int(gen.integers(1_000)))
        xs = sy.x_star.a
        x = RealVector(gen.standard_normal(4))
        err = float((x.a - xs) @ (x.a - xs))
        slack = 1e-10 * err
        for _ in range(30):
            x, _, _ = step_row_and_beta(sy, method, x, rng)
            nxt = float((x.a - xs) @ (x.a - xs))
            assert nxt <= err + slack
            err = nxt


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
    # The run loop and the public single-step API must consume the random
    # stream identically and produce bitwise-equal iterates.
    sy = make_system(24, 5, seed=72)
    steps = 30
    for method in METHOD_NAMES:
        cfg = SolverConfig(method, s=4, tol=0.0, max_iters=steps, seed=99)
        got, trace = run(sy, cfg)
        assert trace.status == MAX_ITERS
        rng = RngState(99)
        x = RealVector(np.zeros(5))
        for _ in range(steps):
            if method == "kaczmarz":
                x, _ = kaczmarz_step(sy, x, rng)
            elif method == "motzkin":
                x, _ = motzkin_step(sy, x)
            else:
                kind = {"skm": "block", "gsm": "gaussian", "sgsm": "sparse"}[method]
                x, _ = sketched_motzkin_step(sy, SketchSpec(kind, 4), x, rng)
        assert np.array_equal(got.a, x.a), method


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


@pytest.mark.parametrize("method", METHOD_NAMES)
def test_run_is_invariant_under_power_of_two_scaling(method):
    # Scaling (A, b) by 2^k is exact in floating point and leaves x* fixed,
    # so any difference in the iterates is a threshold in the wrong units.
    base = generate_system(ModelSpec("gaussian", 200, 20, 0))
    config = SolverConfig(method, s=10, tol=0.0, max_iters=300, record_error=True)
    x_base, t_base = run(base, config)
    for k in (-30, -10, 10, 30):
        scale = 2.0 ** k
        scaled = LinearSystem(DenseMatrix(scale * base.A.a), RealVector(scale * base.b.a), base.x_star)
        x, trace = run(scaled, config)
        assert np.array_equal(x.a, x_base.a), k
        assert [r.error_sq for r in trace.records] == [r.error_sq for r in t_base.records], k


@pytest.mark.parametrize("method", METHOD_NAMES)
def test_run_near_solution_completes(method):
    # Started 1e-15 from x*, the error only moves at roundoff level, and
    # that is no reason to throw the finished run away.
    sy = generate_system(ModelSpec("gaussian", 200, 20, 0))
    x0 = RealVector(sy.x_star.a + 1e-15 * np.ones(20) / math.sqrt(20))
    _, trace = run(sy, SolverConfig(method, s=10, tol=0.0, max_iters=300, record_error=True), x0=x0)
    assert trace.status == MAX_ITERS and trace.final.iter == 300


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


def test_integer_arguments_are_checked():
    sy = make_system(10, 2, seed=80)
    with pytest.raises(InputError, match="seed must be an integer"):
        RngState(2.5)
    for build in (block_sketch, gaussian_sketch, sparse_gaussian_sketch):
        with pytest.raises(InputError, match="sketch size must be an integer"):
            build(sy, 2.5, RngState(0))
    with pytest.raises(InputError):
        SketchSpec("block", 2.5)
    for field in ("s", "seed", "max_iters", "record_dense_limit", "record_stride"):
        with pytest.raises(InputError, match="must be an integer, got 2.5"):
            SolverConfig("sgsm", **{field: 2.5})
    # numpy integers are integers.
    assert RngState(np.uint64(3)).gen.random() == RngState(3).gen.random()
    config = SolverConfig("sgsm", s=np.int64(2), max_iters=np.int32(4), record_stride=np.int64(2))
    assert run(sy, config)[1].final.iter == 4


def test_linear_system_validation():
    with pytest.raises(InputError):
        LinearSystem(DenseMatrix(np.ones((2, 3))), RealVector([1.0, 2.0]))
    with pytest.raises(InputError):
        LinearSystem(DenseMatrix(np.eye(3)), RealVector([1.0, 2.0]))
    with pytest.raises(InputError):
        LinearSystem(DenseMatrix(np.eye(2)), RealVector([1.0, 1.0]), RealVector([5.0, 5.0]))


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
    with pytest.raises(InputError, match="squared error increased at iteration 1"):
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
