"""Projection-step and run-loop tests.

Reference values come from independent re-derivations: a brute-force scan
for row selection, a per-row Python loop re-implementing the max-residual
iteration, and closed-form projections on integer-valued systems (where
the arithmetic is exact, so unchanged iterates can be compared bitwise).
"""

import dataclasses
import functools
import itertools
import math
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sketchsolve import sketch, solvers
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
    SketchedSystem,
    SolverConfig,
    Stepper,
    TraceRecord,
    ZeroRowError,
    block_sketch,
    contraction_summary,
    dynamic_range,
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


def residual_window(sy, x):
    """The documented gap between a factored record and ||A x - b||:
    RESIDUAL_WINDOW * (||A||_F ||x|| + ||b||)."""
    fro = math.sqrt(float(sy.row_norms_sq.sum()))
    return solvers.RESIDUAL_WINDOW * (fro * float(np.linalg.norm(x)) + sy.b_norm)


def exact_residual_sq(sy, x) -> Fraction:
    """||A x - b||^2 in exact arithmetic.  A double is an integer over a
    power of two, so over one denominator per array (A, x, b) the residual
    is a vector of integers."""

    def integers(values):
        ratios = [v.as_integer_ratio() for v in values]
        den = max(q for _, q in ratios)
        return [p * (den // q) for p, q in ratios], den

    (a, da), (xs, dx), (bs, db) = (integers(v.ravel().tolist()) for v in (sy.A.a, x, sy.b.a))
    n = len(xs)
    total = 0
    for i, beta in enumerate(bs):
        t = sum(map(int.__mul__, a[i * n:(i + 1) * n], xs)) * db - beta * da * dx
        total += t * t
    return Fraction(total, (da * dx * db) ** 2)


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


def row_index(system, row):
    """The index i of a step's row when it is the view A[i] of system's A."""
    i, offset = divmod(row.ctypes.data - system.A.a.ctypes.data, system.A.a.strides[0])
    assert offset == 0 and 0 <= i < system.A.rows and row.base is not None
    return i


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
    x1, row, _ = Stepper(sy, SolverConfig("kaczmarz", seed=1)).step(RealVector([0.0]))
    assert row_index(sy, row) == 0
    assert x1.a.tolist() == [3.0]


def test_kaczmarz_forced_selection_projects_correctly():
    # Find a seed whose first weighted draw picks the (1,1) row, then the
    # projection from the origin lands on the exact solution.
    for seed in range(100):
        x1, row, _ = Stepper(INTEGER_SYSTEM, SolverConfig("kaczmarz", seed=seed)).step(RealVector([0.0, 0.0]))
        if row_index(INTEGER_SYSTEM, row) == 2:
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
        x, row, _ = stepper.step(x)
        counts[row_index(sy, row)] += 1
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
        x, row, _ = stepper.step(x)
        picked.add(row_index(sy, row))
    assert picked == {1, 3, 4}


def test_kaczmarz_all_zero_rows_rejected():
    # The zero-row failure every method reports, not a usage error, at the
    # first draw: building the stepper reads no sampling table.
    sy = LinearSystem(DenseMatrix(np.zeros((3, 2))), RealVector([0.0] * 3))
    stepper = Stepper(sy, SolverConfig("kaczmarz"))
    # A failed draw leaves the stepper usable: the next call fails the same way.
    for _ in range(2):
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
    x1, row, _ = Stepper(NEAR_ZERO_ROW_SYSTEM, SolverConfig("kaczmarz")).step(RealVector([0.0, 0.0]))
    assert row_index(NEAR_ZERO_ROW_SYSTEM, row) == 2
    assert x1.a.tolist() == [0.0, 2.0]


@pytest.mark.parametrize("chunk", [1, 2, 3, 1024])
def test_kaczmarz_steps_on_after_a_second_zero_row(monkeypatch, chunk):
    # Step 1 draws row 0 twice (0.0, 0.0) and raises; the fault drops no
    # draw, so the stepper, stepped again, takes the next scripted uniforms
    # (0.75 on row 2, then 0.25 on row 1), whichever chunk they sit in.
    monkeypatch.setattr(solvers, "_CHUNK", chunk)
    script_uniforms(monkeypatch, [0.0, 0.0, 0.75, 0.25])
    stepper, x = Stepper(NEAR_ZERO_ROW_SYSTEM, SolverConfig("kaczmarz")), RealVector([0.0, 0.0])
    with pytest.raises(ZeroRowError, match="after one resample"):
        stepper.step(x)
    rows = []
    for _ in range(2):
        x, row, _ = stepper.step(x)
        rows.append(row_index(NEAR_ZERO_ROW_SYSTEM, row))
    assert rows == [2, 1] and x.a.tolist() == [1.0, 2.0]


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


def test_motzkin_forms_the_residual_of_an_iterate_it_did_not_return():
    # The kept residual is keyed on the iterate the stepper returned last.
    # A stepper given any other iterate, even an equal copy, forms A x - b
    # directly, so its step is a fresh stepper's step bit for bit.
    sy = generate_system(ModelSpec("coherent", 40, 4, 7))
    stepper, x = Stepper(sy, SolverConfig("motzkin")), RealVector(np.zeros(4))
    for _ in range(100):
        x = stepper.step(x)[0]
    for y in (RealVector(np.random.default_rng(3).standard_normal(4)), RealVector(x.a.copy()), x.a.copy()):
        got, got_row, got_beta = stepper.step(y)
        want, want_row, want_beta = Stepper(sy, SolverConfig("motzkin")).step(y)
        assert np.array_equal(got.a, want.a)
        assert row_index(sy, got_row) == row_index(sy, want_row) and got_beta == want_beta


def test_motzkin_zero_row_error_drops_the_kept_residual():
    # A walk that raises part way has moved its kept residual past the
    # iterate it was given; it drops it, so a step from that iterate again
    # forms A x - b directly and matches a fresh stepper's step.  Coherent
    # 40x4 under a zero row 0 with b_0 at 1% of max |b|: motzkin from 0
    # steps onto the other rows until their residuals fall under |b_0|,
    # then selects row 0 and raises, at step 756.
    base = generate_system(ModelSpec("coherent", 40, 4, 7))
    b0 = 1e-2 * float(np.abs(base.b.a).max())
    sy = LinearSystem(DenseMatrix(np.vstack([np.zeros(4), base.A.a])), RealVector([b0, *base.b.a]))
    stepper, iterates = Stepper(sy, SolverConfig("motzkin")), [RealVector(np.zeros(4))]
    with pytest.raises(ZeroRowError):
        while True:
            iterates.append(stepper.step(iterates[-1])[0])
    assert len(iterates) == 756
    stepper, x = Stepper(sy, SolverConfig("motzkin")), iterates[0]
    for _ in range(len(iterates) - 4):
        x = stepper.step(x)[0]
    with pytest.raises(ZeroRowError):  # its fourth step selects row 0
        stepper._steps(x.a, None, 5)
    for y in (x, iterates[-2]):
        got = stepper.step(y)[0]
        assert np.array_equal(got.a, Stepper(sy, SolverConfig("motzkin")).step(y)[0].a)


@pytest.mark.parametrize("columns", [0, 3])
def test_motzkin_column_budget_moves_no_iterate(monkeypatch, columns):
    # The column budget only decides how the kept residual is updated: with
    # no columns (every step forms A x - b, the plain Motzkin step) or
    # room for only 3, coherent 1000x50 stops where the full budget does,
    # on the same iterates.
    sy = generate_system(ModelSpec("coherent", 1000, 50, 3))
    e0 = float(sy.x_star.a @ sy.x_star.a)
    cfg = SolverConfig("motzkin", tol=0.0, max_iters=20_000, record_error=True, error_stop=1e-6 * e0,
                       record_dense_limit=100, record_stride=10)
    want_x, want = run(sy, cfg)
    monkeypatch.setattr(solvers, "_COLUMN_BUDGET", columns * sy.A.rows)
    got_x, got = run(sy, cfg)
    assert want.status == got.status == CONVERGED
    assert np.array_equal(got_x.a, want_x.a)
    assert [r[:3] for r in got.records] == [r[:3] for r in want.records]


def test_motzkin_holds_at_most_its_column_budget(monkeypatch):
    # A walk caches columns A a_z (m doubles each) up to _COLUMN_BUDGET
    # doubles.  Coherent 2000x5 selects 7 rows thrice or more in 300 steps;
    # with room for 3 columns, what the walk keeps after its steps (the
    # residual, its square and the columns) stays under 5 m-vectors.
    m = 2000
    sy = generate_system(ModelSpec("coherent", m, 5, 3))
    monkeypatch.setattr(solvers, "_COLUMN_BUDGET", 3 * m)
    stepper = Stepper(sy, SolverConfig("motzkin"))
    tracemalloc.start()
    try:
        stepper._steps(np.zeros(5), None, 300)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 3 * 8 * m < kept < 5 * 8 * m + 4096


# ---------------------------------------------------------------- sketched

def test_skm_full_block_equals_motzkin():
    sy = make_system(8, 3, seed=9)
    x = RealVector(np.zeros(3))
    got, row, _ = Stepper(sy, SolverConfig("skm", s=8, seed=5)).step(x)
    want, want_row, _ = Stepper(sy, SolverConfig("motzkin")).step(x)
    assert row_index(sy, row) == row_index(sy, want_row)
    assert np.array_equal(got.a, want.a)


def test_sketched_solution_is_fixed_point():
    x_star = INTEGER_SYSTEM.x_star
    # Block rows are rows of A, and the sgsm:1 step projects onto row z of
    # A itself, so integer arithmetic keeps the zero residual exact.
    for method, s in (("skm", 2), ("sgsm", 1)):
        x1, _, _ = Stepper(INTEGER_SYSTEM, SolverConfig(method, s=s, seed=3)).step(x_star)
        assert np.array_equal(x1.a, x_star.a)
    # Dense factors mix rows, so exactness is only up to roundoff.
    for method in ("gsm", "sgsm"):
        x1, _, _ = Stepper(INTEGER_SYSTEM, SolverConfig(method, s=2, seed=3)).step(x_star)
        assert np.max(np.abs(x1.a - x_star.a)) <= 1e-12


@pytest.mark.parametrize("m, s, chunks", [(15, 3, None), (16, 3, None), (15, 1, None), (15, 1, (5, 7))],
                         ids=["15-3", "16-3", "15-1", "15-1-refills"])
def test_sparse_step_matches_materialized_oracle(monkeypatch, m, s, chunks):
    # The sgsm step draws its block indices _CHUNK at a time (as skm does),
    # then its s-by-s factors X a chunk at a time, and builds only the
    # winning row of X^T A_block.  Replaying those draws through the
    # materialized sketch picks the same row and takes the same step; the
    # step's row is w^T A_block, bit for bit, for the replayed block and
    # the winning column w of the replayed factor.  The twelve steps draw
    # some blocks twice (read back from the stepper's block table); at
    # m = 16 they draw the last block [13, 16), which overlaps its
    # neighbour.  At s = 1 the sketched row is the drawn row scaled by the
    # factor's one entry xi, whose hyperplane is the row's own, so the step
    # returns row z of A itself (a read-only view) and b_z, and projects
    # onto them.  With chunks (_CHUNK, _NORMALS) small, the steps cross
    # refills of both sources, interleaved.
    if chunks:
        monkeypatch.setattr(solvers, "_CHUNK", chunks[0])
        monkeypatch.setattr(sketch, "_NORMALS", chunks[1])
    per_chunk, per_fill = solvers._CHUNK, max(1, sketch._NORMALS // s**2)
    sy = make_system(m, 4, seed=10)
    x = RealVector(np.random.default_rng(2).standard_normal(4))
    stepper = Stepper(sy, SolverConfig("sgsm", s=s, seed=11))
    gen = RngState(11).gen
    for k in range(12):
        got, got_row, got_beta = stepper.step(x)
        # The step takes its block index, then its factor: each from its
        # chunk, refilled when used up.
        if k % per_chunk == 0:
            blocks = gen.integers(-(-m // s), size=per_chunk)
        if k % per_fill == 0:
            factors = gen.standard_normal((per_fill, s, s))
        shift = min(s * int(blocks[k % per_chunk]), m - s)
        X = factors[k % per_fill]
        m_arr = X.T @ sy.A.a[shift:shift + s]
        r_arr = X.T @ sy.b.a[shift:shift + s]
        i = scan_max_index(m_arr, r_arr, x.a)
        w = X[:, i]
        if s == 1:
            assert not got_row.flags.writeable and np.shares_memory(got_row, sy.A.a)
            assert np.array_equal(got_row, sy.A.a[shift]) and got_beta == float(sy.b.a[shift])
        else:
            assert np.array_equal(got_row, w.dot(sy.A.a[shift:shift + s]))
            assert got_beta == float(w.dot(sy.b.a[shift:shift + s]))
            assert np.allclose(got_row, m_arr[i], rtol=1e-13, atol=0.0)
            assert np.isclose(got_beta, r_arr[i], rtol=1e-13, atol=0.0)
        row = m_arr[i]
        want = x.a + (r_arr[i] - row @ x.a) / (row @ row) * row
        assert np.max(np.abs(got.a - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))
        x = got


# Row 2's ||a_2||^2 = 2.5e-15 is under the gate 1e-14 * max ||a_i||^2.
TINY_ROW_SYSTEM = LinearSystem(
    DenseMatrix([[1.0, 0.0], [0.0, 1.0], [5e-8, 0.0]]),
    RealVector([1.0, 2.0, 5e-8]),
)


def test_sgsm_s1_reselection_is_keyed_on_the_sketched_row(monkeypatch):
    # At s = 1 the sgsm step projects onto row z of A, but its zero-row
    # gate reads the sketched row xi a_z, as at s >= 2: a draw (z, xi) is
    # followed by a second one exactly when ||xi a_z||^2 <= gate, whatever
    # ||a_z||^2 is.  The draws are scripted, the factors through
    # _factor_fill; the second draw is (1, 1.0).  Around xi = 1e-7 on row
    # 0 the computed ||xi a_0||^2 crosses the gate.
    sy = TINY_ROW_SYSTEM
    gate = sy.zero_row_gate
    ladder = [1e-7]
    for _ in range(3):
        ladder = [math.nextafter(ladder[0], 0.0), *ladder, math.nextafter(ladder[-1], 1.0)]
    cases = [(0, 1e-8), (0, 2e-7), (2, 1.0), (2, 4.0), (2, -4.0), *((0, xi) for xi in ladder)]
    monkeypatch.setattr(solvers, "_CHUNK", 1)
    seen = set()
    for z, xi in cases:
        draws, zs, xis = [], iter([z, 1]), iter([xi, 1.0])

        def integers(high, size):
            draws.append("z")
            return np.array([next(zs)])

        def factor_fill(gen, s):
            draws.append("xi")
            return np.array([[[next(xis)]]])

        monkeypatch.setattr(solvers, "RngState", lambda seed: SimpleNamespace(gen=SimpleNamespace(integers=integers)))
        monkeypatch.setattr(solvers, "_factor_fill", factor_fill)
        x1 = Stepper(sy, SolverConfig("sgsm", s=1)).step(RealVector([0.0, 0.0]))[0]
        sketched = xi * sy.A.a[z]
        reselected = float(sketched.dot(sketched)) <= gate
        seen.add(reselected)
        assert draws == ["z", "xi"] * (2 if reselected else 1), (z, xi)
        i = 1 if reselected else z
        assert math.isclose(float(sy.A.a[i].dot(x1.a)), float(sy.b.a[i]), rel_tol=1e-12), (z, xi)
    assert seen == {True, False}


def test_sketched_provenance_is_replayable():
    sy = make_system(12, 3, seed=12)
    x = RealVector(np.random.default_rng(3).standard_normal(3))
    got, row, beta = Stepper(sy, SolverConfig("gsm", s=4, seed=13)).step(x)
    # The gsm step draws its row in the row space of [A b]: it returns the
    # row and its right-hand side, with no column of S behind it.
    assert (row.shape, type(beta)) == ((3,), float)
    replay = project_row(x, row, beta)
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
        materialized.append(drop(project_row(x, sk.M[i], float(sk.r[i]))))
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


def test_gsm_step_draws_u_then_the_winning_row():
    # Per attempt: s normals u pick the winner j* = argmax u_j^2, then n
    # normals z_A and one normal z_b give its row.  Replayed here in m
    # dimensions from a full QR A = Q R: g = Q z_A + q_b z_b, with q_b the
    # unit least-squares residual, has A^T g = R^T z_A and q_b.g = z_b, and
    # the winning column is u_j* rhat + (g - (g . rhat) rhat).  b is off
    # range(A), so the least-squares residual term is exercised too.
    gen = np.random.default_rng(83)
    a = gen.standard_normal((12, 3))
    b = a @ gen.standard_normal(3) + gen.standard_normal(12)
    sy = LinearSystem(DenseMatrix(a), RealVector(b))
    x = gen.standard_normal(3)
    _, row, beta = Stepper(sy, SolverConfig("gsm", s=6, seed=17)).step(RealVector(x))
    draws = RngState(17).gen
    u = draws.standard_normal(6)
    z_a = draws.standard_normal(3)
    z_b = draws.standard_normal()
    q, _ = np.linalg.qr(a)
    r_ls = b - q @ (q.T @ b)
    g = q @ z_a + r_ls / np.linalg.norm(r_ls) * z_b
    res = a @ x - b
    rhat = res / np.linalg.norm(res)
    w = u[np.argmax(u * u)] * rhat + (g - (g @ rhat) * rhat)
    want_row, want_beta = w @ a, w @ b
    assert np.allclose(row, want_row, rtol=0.0, atol=1e-12 * np.max(np.abs(want_row)))
    assert abs(beta - want_beta) <= 1e-12 * max(abs(want_beta), np.max(np.abs(want_row)))


@pytest.mark.parametrize("m, n, rank", [(30, 5, 5), (6, 6, 6), (30, 8, 3)], ids=["30x5", "6x6", "30x8-rank3"])
def test_gsm_step_matches_materialized_oracle_on_inconsistent_system(m, n, rank):
    # On an inconsistent system the residual never vanishes and the row
    # space of [A b] has a direction off range(A).  Here the least-squares
    # residual is most of ||A x - b||, so dropping any term that carries
    # it moves the law well past the bound.  Two more systems cover the
    # shapes a factored step could get wrong: a square one, whose QR
    # factor of [A b] has only n rows, and an inconsistent one of rank 3
    # in 8 columns.  At a fixed x, the squared residual after one gsm step
    # must follow the law of the materialized path (full m-by-s sketch,
    # then max-residual row, then projection).  Two-sample
    # Kolmogorov-Smirnov statistic over 10^4 draws a side, against the
    # 0.1% critical value 0.028.
    gen = np.random.default_rng(87)
    a = gen.standard_normal((m, rank))
    if rank < n:
        a = a @ gen.standard_normal((rank, n))
    sy = LinearSystem(DenseMatrix(a), RealVector(a @ gen.standard_normal(n) + 10.0 * gen.standard_normal(m)))
    x = RealVector(gen.standard_normal(n))
    draws = 10_000

    def res_sq(x1):
        r = sy.A.a @ x1.a - sy.b.a
        return float(r @ r)

    stepper = Stepper(sy, SolverConfig("gsm", s=4, seed=7))
    row_space = [res_sq(stepper.step(x)[0]) for _ in range(draws)]
    rng = RngState(8)
    materialized = []
    for _ in range(draws):
        sk = gaussian_sketch(sy, 4, rng)
        i = select_max_residual(sk.M, sk.r, x)
        materialized.append(res_sq(project_row(x, sk.M[i], float(sk.r[i]))))
    a, b = np.sort(row_space), np.sort(materialized)
    grid = np.concatenate([a, b])
    ks = np.max(np.abs(np.searchsorted(a, grid, side="right") - np.searchsorted(b, grid, side="right"))) / draws
    assert ks <= 0.028


def test_gsm_step_is_flat_in_m_and_its_factorization_lazy():
    # The gsm step works in the n + 1 dimensions of [A b]'s row space: at
    # m = 200,000, an m-vector is 1.6 MB, and neither the cached QR factor
    # of [A b] nor 50 steps may hold a quarter of one.  Steppers of the
    # other methods never compute the factor.
    m, n = 200_000, 5
    sy = make_system(m, n, seed=88)
    x = RealVector(np.random.default_rng(6).standard_normal(n))
    for method in ("kaczmarz", "motzkin", "skm", "sgsm"):
        Stepper(sy, SolverConfig(method, s=4)).step(x)
    assert "_residual_factor" not in vars(sy)
    tracemalloc.start()
    try:
        stepper = Stepper(sy, SolverConfig("gsm", s=4))
        kept = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        for _ in range(50):
            x = stepper.step(x)[0]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert "_residual_factor" in vars(sy)
    assert kept < 0.25 * 8 * m
    assert peak - base < 0.25 * 8 * m


@pytest.mark.parametrize("method", ["skm", "sgsm"])
def test_block_table_is_filled_lazily(method):
    # At s = 1 skm and sgsm keep no block table: their steps read row z of
    # A from the system's row views.  A table of every block would hold m
    # entries, about 300 bytes each: a stepper and a few steps must
    # allocate under a quarter of that.  The row views and the float
    # copies of b and the row norms (about 180 bytes a row) belong to the
    # system, made once for all its steppers, so they are made before the
    # count starts.
    m = 20_000
    sy = make_system(m, 2, seed=89)
    sy._row_floats
    tracemalloc.start()
    try:
        entries = [sketch._block(sy.A.a, sy.b.a, 1, z) for z in range(1000)]
        entry = tracemalloc.get_traced_memory()[0] / len(entries)
        del entries
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        stepper = Stepper(sy, SolverConfig(method, s=1))
        x = np.zeros(2)
        for _ in range(5):
            x = stepper.step(x)[0]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - base < 0.25 * m * entry


@pytest.mark.parametrize("method", ["skm", "sgsm"])
def test_block_table_holds_only_the_blocks_drawn(method, monkeypatch):
    # At s >= 2 skm and sgsm read block z's views from a table filled the
    # first time z is drawn: building a stepper makes no block, and its
    # steps make each block they draw once, in the order first drawn.
    m, s, steps = 200, 2, 60
    sy = make_system(m, 3, seed=91)
    made = []
    block = sketch._block
    monkeypatch.setattr(solvers, "_block", lambda *args: made.append(args[-1]) or block(*args))
    stepper = Stepper(sy, SolverConfig(method, s=s, seed=4))
    assert made == []
    x = np.zeros(3)
    for _ in range(steps):
        x = stepper.step(x)[0]
    # The block indices are the stream's first draws (no step reselects here).
    drawn = RngState(4).gen.integers(m // s, size=solvers._CHUNK).tolist()[:steps]
    assert made == list(dict.fromkeys(drawn))
    assert len(made) < steps  # a block drawn twice was made once


@pytest.mark.parametrize("method, s", [
    ("kaczmarz", 1), ("motzkin", 1), ("skm", 1), ("skm", 3), ("sgsm", 1), ("sgsm", 3), ("gsm", 3),
])
def test_steps_never_write_an_iterate_outside_the_walk(method, s):
    # Each walk updates an iterate of its own in place (solvers._walker).
    # The x0 given to run, the x given to a step, the writeable array run
    # hands a walk, and every iterate a step returned before must read the
    # same after later steps.
    sy = make_system(60, 4, seed=92)
    start = np.random.default_rng(7).standard_normal(4)
    cfg = SolverConfig(method, s=s, max_iters=40, tol=0.0, record_dense_limit=5, record_stride=7)
    stepper = Stepper(sy, cfg)
    for k in (1, 5):
        xa = start.copy()
        stepper._steps(xa, None, k)
        assert xa.tobytes() == start.tobytes()
    given = [start.copy(), RealVector(start)]
    for x0 in given:
        run(sy, cfg, x0)
    returned = [stepper.step(x0)[0] for x0 in given]
    for _ in range(30):
        returned.append(stepper.step(returned[-1])[0])
    kept = [x.a.tobytes() for x in returned]
    for _ in range(10):
        returned.append(stepper.step(returned[-1])[0])
    for x0 in given:
        assert getattr(x0, "a", x0).tobytes() == start.tobytes()
    assert [x.a.tobytes() for x in returned[:len(kept)]] == kept


def test_sgsm_step_never_forms_the_sketched_block():
    # At s = 100, n = 1000 the sketched block X^T A_block alone is
    # 800 KB; the factor X the step draws is 80 KB.
    m, n, s = 2000, 1000, 100
    sy = make_system(m, n, seed=86)
    x = RealVector(np.zeros(n))
    tracemalloc.start()
    try:
        Stepper(sy, SolverConfig("sgsm", s=s)).step(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * 8 * s * n


def test_gsm_step_zero_residual_and_zero_rows():
    # At x* the residual is zero, so the step moves x by roundoff only:
    # the gsm step measures the residual as R_A x - r_b from a QR of
    # [A b], which vanishes at x* to roundoff, not bit for bit.  A zero
    # sketched row is resampled once and then raises.
    x_star = INTEGER_SYSTEM.x_star
    x1, _, _ = Stepper(INTEGER_SYSTEM, SolverConfig("gsm", s=3, seed=3)).step(x_star)
    assert np.linalg.norm(x1.a - x_star.a) <= 1e-14 * np.linalg.norm(x_star.a)
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
    # First draw hits the all-zero block, the resample hits the good one:
    # the row projected on is a row of block 1 (rows 2 and 3).
    seed = next(
        s for s in range(200) if predict_block_draws(s, 2, 2) == [0, 1]
    )
    x = RealVector(np.zeros(2))
    x1, row, _ = Stepper(ZERO_BLOCK_SYSTEM, SolverConfig("skm", s=2, seed=seed)).step(x)
    assert row_index(ZERO_BLOCK_SYSTEM, row) in (2, 3)
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
            x1, row, beta = stepper.step(x0)
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
    # of error decrease, so no other row of the block can beat it.  The
    # skm blocks are replayed from the stepper's stream: its first draw is
    # a chunk of block indices.
    gen = np.random.default_rng(50)
    a = gen.standard_normal((20, 4))
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    x_star = gen.standard_normal(4)
    sy = LinearSystem(DenseMatrix(a), RealVector(a @ x_star), RealVector(x_star))
    for s in (1, 2, 4, 5, 10, 20):
        stepper = Stepper(sy, SolverConfig("skm", s=s, seed=51))
        blocks = RngState(51).gen.integers(-(-20 // s), size=solvers._CHUNK)
        for k in range(5):
            x0 = RealVector(gen.standard_normal(4))
            _, row, beta = stepper.step(x0)
            shift = min(s * int(blocks[k]), 20 - s)
            assert shift <= row_index(sy, row) < shift + s
            block, rhs = a[shift:shift + s], sy.b.a[shift:shift + s]
            t = block @ x0.a - rhs
            norms = np.einsum("ij,ij->i", block, block)
            decreases = t * t / norms
            chosen = (float(row @ x0.a) - beta) ** 2 / float(row @ row)
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
            x, _, _ = stepper.step(x)
            nxt = float((x.a - xs) @ (x.a - xs))
            assert nxt <= err + slack
            err = nxt


def assert_no_writeable_alias(sketch, sy):
    for arr in (sketch.M, sketch.r, sketch.factor):
        if arr is not None and arr.flags.writeable:
            assert not np.shares_memory(arr, sy.A.a) and not np.shares_memory(arr, sy.b.a)


def test_step_sketch_replays_every_method():
    # project_row onto the step's (row, beta) reproduces every method's
    # step bit for bit, and sgsm's at s = 1.  For kaczmarz, motzkin, skm
    # and sgsm at s = 1 the row is a read-only row of A, not a copy.  No
    # row is a writeable alias of A or b, and neither is any array of the
    # three materialized sketches.
    sy = make_system(30, 5, seed=84)
    for method, s in [(method, 4) for method in METHOD_NAMES] + [("sgsm", 1)]:
        stepper = Stepper(sy, SolverConfig(method, s=s, seed=19))
        x = RealVector(np.random.default_rng(6).standard_normal(5))
        for _ in range(10):
            x1, row, beta = stepper.step(x)
            assert type(beta) is float, method
            assert np.array_equal(project_row(x, row, beta).a, x1.a), method
            if method in ("kaczmarz", "motzkin", "skm") or s == 1:
                assert not row.flags.writeable, method
                assert np.array_equal(row, sy.A.a[row_index(sy, row)]), method
            elif row.flags.writeable:
                assert not np.shares_memory(row, sy.A.a) and not np.shares_memory(row, sy.b.a), method
            x = x1
    for build in (block_sketch, gaussian_sketch, sparse_gaussian_sketch):
        sketch = build(sy, 4, RngState(5))
        assert type(sketch) is SketchedSystem, build.__name__
        assert_no_writeable_alias(sketch, sy)


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
    # whole way.  The run is checked with every step recorded and with a
    # thinned schedule (dense to 5, then every 7th).  Each record's
    # error_sq is what a fresh computation at the hand-stepped iterate
    # gives, bit for bit; every method records ||A x - b|| from a QR of
    # [A b], within the documented window of the fresh value.  motzkin
    # keeps A x - b across steps and calls: it forms it directly at a
    # row's first selection and every m = 24 steps, and updates it from a
    # cached column A a_z in between, so its trajectory crosses each path
    # many times, under one step per call and under up to 7.
    sy = generate_system(ModelSpec("coherent", 24, 5, 72))
    steps = 2 * solvers._CHUNK + 37
    starts = (np.zeros(5), np.random.default_rng(72).standard_normal(5))
    schedules = ({}, {"record_dense_limit": 5, "record_stride": 7})
    for method, start in itertools.product(METHOD_NAMES, starts):
        stepper = Stepper(sy, SolverConfig(method, s=4, seed=99))
        iterates, rows = [RealVector(start)], []
        for _ in range(steps):
            x, row, _ = stepper.step(iterates[-1])
            iterates.append(x)
            rows.append(row)
        if method == "motzkin":
            assert len({row_index(sy, row) for row in rows}) < steps // sy.A.rows
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
                direct = float(np.linalg.norm(sy.A.a @ x - sy.b.a))
                assert abs(rec.residual_norm - direct) <= residual_window(sy, x), (method, rec.iter)
                assert rec.error_sq == float(d @ d), (method, rec.iter)


def tiny_row_coherent_system():
    """Coherent 40x4 (seed 7) under a row 0 of squared norm 2.5e-15,
    under the zero-row gate."""
    base = generate_system(ModelSpec("coherent", 40, 4, 7))
    tiny = np.array([5e-8, 0.0, 0.0, 0.0])
    return LinearSystem(DenseMatrix(np.vstack([tiny, base.A.a])), RealVector([tiny @ base.x_star.a, *base.b.a]),
                        base.x_star)


def test_run_matches_hand_stepping_across_refills_and_reselections(monkeypatch):
    # The s = 1 loops (kaczmarz, skm:1, sgsm:1) iterate their draws off
    # chunks and reselect in a branch of their own; run() must still be
    # bit for bit the hand-stepped Stepper.  Row 0 is under the zero-row
    # gate, and chunks of 3 indices or uniforms and 4 normals put refills
    # every few steps.  kaczmarz draws scripted uniforms: a 0.0 lands on
    # row 0 and is redrawn, three times at the end of a chunk, so the
    # redraw refills inside the step.  skm and sgsm draw row 0 about one
    # step in 41 and reselect while x is off its hyperplane.  Every fourth
    # sgsm xi is 1.3e-7, so xi^2 ||a_z||^2 lies between the gate and twice
    # it: the step projects onto xi a_z, a row outside A.  A second zero
    # row in a row would raise, at the same iteration in run() and by hand.
    monkeypatch.setattr(solvers, "_CHUNK", 3)
    monkeypatch.setattr(sketch, "_NORMALS", 4)

    def factor_fill(gen, s):
        X = sketch._factor_fill(gen, s)
        X[0] = 1.3e-7
        return X

    monkeypatch.setattr(solvers, "_factor_fill", factor_fill)
    sy = tiny_row_coherent_system()
    gate, banded = sy.zero_row_gate, 1.3e-7**2 * sy.row_norms_sq[1:]
    assert sy.row_norms_sq[0] <= gate < banded.min() and banded.max() <= 2 * gate
    steps = 400
    uniforms = np.random.default_rng(7).uniform(0.05, 1.0, steps + 10)
    uniforms[[2, 7, 11, 30, 92]] = 0.0  # uniforms 2, 11 and 92 end a chunk
    start = np.random.default_rng(8).standard_normal(4)
    for method in ("skm", "sgsm", "kaczmarz"):  # kaczmarz last: its streams stay scripted
        config = SolverConfig(method, s=1, tol=0.0, max_iters=steps, seed=13, record_error=True,
                              record_dense_limit=50, record_stride=9)
        if method == "kaczmarz":
            script_uniforms(monkeypatch, uniforms)
        stepper, iterates, rows, failed = Stepper(sy, config), [RealVector(start)], [], None
        try:
            for k in range(1, steps + 1):
                x, row, _ = stepper.step(iterates[-1])
                iterates.append(x)
                rows.append(row)
        except ZeroRowError:
            failed = k
        if method == "kaczmarz":
            script_uniforms(monkeypatch, uniforms)
        if failed is not None:
            with pytest.raises(ZeroRowError, match=f"^iteration {failed}: "):
                run(sy, config, x0=RealVector(start))
            continue
        got, trace = run(sy, config, x0=RealVector(start))
        assert np.array_equal(got.a, iterates[-1].a), method
        for rec in trace.records:
            d = iterates[rec.iter].a - sy.x_star.a
            assert rec.error_sq == float(d @ d), (method, rec.iter)
        outside = [not np.shares_memory(row, sy.A.a) for row in rows]
        assert any(outside) == (method == "sgsm"), method


def test_run_matches_hand_stepping_across_block_selects(monkeypatch):
    # skm and sgsm at s = 2 select in one shared way: draw a block index,
    # look up its block, then take the block's max-residual row of A (skm)
    # or its sparse sketch's winner (sgsm, after drawing its factor).  With
    # chunks of 3 indices and 3 factors, the steps cross refills of both
    # streams, interleaved, within run()'s k-step calls too.  Each sgsm
    # fill's last factor is scaled by 1e-9, which puts its sketched row
    # under the zero-row gate, so sgsm reselects, with a fresh block index
    # and the first factor of the next fill, about every other step.  run()
    # must be bit for bit the hand-stepped Stepper.
    monkeypatch.setattr(solvers, "_CHUNK", 3)
    monkeypatch.setattr(sketch, "_NORMALS", 12)

    def factor_fill(gen, s):
        X = sketch._factor_fill(gen, s)
        X[-1] *= 1e-9
        return X

    monkeypatch.setattr(solvers, "_factor_fill", factor_fill)
    sy = tiny_row_coherent_system()
    steps = 400
    start = np.random.default_rng(8).standard_normal(4)
    for method in ("skm", "sgsm"):
        config = SolverConfig(method, s=2, tol=0.0, max_iters=steps, seed=13, record_error=True,
                              record_dense_limit=50, record_stride=9)
        stepper, iterates = Stepper(sy, config), [RealVector(start)]
        for _ in range(steps):
            iterates.append(stepper.step(iterates[-1])[0])
        got, trace = run(sy, config, x0=RealVector(start))
        assert trace.status == MAX_ITERS
        assert np.array_equal(got.a, iterates[-1].a), method
        for rec in trace.records:
            d = iterates[rec.iter].a - sy.x_star.a
            assert rec.error_sq == float(d @ d), (method, rec.iter)


def accuracy_systems():
    """120x8 (A, b, x*) triples for the factored records: planted systems
    with kappa from 1e2 to 1e14, a rank-3 A, an inconsistent b (no x*) and
    b = 0."""
    gen = np.random.default_rng(91)
    m, n = 120, 8
    u = np.linalg.qr(gen.standard_normal((m, n)))[0]
    v = np.linalg.qr(gen.standard_normal((n, n)))[0]
    x_star = gen.standard_normal(n)
    cases = {}
    for kappa in (1e2, 1e6, 1e10, 1e14):
        a = (u * np.logspace(0.0, -math.log10(kappa), n)) @ v.T
        cases[f"kappa {kappa:g}"] = (a, a @ x_star, x_star)
    a = u[:, :3] @ gen.standard_normal((3, n))
    cases["rank 3"] = (a, a @ x_star, x_star)
    a = gen.standard_normal((m, n))
    cases["inconsistent"] = (a, gen.standard_normal(m), None)
    cases["b = 0"] = (a, np.zeros(m), np.zeros(n))
    return cases


@pytest.mark.parametrize("case", accuracy_systems())
@pytest.mark.parametrize("scale", [1.0, 2.0**300, 2.0**-300], ids=["1", "2^300", "2^-300"])
def test_factored_records_are_within_the_window_of_the_exact_residual(case, scale):
    # A record measures ||A x - b|| from a QR of [A b]; at every
    # record it is within RESIDUAL_WINDOW * (||A||_F ||x|| + ||b||) of the
    # exact residual of the iterate, whatever the conditioning, rank or
    # consistency of the system and at scales 2^+-300.  tol = 0 keeps every
    # run going to max_iters.
    a, b, x_star = accuracy_systems()[case]
    sy = LinearSystem(DenseMatrix(scale * a), RealVector(scale * b), None if x_star is None else RealVector(x_star))
    x0 = RealVector(np.random.default_rng(92).standard_normal(8))
    for method in ("kaczmarz", "motzkin", "skm", "gsm", "sgsm"):
        cfg = SolverConfig(method, s=4, tol=0.0, max_iters=200, seed=5, record_dense_limit=3, record_stride=25)
        _, trace = run(sy, cfg, x0)
        stepper, iterates = Stepper(sy, cfg), [x0]
        for _ in range(cfg.max_iters):
            iterates.append(stepper.step(iterates[-1])[0])
        for rec in trace.records:
            x = iterates[rec.iter].a
            got, window = Fraction(rec.residual_norm), Fraction(residual_window(sy, x))
            assert max(got - window, 0) ** 2 <= exact_residual_sq(sy, x) <= (got + window) ** 2, (method, rec.iter)


def direct_stop(sy, iterates, cfg):
    """(status, final iteration) that the stopping rule gives when every
    record point's ||A x - b|| is computed directly from the iterates."""
    threshold = cfg.tol * sy.b_norm
    last, dense, stride = cfg.max_iters, cfg.record_dense_limit, cfg.record_stride
    for k in range(last + 1):
        if (k <= dense or k % stride == 0 or k == last) and np.linalg.norm(sy.A.a @ iterates[k].a - sy.b.a) <= threshold:
            return CONVERGED, k
    return MAX_ITERS, last


@pytest.mark.parametrize("method", METHOD_NAMES)
def test_run_stops_where_the_direct_residual_does(method):
    # Every stop is decided on ||A x - b|| computed directly.  A threshold
    # placed on a record's direct residual, or an ulp of tol either side of
    # it, lies within roundoff of the factored value, which could fall on
    # either side of it; the run must still stop where the direct rule
    # applied to the hand-stepped iterates stops.
    sy = generate_system(ModelSpec("coherent", 60, 6, 74))
    base = SolverConfig(method, s=4, seed=3, max_iters=300, record_dense_limit=20, record_stride=10)
    stepper, iterates = Stepper(sy, base), [RealVector(np.zeros(6))]
    for _ in range(base.max_iters):
        iterates.append(stepper.step(iterates[-1])[0])
    for k in (1, 2, 5, 13, 20, 70, 150, 300):
        tol = float(np.linalg.norm(sy.A.a @ iterates[k].a - sy.b.a)) / sy.b_norm
        for t in (math.nextafter(tol, 0.0), tol, math.nextafter(tol, math.inf)):
            cfg = dataclasses.replace(base, tol=t)
            _, trace = run(sy, cfg)
            assert (trace.status, trace.final.iter) == direct_stop(sy, iterates, cfg), (k, t)


def test_run_with_tol_zero_stops_at_an_exactly_zero_residual():
    # With tol = 0 only a directly computed ||A x - b|| of exactly 0 stops a
    # run; the factored value at the same iterate is roundoff above 0.  On
    # orthogonal integer rows, kaczmarz, motzkin and skm reach x* exactly;
    # every method stops where the direct rule does.
    sy = LinearSystem(DenseMatrix([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]]), RealVector([3.0, 5.0, 3.0, 5.0]))
    for method in METHOD_NAMES:
        cfg = SolverConfig(method, s=2, tol=0.0, max_iters=40, seed=6)
        stepper, iterates = Stepper(sy, cfg), [RealVector(np.zeros(2))]
        for _ in range(cfg.max_iters):
            iterates.append(stepper.step(iterates[-1])[0])
        _, trace = run(sy, cfg)
        assert (trace.status, trace.final.iter) == direct_stop(sy, iterates, cfg), method
        if method in ("kaczmarz", "motzkin", "skm"):
            assert trace.status == CONVERGED and trace.final.residual_norm == 0.0, method


def test_records_qr_is_made_by_factored_runs_only():
    # kaczmarz, motzkin, skm and sgsm Steppers leave the records' QR
    # uncomputed; a gsm Stepper, which draws its row from it, and a run of
    # any method make it.
    sy = make_system(40, 4, seed=75)
    x = RealVector(np.ones(4))
    for method in ("kaczmarz", "motzkin", "skm", "sgsm"):
        Stepper(sy, SolverConfig(method, s=4)).step(x)
    assert "_residual_factor" not in vars(sy)
    Stepper(sy, SolverConfig("gsm", s=4))
    assert "_residual_factor" in vars(sy)
    for method in METHOD_NAMES:
        fresh = make_system(40, 4, seed=75)
        run(fresh, SolverConfig(method, s=4, max_iters=5))
        assert "_residual_factor" in vars(fresh), method


@pytest.mark.parametrize("method, s", [("kaczmarz", 1), ("skm", 7), ("gsm", 7)])
def test_run_does_not_depend_on_chunk_sizes(monkeypatch, method, s):
    # A stream with one kind of chunked draw is that of one draw per step,
    # so chunks of one draw (or one gsm attempt) give the default run bit
    # for bit, over more than one default chunk.  sgsm is left out: its
    # block-index chunks and factor chunks interleave in one stream, so its
    # stream depends on both sizes; tests/golden.json pins it.
    sy = generate_system(ModelSpec("coherent", 60, 6, 73))
    cfg = SolverConfig(method, s=s, tol=0.0, max_iters=solvers._CHUNK + 100, seed=8, record_error=True)
    want_x, want = run(sy, cfg)
    monkeypatch.setattr(solvers, "_CHUNK", 1)
    monkeypatch.setattr(sketch, "_NORMALS", 1)
    got_x, got = run(sy, cfg)
    assert want.status == got.status == MAX_ITERS
    assert np.array_equal(got_x.a, want_x.a)
    assert [r[:3] for r in got.records] == [r[:3] for r in want.records]  # (iter, error_sq, residual_norm)


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
    # The fault names its step whether run takes one step per call (the
    # dense stretch) or every step to the next record point in one call.
    for max_iters, dense in ((fault, 10_000), (fault + 3, 0)):
        with pytest.raises(ZeroRowError, match=f"iteration {fault}:"):
            run(ZERO_BLOCK_SYSTEM, SolverConfig("skm", s=2, tol=0.0, max_iters=max_iters, seed=seed,
                                                record_dense_limit=dense, record_stride=fault + 3))
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


@pytest.mark.parametrize("max_iters, dense, stride", [
    (30, 0, 7),    # no dense stretch; 30 is not a multiple of 7
    (30, 4, 1),    # every step recorded
    (30, 3, 45),   # stride past max_iters: only the dense steps and the last
    (30, 30, 4),   # dense to max_iters
    (30, 50, 4),   # dense past max_iters
    (31, 5, 7),    # max_iters not a multiple of stride
])
@pytest.mark.parametrize("method", METHOD_NAMES)
def test_run_records_exactly_the_schedule(method, max_iters, dense, stride):
    # run() steps from one record point to the next; the points are the
    # iterations k <= dense, each stride-th and the last, and the final x
    # is a hand stepper's.
    sy = generate_system(ModelSpec("coherent", 24, 5, 72))
    cfg = SolverConfig(method, s=4, tol=0.0, max_iters=max_iters, seed=5,
                       record_dense_limit=dense, record_stride=stride)
    got, trace = run(sy, cfg)
    assert trace.status == MAX_ITERS
    want = [k for k in range(max_iters + 1) if k <= dense or k % stride == 0 or k == max_iters]
    assert [rec.iter for rec in trace.records] == want
    stepper, x = Stepper(sy, SolverConfig(method, s=4, seed=5)), RealVector(np.zeros(5))
    for _ in range(max_iters):
        x = stepper.step(x)[0]
    assert np.array_equal(got.a, x.a)


def test_run_zero_row_error_names_iteration_between_records():
    # The failing step falls strictly between two thinned record points.
    for seed in range(1000):
        fault, _ = zero_block_fault(predict_block_draws(seed, 2, 200))
        if fault > 3:
            break
    cfg = SolverConfig("skm", s=2, tol=0.0, max_iters=fault + 10, seed=seed,
                       record_dense_limit=1, record_stride=fault + 1)
    with pytest.raises(ZeroRowError, match=f"iteration {fault}:"):
        run(ZERO_BLOCK_SYSTEM, cfg)


def run_unblocked(monkeypatch, system, config):
    """run() with record blocks of one point: each record is measured as
    soon as its point is reached, so the run takes no step past its
    stopping record."""
    with monkeypatch.context() as patch:
        patch.setattr(solvers, "_RECORD_BLOCK", 1)
        return run(system, config)


def same_runs(got, want):
    (x, trace), (x_want, trace_want) = got, want
    assert np.array_equal(x.a, x_want.a)
    assert trace.status == trace_want.status
    assert [r[:3] for r in trace.records] == [r[:3] for r in trace_want.records]


def test_stop_inside_a_record_block_beats_a_later_fault(monkeypatch):
    # Scripted draws as in test_run_matches_step_composition_across_reselections:
    # step 5 solves the system exactly, and step 6 draws the near-zero row
    # twice.  A run that records in blocks has taken step 6 when it finds
    # the stop at record 5, and must return what a run that never took
    # step 6 returns: in the dense stretch, and past it (record_dense_limit
    # 2, so records 0, 1, 2, 5, 10, ..., where step 6 is a stride's first).
    planted = LinearSystem(NEAR_ZERO_ROW_SYSTEM.A, NEAR_ZERO_ROW_SYSTEM.b, RealVector([1.0, 2.0]))
    uniforms = [0.9, 0.0, 0.9, 0.9, 0.9, 0.0, 0.3, 0.0, 0.0]
    for system, record_error, dense in ((NEAR_ZERO_ROW_SYSTEM, False, 10_000), (planted, True, 10_000),
                                        (NEAR_ZERO_ROW_SYSTEM, False, 2)):
        config = SolverConfig("kaczmarz", tol=0.0, max_iters=50, record_error=record_error,
                              record_dense_limit=dense, record_stride=5)
        script_uniforms(monkeypatch, uniforms)
        want = run_unblocked(monkeypatch, system, config)
        script_uniforms(monkeypatch, uniforms)
        got = run(system, config)
        assert (got[1].status, got[1].final.iter, got[0].a.tolist()) == (CONVERGED, 5, [1.0, 2.0])
        same_runs(got, want)
    # Without a stop before it, the fault is raised at its own iteration.
    configs = (SolverConfig("kaczmarz", tol=0.0, max_iters=50),
               SolverConfig("kaczmarz", max_iters=50, record_dense_limit=0))
    for runner, config in itertools.product((run, functools.partial(run_unblocked, monkeypatch)), configs):
        script_uniforms(monkeypatch, [0.9, 0.9, 0.0, 0.0])
        with pytest.raises(ZeroRowError, match="^iteration 3: "):
            runner(NEAR_ZERO_ROW_SYSTEM, config)


def test_error_rise_inside_a_record_block_raises_as_unblocked(monkeypatch):
    # Scripted steps halve the error, except step 7, which doubles it.
    sy = make_system(12, 3, seed=79)
    xs = sy.x_star.a

    def script_steps():
        factors = iter([0.5] * 6 + [2.0] + [0.5] * 100)
        monkeypatch.setattr(solvers.Stepper, "_steps", lambda select, xa, gate, *_: (xs + next(factors) * (xa - xs), None, 0))

    config = SolverConfig("gsm", s=4, tol=0.0, max_iters=40, record_error=True)
    messages = []
    for runner in (run, functools.partial(run_unblocked, monkeypatch)):
        script_steps()
        with pytest.raises(NumericalError, match="squared error increased at iteration 7") as info:
            runner(sy, config)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    # An error_stop that fires at record 4 ends the run before the rise.
    err0 = float(xs @ xs)
    config = dataclasses.replace(config, error_stop=0.5**7 * err0)
    script_steps()
    want = run_unblocked(monkeypatch, sy, config)
    script_steps()
    got = run(sy, config)
    assert (got[1].status, got[1].final.iter) == (CONVERGED, 4)
    same_runs(got, want)


@pytest.mark.parametrize("method", METHOD_NAMES)
def test_run_steps_past_its_stop_by_less_than_a_record_block(monkeypatch, method):
    # Counted steps: a run steps past its stopping record through at most
    # the rest of its record block, _RECORD_BLOCK - 1 record points, and
    # never takes more than max_iters steps.  A dense point is one step; the
    # one strided stop here (dense 45, stride 3) comes after the stop guess
    # has records to read, so every case stays within _RECORD_BLOCK steps.
    calls = []
    real_steps = solvers.Stepper._steps
    monkeypatch.setattr(solvers.Stepper, "_steps", lambda *args: calls.extend([1] * args[3]) or real_steps(*args))
    sy = make_system(60, 6, seed=82)
    for tol, max_iters, dense in ((1e-6, 5000, 10_000), (1e-6, 5000, 45), (0.0, 70, 10_000), (0.0, 33, 33)):
        calls.clear()
        config = SolverConfig(method, s=4, tol=tol, max_iters=max_iters, record_dense_limit=dense, record_stride=3,
                              record_error=True)
        _, trace = run(sy, config)
        assert len(calls) <= max_iters
        if trace.status == MAX_ITERS:
            assert len(calls) == trace.final.iter == max_iters
        else:
            assert trace.final.iter <= len(calls) < trace.final.iter + solvers._RECORD_BLOCK
        elapsed = [r.elapsed_ns for r in trace.records]
        assert elapsed == sorted(elapsed)


@pytest.mark.parametrize("method", METHOD_NAMES)
def test_error_stop_in_the_strided_stretch_steps_past_it_by_less_than_a_record_block(monkeypatch, method):
    # Counted steps, as in the test above: past record_dense_limit a block
    # of _RECORD_BLOCK points spans _RECORD_BLOCK * record_stride steps, so
    # without a guess at the error_stop a run could take up to 31 strides
    # past its stop.  The guess keeps it within one dense block's steps.
    calls = []
    real_steps = solvers.Stepper._steps
    monkeypatch.setattr(solvers.Stepper, "_steps", lambda *args: calls.extend([1] * args[3]) or real_steps(*args))
    sy = generate_system(ModelSpec("coherent", 100, 5, seed=1))
    stride = 7
    config = SolverConfig(method, s=4, tol=0.0, max_iters=10**5, record_dense_limit=20, record_stride=stride,
                          record_error=True, error_stop=1e-10 * float(sy.x_star.a @ sy.x_star.a))
    _, trace = run(sy, config)
    assert trace.status == CONVERGED and trace.final.iter > 20
    assert trace.final.iter <= len(calls) < trace.final.iter + solvers._RECORD_BLOCK * stride
    assert len(calls) < trace.final.iter + solvers._RECORD_BLOCK


@pytest.mark.parametrize("method, s", [(method, 4) for method in METHOD_NAMES] + [("sgsm", 1)],
                         ids=[*METHOD_NAMES, "sgsm-s1"])
def test_selected_row_scalars_are_python_floats(method, s):
    # The projection multiplies a row by (beta - <row, x>) / row_sq; a
    # numpy scalar there costs more per step than a Python float and
    # changes no value, so only this test would see it come back.
    sy = make_system(40, 4, seed=81)
    select = solvers._walker(sy, method, s, RngState(0).gen)
    for x in (np.zeros(4), sy.x_star.a, np.ones(4)):
        beta, row_sq = select(x)[2:]
        assert (type(beta), type(row_sq)) == (float, float)
    assert type(Stepper(sy, SolverConfig(method, s=s)).step(np.ones(4))[2]) is float


@pytest.mark.parametrize("method", ["kaczmarz", "motzkin", "skm", "sgsm"])
def test_float_copies_are_made_once_per_system(method):
    # The steps that read a_i, b_i and ||a_i||^2 from lists read lists the
    # system makes once, about 180 bytes a row: a second stepper on the
    # system allocates well under the 64 bytes a row of the float lists.
    m = 20_000
    sy = make_system(m, 2, seed=90)
    Stepper(sy, SolverConfig(method, s=1))
    tracemalloc.start()
    try:
        Stepper(sy, SolverConfig(method, s=1, seed=1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * 64 * m


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
    # Refused inputs are refused before a gsm stepper factors [A b].
    with pytest.raises(InputError):
        run(sy, SolverConfig("gsm", record_error=True))
    with pytest.raises(InputError):
        run(solved, SolverConfig("gsm"), x0=RealVector([1.0, 2.0, 3.0]))
    assert "_residual_factor" not in sy.__dict__ and "_residual_factor" not in solved.__dict__


def test_every_vector_length_is_checked_alike():
    sy = make_system(10, 2, seed=79)
    short = [1.0, 2.0, 3.0]
    for call in (
        lambda: LinearSystem(sy.A, short),
        lambda: LinearSystem(sy.A, sy.b, short),
        lambda: Stepper(sy, SolverConfig("kaczmarz")).step(short),
        lambda: run(sy, SolverConfig("kaczmarz"), x0=short),
        lambda: project_row([1.0, 2.0], short, 0.0),
        lambda: select_max_residual(sy.A, sy.b, short),
        lambda: select_max_residual(sy.A, short, sy.x_star),
        lambda: dynamic_range(sy.A, short, sy.x_star),
        lambda: dynamic_range(sy.A, sy.x_star, short),
    ):
        with pytest.raises(InputError, match=r"^(b|x_star|x|x0|a|r) has length 3, expected (2|10)$"):
            call()


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
    monkeypatch.setattr(solvers.Stepper, "_steps", lambda select, xa, gate, *_: (2.0 * xa - xs, None, 0))
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
