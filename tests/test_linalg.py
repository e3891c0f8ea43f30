"""Dense container and conditioning tests.

Oracles here are deliberately independent of the library code paths:
residuals from a triple-loop matrix-vector product, norms against plain
Python summation, and the smallest singular value against a hand-rolled
cyclic Jacobi eigensolver run on the Gram matrix.
"""

import math

import numpy as np
import pytest

from sketchsolve import (
    DenseMatrix,
    InputError,
    LinearSystem,
    ModelSpec,
    RankDeficientError,
    RealVector,
    condition_kappa_tilde,
    dynamic_range,
    generate_system,
)


# ---------------------------------------------------------------- oracles

def loop_matvec(a, x):
    m, n = a.shape
    out = np.zeros(m)
    for i in range(m):
        acc = 0.0
        for j in range(n):
            acc += float(a[i, j]) * float(x[j])
        out[i] = acc
    return out


def sum_of_squares(values):
    acc = 0.0
    for v in np.asarray(values).ravel():
        acc += float(v) * float(v)
    return acc


def loop_gram(a):
    m, n = a.shape
    g = np.zeros((n, n))
    for j in range(n):
        for k in range(j, n):
            acc = 0.0
            for i in range(m):
                acc += float(a[i, j]) * float(a[i, k])
            g[j, k] = acc
            g[k, j] = acc
    return g


def jacobi_min_eigenvalue(sym, sweeps=60):
    """Smallest eigenvalue of a symmetric matrix by cyclic Jacobi rotations."""
    a = np.array(sym, dtype=float)
    n = a.shape[0]
    scale = max(1.0, sum_of_squares(a))
    for _ in range(sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                off += a[p, q] * a[p, q]
        if off <= 1e-30 * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if a[p, q] == 0.0:
                    continue
                theta = 0.5 * math.atan2(2.0 * a[p, q], a[q, q] - a[p, p])
                c, s = math.cos(theta), math.sin(theta)
                col_p, col_q = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
                row_p, row_q = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * row_p - s * row_q
                a[q, :] = s * row_p + c * row_q
    return float(min(a[i, i] for i in range(n)))


def oracle_smallest_singular(a):
    lam = jacobi_min_eigenvalue(loop_gram(a))
    return math.sqrt(max(lam, 0.0))


# ------------------------------------------------------------- containers

def test_matrix_basic_shape_and_row_access():
    m = DenseMatrix([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    assert (m.rows, m.cols) == (3, 2)
    assert m.a[2].tolist() == [5.0, 6.0]


def test_matrix_rejects_bad_inputs():
    with pytest.raises(InputError):
        DenseMatrix([1.0, 2.0])
    with pytest.raises(InputError):
        DenseMatrix(np.zeros((0, 3)))
    with pytest.raises(InputError):
        DenseMatrix([[1.0, np.nan]])
    with pytest.raises(InputError):
        DenseMatrix([[1.0, np.inf], [0.0, 1.0]])


def test_matrix_is_immutable_and_snapshots_writeable_input():
    src = np.ones((2, 2))
    m = DenseMatrix(src)
    src[0, 0] = 99.0
    assert m.a[0, 0] == 1.0
    with pytest.raises((ValueError, RuntimeError)):
        m.a[0, 0] = 5.0


def test_vector_basics_and_rejections():
    v = RealVector([1.0, -2.0, 3.0])
    assert len(v) == 3
    with pytest.raises(InputError):
        RealVector([[1.0], [2.0]])
    with pytest.raises(InputError):
        RealVector([])
    with pytest.raises(InputError):
        RealVector([0.0, np.nan])
    with pytest.raises((ValueError, RuntimeError)):
        v.a[0] = 7.0


# ------------------------------------------------------------------ norms

def test_row_norm_sq_known_values():
    system = LinearSystem(DenseMatrix([[3.0, 4.0], [0.0, 0.0]]), RealVector([1.0, 0.0]))
    assert system.row_norms_sq.tolist() == [25.0, 0.0]


def test_row_norm_sq_matches_summation_oracle():
    gen = np.random.default_rng(7)
    a = gen.standard_normal((20, 5))
    system = LinearSystem(DenseMatrix(a), RealVector(np.zeros(20)))
    for i in (0, 7, 19):
        want = sum_of_squares(a[i])
        assert abs(system.row_norms_sq[i] - want) <= 1e-14 * want


@pytest.mark.parametrize("model, m, n", [("gaussian", 1000, 50), ("coherent", 1000, 50), ("gaussian", 97, 11)])
def test_row_norms_sq_equal_row_dot_row_bitwise(model, m, n):
    # kaczmarz, motzkin and skm project with this table instead of the
    # row's own row @ row; their iterates are those of a step that
    # recomputes the norm only while the two agree bit for bit.
    system = generate_system(ModelSpec(model, m, n, 3))
    assert system.row_norms_sq.tolist() == [float(row @ row) for row in system.A.a]


def test_frobenius_known_values():
    assert condition_kappa_tilde(DenseMatrix(np.eye(4))).frobenius_sq == 4.0
    assert condition_kappa_tilde(DenseMatrix([[1.0, 2.0], [3.0, 4.0]])).frobenius_sq == 30.0


def test_frobenius_matches_oracle_and_row_decomposition():
    gen = np.random.default_rng(23)
    a = gen.standard_normal((100, 20))
    m = DenseMatrix(a)
    total = condition_kappa_tilde(m).frobenius_sq
    want = sum_of_squares(a)
    assert abs(total - want) <= 1e-12 * want
    by_rows = float(np.einsum("ij,ij->i", m.a, m.a).sum())
    assert abs(total - by_rows) <= 1e-12 * want


# ----------------------------------------------------- smallest singular

def test_smallest_singular_identity():
    assert condition_kappa_tilde(DenseMatrix(np.eye(5))).s_min == pytest.approx(1.0, rel=1e-12)


def test_smallest_singular_diagonal_padded():
    a = np.zeros((6, 3))
    a[0, 0], a[1, 1], a[2, 2] = 5.0, 2.0, 0.5
    assert condition_kappa_tilde(DenseMatrix(a)).s_min == pytest.approx(0.5, rel=1e-10)


def test_smallest_singular_matches_jacobi_oracle():
    gen = np.random.default_rng(42)
    a = gen.standard_normal((30, 6))
    got = condition_kappa_tilde(DenseMatrix(a)).s_min
    want = oracle_smallest_singular(a)
    assert abs(got - want) <= 1e-6 * want


def test_smallest_singular_row_permutation_invariant():
    gen = np.random.default_rng(3)
    a = gen.standard_normal((40, 8))
    base = condition_kappa_tilde(DenseMatrix(a)).s_min
    for seed in range(4):
        perm = np.random.default_rng(seed).permutation(40)
        shuffled = condition_kappa_tilde(DenseMatrix(a[perm])).s_min
        assert abs(shuffled - base) <= 1e-8 * base


def test_smallest_singular_requires_overdetermined():
    with pytest.raises(InputError, match="need rows >= cols"):
        condition_kappa_tilde(DenseMatrix(np.ones((2, 3))))


# ------------------------------------------------------------ conditioning

def test_condition_identity():
    stats = condition_kappa_tilde(DenseMatrix(np.eye(3)))
    assert stats.frobenius_sq == pytest.approx(3.0, rel=1e-12)
    assert stats.s_min == pytest.approx(1.0, rel=1e-12)
    assert stats.kappa_tilde == pytest.approx(3.0, rel=1e-12)


def test_condition_small_diagonal():
    stats = condition_kappa_tilde(DenseMatrix([[2.0, 0.0], [0.0, 1.0]]))
    assert stats.frobenius_sq == pytest.approx(5.0, rel=1e-12)
    assert stats.s_min == pytest.approx(1.0, rel=1e-12)
    assert stats.kappa_tilde == pytest.approx(5.0, rel=1e-12)


def test_condition_matches_composed_oracle():
    gen = np.random.default_rng(11)
    a = gen.standard_normal((200, 6))
    stats = condition_kappa_tilde(DenseMatrix(a))
    fro = sum_of_squares(a)
    smin = oracle_smallest_singular(a)
    assert abs(stats.frobenius_sq - fro) <= 1e-12 * fro
    want = fro / (smin * smin)
    assert abs(stats.kappa_tilde - want) <= 1e-6 * want


def test_condition_lower_bound_is_column_count():
    for seed in range(5):
        a = np.random.default_rng(seed).standard_normal((60, 12))
        stats = condition_kappa_tilde(DenseMatrix(a))
        assert stats.kappa_tilde >= 12 * (1.0 - 1e-12)


def test_condition_rank_deficient_raises_and_names_floor():
    # Two identical columns: the Gram matrix is exactly singular, so the
    # computed smallest singular value collapses to zero and trips the gate.
    a = np.ones((5, 2))
    with pytest.raises(RankDeficientError, match="s_min"):
        condition_kappa_tilde(DenseMatrix(a))


def test_norm_lower_bound_invariant():
    gen = np.random.default_rng(77)
    a = gen.standard_normal((50, 7))
    m = DenseMatrix(a)
    smin = condition_kappa_tilde(m).s_min
    for _ in range(100):
        x = gen.standard_normal(7)
        lhs = math.sqrt(sum_of_squares(a @ x))
        rhs = smin * math.sqrt(sum_of_squares(x))
        assert lhs >= rhs * (1.0 - 1e-6)


# ---------------------------------------------------------- dynamic range

def test_dynamic_range_single_spike():
    a = DenseMatrix(np.eye(3))
    got = dynamic_range(a, RealVector([0.0, 0.0, 5.0]), RealVector([0.0, 0.0, 0.0]))
    assert got == pytest.approx(1.0, rel=1e-12)


def test_dynamic_range_flat_residual():
    a = DenseMatrix(np.eye(4))
    got = dynamic_range(a, RealVector([1.0, 1.0, 1.0, 1.0]), RealVector([0.0] * 4))
    assert got == pytest.approx(4.0, rel=1e-12)


def test_dynamic_range_matches_direct_formula():
    gen = np.random.default_rng(19)
    a = gen.standard_normal((30, 5))
    x = gen.standard_normal(5)
    x_star = gen.standard_normal(5)
    got = dynamic_range(DenseMatrix(a), RealVector(x), RealVector(x_star))
    r = loop_matvec(a, x) - loop_matvec(a, x_star)
    want = sum_of_squares(r) / max(float(v) * float(v) for v in r)
    assert abs(got - want) <= 1e-12 * want


def test_dynamic_range_bounds():
    gen = np.random.default_rng(4)
    a = gen.standard_normal((25, 4))
    m = DenseMatrix(a)
    for _ in range(50):
        x = RealVector(gen.standard_normal(4))
        x_star = RealVector(gen.standard_normal(4))
        got = dynamic_range(m, x, x_star)
        assert 1.0 - 1e-12 <= got <= 25.0 * (1.0 + 1e-12)


def test_dynamic_range_rejects_zero_residual():
    a = DenseMatrix(np.eye(3))
    x = RealVector([1.0, 2.0, 3.0])
    with pytest.raises(InputError):
        dynamic_range(a, x, x)
