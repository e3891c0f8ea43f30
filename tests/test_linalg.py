"""Dense container and conditioning tests.

Oracles here are deliberately independent of the library code paths:
residuals from a triple-loop matrix-vector product, norms against plain
Python summation, and the smallest singular value against a hand-rolled
cyclic Jacobi eigensolver run on the Gram matrix.
"""

import math
from fractions import Fraction

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


def read_only_view(arr):
    """A read-only view whose owner, arr, stays writeable."""
    view = arr.view()
    view.flags.writeable = False
    return view


def test_matrix_is_immutable_and_snapshots_writeable_input():
    for wrap in (lambda src: src, read_only_view):
        src = np.ones((2, 2))
        m = DenseMatrix(wrap(src))
        src[0, 0] = 99.0
        assert m.a[0, 0] == 1.0
        with pytest.raises((ValueError, RuntimeError)):
            m.a[0, 0] = 5.0


def test_system_tables_do_not_go_stale_through_a_read_only_view():
    base = np.arange(1.0, 7.0).reshape(3, 2)
    sy = LinearSystem(read_only_view(base), read_only_view(base @ [1.0, -1.0]))
    base[0] *= 1e3
    assert sy.A.a[0].tolist() == [1.0, 2.0] and sy.b.a[0] == -1.0
    assert sy.row_norms_sq.tolist() == [5.0, 25.0, 61.0]
    # A read-only array over a writeable buffer is copied too.
    buffer = bytearray(np.arange(1.0, 7.0).tobytes())
    frozen = np.frombuffer(buffer)
    frozen.flags.writeable = False
    sy = LinearSystem(frozen.reshape(3, 2), np.zeros(3))
    buffer[:8] = np.float64(1e3).tobytes()
    assert sy.A.a[0].tolist() == [1.0, 2.0] and sy.row_norms_sq[0] == 5.0


def test_memory_nothing_writeable_owns_is_wrapped_without_a_copy():
    fresh = np.ones((3, 2))
    fresh.flags.writeable = False
    blob = np.frombuffer(bytes(48)).reshape(3, 2)  # a file's bytes, as load_system reads them
    for arr in (fresh, blob):
        m = DenseMatrix(arr)
        assert m.a is arr
        row = m.a[1]
        assert RealVector(row).a is row
    # A row that is not contiguous cannot be a row-major view: it is copied.
    column = fresh[:, 0]
    copied = RealVector(column).a
    assert copied is not column and copied.flags.c_contiguous


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


def spectrum_matrix(singular_values, m=200, seed=0):
    """U diag(singular_values) V^T with seeded orthonormal U (m-by-n) and V."""
    gen = np.random.default_rng(seed)
    n = len(singular_values)
    u, _ = np.linalg.qr(gen.standard_normal((m, n)))
    v, _ = np.linalg.qr(gen.standard_normal((n, n)))
    return (u * singular_values) @ v.T


def test_condition_resolves_full_rank_below_the_gram_roundoff():
    # kappa = 1e10 is full rank (s_min = 1e-10, 100x the gate), but the
    # Gram matrix's smallest eigenvalue 1e-20 is below its roundoff, so
    # s_min comes from the singular values of A.  A matrix whose s_min is
    # under the gate still raises.
    stats = condition_kappa_tilde(DenseMatrix(spectrum_matrix(np.logspace(0, -10, 20))))
    assert stats.s_min == pytest.approx(1e-10, rel=1e-4)
    with pytest.raises(RankDeficientError, match="s_min"):
        condition_kappa_tilde(DenseMatrix(spectrum_matrix(np.logspace(0, -14, 20))))


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


def test_dynamic_range_accurate_near_solution():
    # Near x*, A x - A x* cancels almost every digit of each product (a
    # relative error of about 5e-4 at a distance of 1e-12); A (x - x*) does
    # not, and x - x* itself is exact there.  Exact rational reference.
    system = generate_system(ModelSpec("gaussian", 200, 20, 0))
    x_star = system.x_star.a
    x = x_star + 1e-12 * np.random.default_rng(5).standard_normal(20)
    d = [Fraction(u) - Fraction(v) for u, v in zip(x.tolist(), x_star.tolist())]
    r = [sum(Fraction(a) * e for a, e in zip(row, d)) for row in system.A.a.tolist()]
    want = sum(v * v for v in r) / max(v * v for v in r)
    got = dynamic_range(system.A, RealVector(x), system.x_star)
    assert abs(Fraction(got) - want) <= Fraction(1e-12) * want


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
