"""Sketch constructor tests.

The sparse sketch is checked against a dense-materialization oracle: embed
the small factor into a full m-by-s sketch matrix of zeros and multiply
through. The block sketch must return views of A and b, not copies.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from sketchsolve import (
    DenseMatrix,
    InputError,
    LinearSystem,
    RealVector,
    RngState,
    block_sketch,
    condition_kappa_tilde,
    gaussian_sketch,
    sparse_gaussian_sketch,
)


def make_system(m, n, seed=0):
    gen = np.random.default_rng(seed)
    a = gen.standard_normal((m, n))
    x_star = gen.standard_normal(n)
    return LinearSystem(DenseMatrix(a), RealVector(a @ x_star), RealVector(x_star))


# ----------------------------------------------------------------- oracles

def materialized_sparse(m, s, shift, x_factor):
    full = np.zeros((m, s))
    full[shift:shift + s, :] = x_factor
    return full


# ------------------------------------------------------------------ block

def test_block_full_size_is_whole_system():
    sy = make_system(6, 3, seed=1)
    got = block_sketch(sy, 6, RngState(0))
    assert np.array_equal(got.M, sy.A.a)
    assert np.array_equal(got.r, sy.b.a)
    assert got.z == 0 and got.shift == 0
    assert got.factor is None


def test_block_rows_are_zero_copy_views():
    sy = make_system(12, 4, seed=2)
    got = block_sketch(sy, 3, RngState(9))
    assert np.shares_memory(got.M, sy.A.a)
    assert np.shares_memory(got.r, sy.b.a)
    assert np.array_equal(got.M, sy.A.a[got.shift:got.shift + 3])


def test_block_last_aligned_block_is_final_rows():
    # m=6, s=2: block index 2 must select exactly rows 4 and 5.
    sy = make_system(6, 3, seed=6)
    for seed in range(200):
        got = block_sketch(sy, 2, RngState(seed))
        if got.z == 2:
            assert got.shift == 4
            assert np.array_equal(got.M, sy.A.a[4:6])
            assert np.array_equal(got.r, sy.b.a[4:6])
            break
    else:
        pytest.fail("no seed in range drew block index 2")


def test_block_shift_coverage_reaches_trailing_rows():
    # m=10, s=3: four blocks, the last one [7, 10) overlapping block 2, so
    # row 9 is sampled too, by the block and the sparse sketch alike.
    sy = make_system(10, 2, seed=3)
    for build in (block_sketch, sparse_gaussian_sketch):
        rng = RngState(17)
        seen = set()
        for _ in range(600):
            got = build(sy, 3, rng)
            z, shift, factor = got.z, got.shift, got.factor
            seen.add(z)
            assert shift == min(3 * z, 7)
            block = sy.A.a[shift:shift + 3]
            assert np.array_equal(got.M, block if factor is None else factor.T @ block)
            assert 0 <= z <= 3
        assert seen == {0, 1, 2, 3}, build.__name__


def test_block_size_validation():
    sy = make_system(5, 2, seed=5)
    with pytest.raises(InputError):
        block_sketch(sy, 6, RngState(0))
    with pytest.raises(InputError):
        block_sketch(sy, 0, RngState(0))


# --------------------------------------------------------------- gaussian

def test_gaussian_zero_matrix_sketches_to_zero():
    a = DenseMatrix(np.zeros((4, 2)))
    sy = LinearSystem(a, RealVector(np.zeros(4)), RealVector(np.zeros(2)))
    got = gaussian_sketch(sy, 3, RngState(0))
    assert np.all(got.M == 0.0)
    assert np.all(got.r == 0.0)


def test_gaussian_linearity_on_ones_column():
    # A is a single all-ones column and b = A·1, so every sketched row
    # must equal its sketched target exactly.
    a = np.ones((5, 1))
    sy = LinearSystem(DenseMatrix(a), RealVector(np.ones(5)), RealVector([1.0]))
    got = gaussian_sketch(sy, 4, RngState(6))
    assert np.array_equal(got.M[:, 0], got.r)


def test_gaussian_matches_its_provenance_factor():
    sy = make_system(12, 5, seed=7)
    got = gaussian_sketch(sy, 3, RngState(2))
    s_factor = got.factor
    assert s_factor.shape == (12, 3)
    assert np.array_equal(got.M, s_factor.T @ sy.A.a)
    assert np.array_equal(got.r, s_factor.T @ sy.b.a)


def test_gaussian_fresh_factor_each_call():
    sy = make_system(8, 3, seed=8)
    rng = RngState(4)
    first = gaussian_sketch(sy, 2, rng)
    second = gaussian_sketch(sy, 2, rng)
    assert not np.array_equal(first.factor, second.factor)


def test_gaussian_size_may_exceed_rows():
    sy = make_system(3, 2, seed=9)
    got = gaussian_sketch(sy, 7, RngState(0))
    assert got.M.shape[0] == 7 and len(got.r) == 7


def test_gaussian_row_energy_matches_frobenius():
    # E of a sketched row's squared norm equals the squared Frobenius
    # norm of A; the empirical mean settles within 5 percent.
    sy = make_system(33, 4, seed=10)
    target = condition_kappa_tilde(sy.A).frobenius_sq
    rng = RngState(12)
    total, rows = 0.0, 0
    for _ in range(4000):
        got = gaussian_sketch(sy, 2, rng)
        total += float((got.M * got.M).sum())
        rows += got.M.shape[0]
    mean = total / rows
    assert abs(mean - target) <= 0.05 * target


# ----------------------------------------------------------------- sparse

def test_sparse_matches_dense_materialization_oracle():
    gen = np.random.default_rng(13)
    for _ in range(50):
        m = int(gen.integers(6, 41))
        n = int(gen.integers(1, min(m, 8) + 1))
        s = int(gen.integers(1, m + 1))
        sy = make_system(m, n, seed=int(gen.integers(1_000_000)))
        got = sparse_gaussian_sketch(sy, s, RngState(int(gen.integers(1_000_000))))
        full = materialized_sparse(m, s, got.shift, got.factor)
        want_m = full.T @ sy.A.a
        want_r = full.T @ sy.b.a
        scale = max(1.0, float(np.max(np.abs(want_m))), float(np.max(np.abs(want_r))))
        assert np.max(np.abs(got.M - want_m)) <= 1e-12 * scale
        assert np.max(np.abs(got.r - want_r)) <= 1e-12 * scale


def test_sparse_identity_factor_reproduces_block():
    # A generator that draws block 2 and an identity factor: the sketch is the block itself.
    identity = SimpleNamespace(gen=SimpleNamespace(integers=lambda high: 2, standard_normal=lambda shape: np.eye(shape[0])))
    sy = make_system(12, 3, seed=14)
    got = sparse_gaussian_sketch(sy, 4, identity)
    assert np.array_equal(got.M, sy.A.a[8:12])
    assert np.array_equal(got.r, sy.b.a[8:12])
    assert got.z == 2


def test_sparse_single_row_is_scalar_multiple():
    sy = make_system(9, 4, seed=15)
    got = sparse_gaussian_sketch(sy, 1, RngState(21))
    scale = got.factor[0, 0]
    assert np.array_equal(got.M[0], scale * sy.A.a[got.shift])


def test_sparse_draws_block_index_then_factor():
    # m=20, s=5: the block index z over ceil(20 / 5) = 4 blocks is drawn
    # first, then the 5x5 factor in row-major order.
    sy = make_system(20, 3, seed=16)
    got = sparse_gaussian_sketch(sy, 5, RngState(33))
    gen = RngState(33).gen
    z = int(gen.integers(4))
    assert got.z == z and got.shift == 5 * z
    assert np.array_equal(got.factor, gen.standard_normal((5, 5)))


def test_sparse_size_validation():
    sy = make_system(4, 2, seed=18)
    with pytest.raises(InputError):
        sparse_gaussian_sketch(sy, 5, RngState(0))
