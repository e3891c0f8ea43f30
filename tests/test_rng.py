"""Random stream tests: seeding, replay, seed validation, chunked draws
and the weighted index draw behind Kaczmarz row sampling.

Statistical checks use wide, seeded windows so they are deterministic in
practice.  The sampling laws of the solver steps themselves are checked
in tests/test_solvers.py and by c09 in tests/test_acceptance.py.
"""

import numpy as np
import pytest

from sketchsolve import InputError, RngState
from sketchsolve.rng import _pick_from_cumulative


# ------------------------------------------------------------ determinism

def test_same_seed_identical_streams():
    a, b = RngState(42).gen, RngState(42).gen
    for _ in range(200):
        assert a.standard_normal() == b.standard_normal()
    assert np.array_equal(a.standard_normal((7, 3)), b.standard_normal((7, 3)))
    for _ in range(100):
        assert a.integers(9) == b.integers(9)
        assert a.random() == b.random()


def test_different_seeds_diverge():
    a, b = RngState(1).gen, RngState(2).gen
    assert a.standard_normal(16).tolist() != b.standard_normal(16).tolist()


def test_seed_validation():
    RngState(0)
    RngState(2**64 - 1)
    with pytest.raises(InputError):
        RngState(-1)
    with pytest.raises(InputError):
        RngState(2**64)


# ------------------------------------------------------------ chunked draws

@pytest.mark.parametrize("chunk", [1, 7, 64, 1000])
def test_chunked_draws_equal_scalar_draws(chunk):
    # A solver stepper draws kaczmarz uniforms and skm block indices in
    # chunks of solvers._CHUNK.  Because k batched draws are the k scalar
    # draws, its trajectories match those of earlier builds, which drew one
    # value per step, and one-at-a-time predictions of its draws hold
    # (predict_block_draws in tests/test_solvers.py, c09's seed).  2500 is
    # a multiple of none of the chunk sizes above 1, so the last chunk is
    # cut short.
    total = 2500
    for n in (2, 3, 40, 1000, 10**6):
        scalar, chunked = RngState(5).gen, RngState(5).gen
        want = [int(scalar.integers(n)) for _ in range(total)]
        got = np.concatenate([chunked.integers(n, size=chunk) for _ in range(-(-total // chunk))])
        assert got[:total].tolist() == want, n
    scalar, chunked = RngState(6).gen, RngState(6).gen
    want = [scalar.random() for _ in range(total)]
    got = np.concatenate([chunked.random(chunk) for _ in range(-(-total // chunk))])
    assert got[:total].tolist() == want


# --------------------------------------------------------- weighted index

def weighted_indices(rng, weights, k):
    return _pick_from_cumulative(rng.gen, np.cumsum(np.asarray(weights, dtype=float)), k)


# Upper 0.001 quantiles of the chi-square law, by degrees of freedom.
CHI2_999 = {2: 13.8155, 3: 16.2662, 4: 18.4668, 5: 20.5150, 6: 22.4577, 7: 24.3219}


def test_weighted_index_degenerate_mass():
    assert set(weighted_indices(RngState(11), [0.0, 7.0, 0.0], 20).tolist()) == {1}


def test_weighted_index_even_split_frequency():
    zeros = np.count_nonzero(weighted_indices(RngState(13), [1.0, 1.0], 100_000) == 0)
    assert 0.49 < zeros / 100_000 < 0.51


def test_weighted_index_two_to_one_frequency():
    hits = int(weighted_indices(RngState(13), [1.0, 3.0], 100_000).sum())
    assert 0.74 < hits / 100_000 < 0.76


def test_weighted_index_chi_square_fit():
    # Ten random weight vectors; reject only at the 0.001 level.
    gen = np.random.default_rng(101)
    rng = RngState(17)
    for _ in range(10):
        k = int(gen.integers(3, 9))
        weights = gen.uniform(0.1, 2.0, size=k)
        n = 100_000
        counts = np.bincount(weighted_indices(rng, weights, n), minlength=k)
        expected = n * weights / weights.sum()
        stat = float(((counts - expected) ** 2 / expected).sum())
        assert stat < CHI2_999[k - 1]
