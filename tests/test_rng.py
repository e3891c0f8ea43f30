"""Random stream tests: seeding, replay, seed validation, chunked draws
and the weighted index draw behind Kaczmarz row sampling.

Statistical checks use wide, seeded windows so they are deterministic in
practice.  The sampling laws of the solver steps themselves are checked
in tests/test_solvers.py and by c09 in tests/test_acceptance.py.
"""

import itertools

import numpy as np
import pytest

from sketchsolve import InputError, RngState, sketch
from sketchsolve.rng import _pick_from_cumulative, _stream


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

def drain(total, fill):
    """The first `total` items of the _stream source over fill."""
    take = _stream(fill).__next__
    return [take() for _ in range(total)]


@pytest.mark.parametrize("chunk", [1, 7, 64, 1000])
def test_chunked_draws_equal_scalar_draws(monkeypatch, chunk):
    # A solver stepper takes each kind of draw from a _stream source of
    # `chunk` draws per fill (the chunk rule in rng.py).  Because a fill of
    # k draws is the k draws made one at a time, its trajectories match
    # those of earlier builds, which drew one value per step, and
    # one-at-a-time predictions of its draws hold (predict_block_draws in
    # tests/test_solvers.py, c09's seed).  Each source is taken 2500
    # times, about 2.5 chunks at the largest size, so every size but 1 cuts
    # a chunk short and crosses refills.
    total = 2500
    for n in (2, 3, 40, 1000, 10**6):
        scalar, chunked = RngState(5).gen, RngState(5).gen
        want = [int(scalar.integers(n)) for _ in range(total)]
        assert drain(total, lambda: chunked.integers(n, size=chunk).tolist()) == want, n
    cum = np.cumsum([1.0, 0.0, 3.0, 2.5])
    scalar, chunked = RngState(6).gen, RngState(6).gen
    want = [int(_pick_from_cumulative(scalar, cum, 1)[0]) for _ in range(total)]
    assert drain(total, lambda: _pick_from_cumulative(chunked, cum, chunk).tolist()) == want
    # gsm: per attempt s normals u, then n + 1 normals z; u* is the u of
    # largest square.  sgsm: one (s, s) factor per attempt, and at s = 1
    # one float per attempt, from the flattened 1-by-1 factors.
    # The normal budget is set so that a fill holds `chunk` attempts.
    s, n = 3, 5
    monkeypatch.setattr(sketch, "_NORMALS", chunk * (s + n + 1))
    scalar, chunked = RngState(7).gen, RngState(7).gen
    got = drain(total, lambda: sketch._winner_fill(chunked, s, n))
    for u_star, z in got:
        u = scalar.standard_normal(s)
        assert u_star == u[np.argmax(u * u)]
        assert z.tolist() == scalar.standard_normal(n + 1).tolist()
    monkeypatch.setattr(sketch, "_NORMALS", chunk * s * s)
    scalar, chunked = RngState(8).gen, RngState(8).gen
    got = drain(total, lambda: sketch._factor_fill(chunked, s))
    assert [X.tolist() for X in got] == [scalar.standard_normal((s, s)).tolist() for _ in range(total)]
    monkeypatch.setattr(sketch, "_NORMALS", chunk)
    scalar, chunked = RngState(9).gen, RngState(9).gen
    got = drain(total, lambda: sketch._factor_fill(chunked, 1).ravel().tolist())
    assert got == [float(scalar.standard_normal()) for _ in range(total)]


def test_stream_fills_lazily_and_ends_at_a_fill_that_raises():
    # _stream(fill) runs no fill until an item is wanted, and the next fill
    # only once the last chunk is used up.  A fill that raises ends the
    # stream: the raise reaches the caller once, and the stream then stops.
    # So a step loop whose fill may raise starts a fresh stream after it
    # (the kaczmarz walk on an all-zero A, test_kaczmarz_all_zero_rows_rejected).
    calls = itertools.count(1)
    ran = []

    def fill():
        n = next(calls)
        ran.append(n)
        if n == 3:
            raise RuntimeError(f"fill {n}")
        return [(n, 0), (n, 1)]

    stream = _stream(fill)
    assert ran == []
    assert [next(stream), next(stream)] == [(1, 0), (1, 1)] and ran == [1]
    assert next(stream) == (2, 0) and ran == [1, 2]
    assert next(stream) == (2, 1) and ran == [1, 2]
    with pytest.raises(RuntimeError, match="fill 3"):
        next(stream)
    assert next(stream, None) is None and ran == [1, 2, 3]
    # A fresh stream fills again.
    assert next(_stream(fill)) == (4, 0)


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
