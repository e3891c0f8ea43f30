"""End-to-end acceptance gates.

One test per criterion, each stating its full claim and tolerance inline
and printing a single pass line when it holds. The benchmark-style
criteria run at desk scale (1000x50 and 1000x100 systems, 10 trials)
and compare medians, never single runs.
"""

import csv
import math
import time

import numpy as np
import pytest

from sketchsolve import (
    CONVERGED,
    DenseMatrix,
    LinearSystem,
    ModelSpec,
    RealVector,
    RngState,
    SolverConfig,
    Stepper,
    condition_kappa_tilde,
    contraction_summary,
    gaussian_sketch,
    generate_system,
    run,
    save_system,
    sparse_gaussian_sketch,
)
from sketchsolve.cli import main, run_sweep

METHOD_NAMES = ("kaczmarz", "motzkin", "skm", "gsm", "sgsm")


def report(num, text, started):
    print(f"criterion {num:02d} PASS {text} [{time.perf_counter() - started:.1f}s]")


def make_system(m, n, seed):
    gen = np.random.default_rng(seed)
    a = gen.standard_normal((m, n))
    x_star = gen.standard_normal(n)
    return LinearSystem(DenseMatrix(a), RealVector(a @ x_star), RealVector(x_star))


@pytest.fixture(scope="module")
def coherent_1000x50():
    return generate_system(ModelSpec("coherent", 1000, 50, seed=0))


def one_step(stepper, x):
    """One step of `stepper`; returns (x1, selected row array, beta)."""
    x1, sketch, i = stepper.step(x)
    return x1, sketch.M.a[i], float(sketch.r.a[i])


def iters_to_error_threshold(system, method, s, seed, frac, max_iters):
    """Iterations until error_sq <= frac * initial error (inf if capped)."""
    err0 = float(system.x_star.a @ system.x_star.a)
    cfg = SolverConfig(
        method, s=s, tol=0.0, max_iters=max_iters, seed=seed, record_error=True,
        error_stop=frac * err0, record_dense_limit=2000, record_stride=20,
    )
    _, trace = run(system, cfg)
    return trace.final.iter if trace.status == CONVERGED else math.inf


def test_c01_projection_geometry():
    # 100 random sketched steps across all five methods (systems up to
    # 200x20): the update is orthogonal to the selected row within
    # 1e-8 * ||row|| * ||x1 - x_star||, and the squared error drops by the
    # squared scaled residual of that row to rel 1e-8.
    started = time.perf_counter()
    sizes = [(20, 4), (57, 9), (120, 12), (200, 20)]
    gen = np.random.default_rng(1)
    checked = 0
    for method in METHOD_NAMES:
        for m, n in sizes:
            sy = make_system(m, n, seed=int(gen.integers(1_000_000)))
            stepper = Stepper(sy, SolverConfig(method, s=max(2, n // 2), seed=2))
            xs = sy.x_star.a
            for _ in range(5):
                x0 = RealVector(gen.standard_normal(n))
                x1, row, beta = one_step(stepper, x0)
                err0 = x0.a - xs
                err1 = x1.a - xs
                row_norm = math.sqrt(float(row @ row))
                ortho = abs(float(row @ err1))
                assert ortho <= 1e-8 * row_norm * math.sqrt(float(err1 @ err1)) + 1e-20
                t = float(row @ x0.a) - beta
                drop = t * t / float(row @ row)
                want = float(err0 @ err0) - drop
                assert abs(float(err1 @ err1) - want) <= 1e-8 * float(err0 @ err0)
                checked += 1
    assert checked == 100
    report(1, "orthogonality and squared-error drop on 100 steps, rel 1e-8", started)


def test_c02_gaussian_sketch_second_moment():
    # Mean squared row norm of the sketched matrix over 1e4 Gaussian
    # sketches of a fixed seeded 50x8 matrix stays within 5 percent of the
    # squared Frobenius norm of A.
    started = time.perf_counter()
    sy = make_system(50, 8, seed=3)
    target = condition_kappa_tilde(sy.A).frobenius_sq
    rng = RngState(4)
    total, rows = 0.0, 0
    for _ in range(10_000):
        sketched = gaussian_sketch(sy, 3, rng)
        total += float((sketched.M.a * sketched.M.a).sum())
        rows += sketched.M.rows
    mean = total / rows
    assert abs(mean - target) <= 0.05 * target
    report(2, f"sketched row energy {mean:.1f} vs {target:.1f}, within 5%", started)


def test_c03_sparse_equals_dense_materialization():
    # The structured sparse path (small factor times an aligned block)
    # equals multiplying through the dense m-by-s embedding of that
    # factor, to abs 1e-12, over 50 random configurations.
    started = time.perf_counter()
    gen = np.random.default_rng(5)
    for _ in range(50):
        m = int(gen.integers(6, 61))
        n = int(gen.integers(1, min(m, 10) + 1))
        s = int(gen.integers(1, m + 1))
        sy = make_system(m, n, seed=int(gen.integers(1_000_000)))
        got = sparse_gaussian_sketch(sy, s, RngState(int(gen.integers(1_000_000))))
        full = np.zeros((m, s))
        full[got.shift:got.shift + s, :] = got.factor.a
        want_m = full.T @ sy.A.a
        want_r = full.T @ sy.b.a
        scale = max(1.0, float(np.max(np.abs(want_m))), float(np.max(np.abs(want_r))))
        assert np.max(np.abs(got.M.a - want_m)) <= 1e-12 * scale
        assert np.max(np.abs(got.r.a - want_r)) <= 1e-12 * scale
    report(3, "structured sparse sketch equals dense embedding, abs 1e-12 x scale", started)


def test_c04_monotone_error():
    # Tracked squared error never increases on any recorded step, beyond
    # a floating-point slack of 1e-10 times the initial squared error;
    # 20 seeded runs spanning every method, all iterations recorded.
    started = time.perf_counter()
    runs = 0
    for seed, method in enumerate(METHOD_NAMES * 4):
        kind = "coherent" if seed % 2 else "gaussian"
        sy = generate_system(ModelSpec(kind, 100, 10, seed=seed))
        cfg = SolverConfig(
            method, s=5, tol=0.0, max_iters=400, seed=seed, record_error=True,
            record_dense_limit=400, record_stride=1,
        )
        _, trace = run(sy, cfg)
        errors = [r.error_sq for r in trace.records]
        slack = 1e-10 * errors[0]
        for prev, cur in zip(errors, errors[1:]):
            assert cur <= prev + slack
        runs += 1
    assert runs == 20
    report(4, "squared error non-increasing on 20 runs, slack 1e-10 x initial", started)


def test_c05_contraction_improves_with_sketch_size(coherent_1000x50):
    # On a coherent 1000x50 system the median mean-contraction factor of
    # the dense-Gaussian method strictly decreases as s grows through
    # {2, 8, 32, 128} (10 trials each).
    started = time.perf_counter()
    medians = []
    for s in (2, 8, 32, 128):
        factors = []
        for trial in range(10):
            cfg = SolverConfig(
                "gsm", s=s, tol=0.0, max_iters=600, seed=trial, record_error=True,
                record_dense_limit=600, record_stride=1,
            )
            _, trace = run(coherent_1000x50, cfg)
            factors.append(contraction_summary(trace))
        medians.append(float(np.median(factors)))
    assert medians[0] > medians[1] > medians[2] > medians[3]
    text = " > ".join(f"{v:.6f}" for v in medians)
    report(5, f"median contraction for s in (2, 8, 32, 128): {text}", started)


def test_c06_sketched_beat_kaczmarz_on_coherent(coherent_1000x50):
    # Coherent 1000x50, s = 25: median iterations to squared error
    # 1e-6 x initial are strictly smaller for both dense and sparse
    # Gaussian sketching than for randomized Kaczmarz (10 trials).
    started = time.perf_counter()

    def median_iters(method, s, cap):
        vals = [
            iters_to_error_threshold(coherent_1000x50, method, s, trial, 1e-6, cap)
            for trial in range(10)
        ]
        return float(np.median(vals))

    kaczmarz = median_iters("kaczmarz", 1, 400_000)
    gsm = median_iters("gsm", 25, 100_000)
    sgsm = median_iters("sgsm", 25, 100_000)
    assert gsm < kaczmarz
    assert sgsm < kaczmarz
    report(6, f"median iterations: gsm {gsm:.0f}, sgsm {sgsm:.0f} < kaczmarz {kaczmarz:.0f}", started)


def test_c07_method_ordering_on_gaussian_model():
    # Gaussian iid 1000x50, s = 25, 10 trials: the three sketched methods'
    # median iterations-to-threshold agree within a factor of 2; the full
    # max-residual method needs no more than any sketched one; randomized
    # Kaczmarz needs at least as many as every other method.
    started = time.perf_counter()
    sy = generate_system(ModelSpec("gaussian", 1000, 50, seed=0))

    def median_iters(method, s, cap):
        vals = [
            iters_to_error_threshold(sy, method, s, trial, 1e-6, cap)
            for trial in range(10)
        ]
        return float(np.median(vals))

    medians = {
        "kaczmarz": median_iters("kaczmarz", 1, 100_000),
        "motzkin": median_iters("motzkin", 1, 100_000),
        "skm": median_iters("skm", 25, 100_000),
        "gsm": median_iters("gsm", 25, 100_000),
        "sgsm": median_iters("sgsm", 25, 100_000),
    }
    sketched = [medians["skm"], medians["gsm"], medians["sgsm"]]
    assert max(sketched) <= 2.0 * min(sketched)
    assert all(medians["motzkin"] <= v for v in sketched)
    assert all(medians["kaczmarz"] >= v for k, v in medians.items() if k != "kaczmarz")
    text = ", ".join(f"{k} {v:.0f}" for k, v in medians.items())
    report(7, f"median iterations: {text}", started)


def test_c08_sparse_sweep_has_interior_time_minimum():
    # Time-to-threshold for the sparse method over s in {1, 2, 5, 10, 20,
    # 50, 100} on coherent 1000x100: some interior s beats both endpoints
    # on median time (10 trials).
    started = time.perf_counter()
    sy = generate_system(ModelSpec("coherent", 1000, 100, seed=0))
    s_values = [1, 2, 5, 10, 20, 50, 100]
    rows = run_sweep(sy, "sgsm", s_values, 1e-6, trials=10, max_iters=3_000_000, seed=0)
    times = {}
    for s_text, _, _, ns_text in rows:
        times.setdefault(int(s_text), []).append(
            math.inf if ns_text == "DNF" else int(ns_text) / 1e9
        )
    medians = {s: float(np.median(times[s])) for s in s_values}
    interior = {s: v for s, v in medians.items() if 1 < s < 100}
    best = min(interior, key=interior.get)
    assert interior[best] < medians[1]
    assert interior[best] < medians[100]
    text = ", ".join(f"s={s}: {medians[s]:.2f}s" for s in s_values)
    report(8, f"median time minimized at s={best} ({text})", started)


def test_c09_kaczmarz_sampling_law():
    # Selection frequencies over 1e5 steps on a 50-row system with spread
    # row norms match the squared-norm law within 0.01 absolute.
    started = time.perf_counter()
    gen = np.random.default_rng(6)
    a = gen.standard_normal((50, 5))
    a *= (1.0 + np.arange(50.0) % 7.0)[:, None]
    x_star = gen.standard_normal(5)
    sy = LinearSystem(DenseMatrix(a), RealVector(a @ x_star), RealVector(x_star))
    weights = np.einsum("ij,ij->i", a, a)
    probs = weights / weights.sum()
    stepper = Stepper(sy, SolverConfig("kaczmarz", seed=7))
    counts = np.zeros(50)
    x = RealVector(np.zeros(5))
    for _ in range(100_000):
        x, _, i = stepper.step(x)
        counts[i] += 1
    deviation = float(np.max(np.abs(counts / 100_000 - probs)))
    assert deviation <= 0.01
    report(9, f"max |frequency - probability| = {deviation:.4f} <= 0.01", started)


def test_c10_cli_determinism_all_methods(tmp_path):
    # Rerunning solve with identical arguments yields a byte-identical
    # trace CSV once the elapsed_ns column is dropped, for all five
    # methods.
    started = time.perf_counter()
    system_path = tmp_path / "sys.bin"
    save_system(generate_system(ModelSpec("gaussian", 60, 10, seed=8)), system_path)
    for method in METHOD_NAMES:
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["solve", "--system", str(system_path), "--method", method, "--s", "5",
                "--seed", "3", "--tol", "1e-10", "--max-iters", "300"]
        assert main(argv + ["--trace", str(first)]) == 0
        assert main(argv + ["--trace", str(second)]) == 0
        with open(first, newline="") as fh:
            rows_a = [row[:-1] for row in csv.reader(fh)]
        with open(second, newline="") as fh:
            rows_b = [row[:-1] for row in csv.reader(fh)]
        assert rows_a == rows_b, method
        assert len(rows_a) > 1
    report(10, "solve reruns byte-identical except elapsed, all methods", started)
