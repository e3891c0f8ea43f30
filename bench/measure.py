"""Measure one sketchsolve benchmark workload and print its metrics.

Usually started by bench/run.py, which pins the environment and adds the
peak resident memory of this process.  Run directly:

    python3 bench/measure.py --workload coherent-race --seed 0 --seconds 25 --trace 0

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  bench/README.md explains the
workloads and what each metric should move.

The benchmark measures from outside the package: it calls public
functions only, and its spans come from its own wrappers around them.
"""

from __future__ import annotations

import os

# BLAS threads change the cost of a dense sketch step several-fold from run
# to run, so the pool is pinned to one thread before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import csv
import dataclasses
import io
import json
import platform
import signal
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BUILD_DIR = ROOT / ".bench_build"

if not (SRC / "sketchsolve" / "__init__.py").is_file():
    sys.exit(f"error: no sketchsolve sources under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import sketchsolve  # noqa: E402
import sketchsolve.cli  # noqa: E402
from sketchsolve import (  # noqa: E402
    CONVERGED,
    LinearSystem,
    ModelSpec,
    RealVector,
    RngState,
    SketchsolveError,
    SolverConfig,
    block_sketch,
    condition_kappa_tilde,
    gaussian_sketch,
    generate_system,
    load_system,
    project_row,
    save_system,
    select_max_residual,
    sparse_gaussian_sketch,
)

if Path(sketchsolve.__file__).resolve().parent != (SRC / "sketchsolve").resolve():
    sys.exit(f"error: imported sketchsolve from {sketchsolve.__file__}, not from {SRC}")

WORKERS_ENV = "SKETCHSOLVE_WORKERS"

# Every system is drawn from model seed 0, the acceptance tests' seed.  The
# bench seed sets the trial seeds only: steps to threshold differ by about 12%
# (quartile spread) between systems of different model seeds, which would
# swamp any regression bound, while they differ by under 1% between trial
# seeds on one system once a pass holds a few trials.
MODEL_SEED = 0

# Trial t of a pass uses seed TRIAL_STRIDE * bench_seed + t, so the trial
# seeds of different bench seeds never overlap.
TRIAL_STRIDE = 1000

ERROR_FRAC = 1e-6  # coherent-race and sgsm-sweep: squared error <= 1e-6 x initial
RESIDUAL_TOL = 1e-8  # gaussian-compare: the CLI default residual tolerance
SWEEP_S = (1, 2, 5, 10, 20, 50, 100)

# The discarded warm-up pass runs every solve for at most this many steps:
# enough to reach every code path, where a full pass would cost a quarter
# of the run.
WARMUP_STEPS = 2000

# Set-ups per batch; a batch runs before the warm-up and after every pass.
SETUP_BATCH = 8

# The gated timings are taken at a reference host speed.  A shared host runs
# the same code up to 1.8x slower while a co-tenant is busy, switching within
# a second and in a mix that changes over minutes.  A fixed pure-Python loop
# slows by the same factor (within 1% for interpreter-bound solves, 10% for
# gsm).  It is timed before and after every timed call and, from a SIGALRM
# handler, every SAMPLE_S seconds during it, and the call's wall time is
# scaled by the mean of REFERENCE_S / (the loop's time) over those samples.
# REFERENCE_S is the loop's time on an uncontended core of the 2-vCPU box
# the bounds were set on, so a timing reads as seconds on that box.
REFERENCE_LOOPS = 15_000
REFERENCE_S = 0.00085
SAMPLE_S = 0.05


def reference_s() -> float:
    """Seconds one run of the reference loop takes now."""
    start = time.perf_counter_ns()
    total = 0
    for i in range(REFERENCE_LOOPS):
        total += i * i % 7
    return (time.perf_counter_ns() - start) / 1e9


@dataclass
class Timing:
    seconds: float  # wall time of the call, the reference samples taken during it left out
    factor: float  # mean of REFERENCE_S / sample over the samples: 1 on an uncontended core
    overhead_s: float  # wall time of all the reference samples

    @property
    def scaled_s(self) -> float:
        """The call's seconds at the reference host speed."""
        return self.seconds * self.factor


def timed(fn):
    """Call fn() between reference samples, with more taken every SAMPLE_S
    seconds while it runs; return its result and its Timing."""
    samples = [reference_s()]
    previous = signal.signal(signal.SIGALRM, lambda *_: samples.append(reference_s()))
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
    start = time.perf_counter_ns()
    try:
        result = fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = (time.perf_counter_ns() - start) / 1e9
        signal.signal(signal.SIGALRM, previous)
    seconds -= sum(samples[1:])
    samples.append(reference_s())
    factor = statistics.fmean(REFERENCE_S / r for r in samples)
    return result, Timing(seconds, factor, sum(samples))


# Every cell some workload runs.  Per-cell layer metrics are reported on every
# workload: a cell outside the workload's campaign is measured on the
# workload's own system, and its steps and seconds to threshold come from one
# probe solve under the workload's stopping rule.
ALL_CELLS = (("kaczmarz", 1), ("motzkin", 1), ("skm", 25), ("gsm", 25), ("sgsm", 25)) + tuple(
    ("sgsm", s) for s in SWEEP_S
)
SKETCHED = ("skm", "gsm", "sgsm")


def cell_name(method: str, s: int) -> str:
    return method if method not in SKETCHED else f"{method}.s{s}"


@dataclass(frozen=True)
class Workload:
    """One serial campaign: cells x trials on one generated system."""

    name: str
    model: str
    m: int
    n: int
    cells: tuple[tuple[str, int], ...]
    trials: int
    max_iters: int
    # True: the CLI compare defaults (residual tol 1e-8, dense recording up
    # to 10k steps).  False: the c06/c08 rule (squared error 1e-6 x initial,
    # dense to 2000 then every 20th step).
    residual_stop: bool = False

    def config(self, system, method: str, s: int, seed: int, max_iters: int | None = None) -> SolverConfig:
        """The solver settings one solve of this campaign uses."""
        max_iters = max_iters or self.max_iters
        if self.residual_stop:
            return SolverConfig(method, s=s, max_iters=max_iters, tol=RESIDUAL_TOL, seed=seed, record_error=True)
        xs = system.x_star.a
        return SolverConfig(
            method, s=s, max_iters=max_iters, tol=0.0, seed=seed, record_error=True,
            error_stop=ERROR_FRAC * float(xs @ xs), record_dense_limit=2000, record_stride=20,
        )

    def solved(self, system, x) -> bool:
        """Recompute the stopping rule from the returned iterate."""
        if self.residual_stop:
            residual = float(np.linalg.norm(system.A.a @ x.a - system.b.a))
            return residual <= RESIDUAL_TOL * (1.0 + system.b_norm)
        xs = system.x_star.a
        diff = x.a - xs
        return float(diff @ diff) <= ERROR_FRAC * float(xs @ xs)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("coherent-race", "coherent", 1000, 50,
                 (("kaczmarz", 1), ("motzkin", 1), ("skm", 25), ("gsm", 25), ("sgsm", 25)),
                 trials=2, max_iters=400_000),
        Workload("sgsm-sweep", "coherent", 1000, 100, tuple(("sgsm", s) for s in SWEEP_S),
                 trials=2, max_iters=3_000_000),
        Workload("gaussian-compare", "gaussian", 1000, 50,
                 (("kaczmarz", 1), ("motzkin", 1), ("skm", 25), ("sgsm", 25)),
                 trials=20, max_iters=20_000, residual_stop=True),
    )
}


class Tracer:
    """Spans kept in memory: name, start and end (ns), parent span index and
    solve id.  A disabled tracer records nothing."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._open: list[int] = []

    def span(self, name: str, solve: int | None = None):
        if not self.enabled:
            return contextlib.nullcontext()
        return self._span(name, solve)

    @contextlib.contextmanager
    def _span(self, name, solve):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append({"name": name, "start_ns": time.perf_counter_ns(), "end_ns": None,
                           "parent": parent, "solve": solve})
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index]["end_ns"] = time.perf_counter_ns()

    def self_ns(self, index: int) -> int:
        """Duration of a span minus the durations of its direct children."""
        span = self.spans[index]
        children = sum(c["end_ns"] - c["start_ns"] for c in self.spans[index + 1:] if c["parent"] == index)
        return span["end_ns"] - span["start_ns"] - children

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.spans))


@dataclass
class Solve:
    cell: str
    seed: int
    iters: int
    records: int
    seconds: float  # wall time of the run call
    ok: bool
    scaled_s: float  # seconds at the reference host speed
    factor: float  # see Timing


class Recorder:
    """Runs and times every solve of a pass, checks its iterate, and stands
    in for sketchsolve.cli's `run` and `load_system` while a pass runs."""

    def __init__(self, workload: Workload, tracer: Tracer):
        self.workload = workload
        self.tracer = tracer
        self.solves: list[Solve] = []
        self.overhead_s = 0.0  # wall time of the reference samples around and during the solves
        self._run = sketchsolve.run
        self._load = sketchsolve.cli.load_system

    def run(self, system, config, x0=None):
        solve_id = len(self.solves)
        # The span holds the solve's reference samples too, so that the
        # cli layer's self time leaves them out.
        with self.tracer.span("solvers.run", solve_id):
            (x, trace), timing = timed(lambda: self._run(system, config, x0))
        self.overhead_s += timing.overhead_s
        ok = trace.status == CONVERGED and self.workload.solved(system, x)
        self.solves.append(Solve(cell_name(config.method, config.s), config.seed, trace.final.iter,
                                 len(trace.records), timing.seconds, ok, timing.scaled_s, timing.factor))
        return x, trace

    def load_system(self, path):
        with self.tracer.span("problems.load_system"):
            return self._load(path)

    @contextlib.contextmanager
    def patched_cli(self):
        saved = sketchsolve.cli.run, sketchsolve.cli.load_system
        sketchsolve.cli.run, sketchsolve.cli.load_system = self.run, self.load_system
        try:
            yield
        finally:
            sketchsolve.cli.run, sketchsolve.cli.load_system = saved


@dataclass
class Context:
    workload: Workload
    system: LinearSystem
    base_seed: int
    system_path: Path
    csv_path: Path


# ---------------------------------------------------------------------------
# one pass per workload: returns the number of solves the pass failed on
# pass-level checks (the per-solve iterate checks live in Recorder)


def race_pass(ctx: Context, rec: Recorder) -> int:
    w = ctx.workload
    for method, s in w.cells:
        for trial in range(w.trials):
            rec.run(ctx.system, w.config(ctx.system, method, s, ctx.base_seed + trial))
    return 0


def sweep_pass(ctx: Context, rec: Recorder) -> int:
    w = ctx.workload
    s_values = [s for _, s in w.cells]
    with rec.tracer.span("cli.run_sweep"), rec.patched_cli():
        rows = sketchsolve.cli.run_sweep(ctx.system, "sgsm", s_values, ERROR_FRAC, trials=w.trials,
                                         max_iters=w.max_iters, seed=ctx.base_seed)
    reported = [(f"sgsm.s{s}", int(iters)) for s, _, iters, _ in rows if iters != "DNF"]
    if reported != [(solve.cell, solve.iters) for solve in rec.solves]:
        return len(rows)
    return 0


def compare_argv(ctx: Context) -> list[str]:
    w = ctx.workload
    methods = ",".join(m if m not in SKETCHED else f"{m}:{s}" for m, s in w.cells)
    return ["compare", "--system", str(ctx.system_path), "--methods", methods, "--trials", str(w.trials),
            "--max-iters", str(w.max_iters), "--seed", str(ctx.base_seed), "--out", str(ctx.csv_path)]


def compare_pass(ctx: Context, rec: Recorder) -> int:
    with rec.tracer.span("cli.main"), rec.patched_cli(), contextlib.redirect_stdout(io.StringIO()):
        code = sketchsolve.cli.main(compare_argv(ctx))
    return 0 if code == 0 else len(ctx.workload.cells) * ctx.workload.trials


def check_compare_csv(ctx: Context, solves: list[Solve]) -> int:
    """Check the compare CSV against the solves behind it; returns the
    number of solves whose rows are wrong (all of them if the file is)."""
    with open(ctx.csv_path, newline="") as handle:
        rows = list(csv.reader(handle))[1:]
    if len(rows) != sum(s.records for s in solves):
        return len(solves)
    finals = {}
    for method, s, trial, *_, residual, _ in rows:
        finals[(method, s, int(trial))] = float(residual)
    expected = {(m, "" if m not in SKETCHED else str(s), t)
                for m, s in ctx.workload.cells for t in range(ctx.workload.trials)}
    bound = RESIDUAL_TOL * (1.0 + ctx.system.b_norm)
    return len(expected ^ finals.keys()) + sum(1 for r in finals.values() if not r <= bound)


def check_against_direct_run(ctx: Context) -> bool:
    """One cell's CSV rows must equal a direct `run` trace, except elapsed_ns."""
    w = ctx.workload
    method, s = w.cells[-1]
    _, trace = sketchsolve.run(ctx.system, w.config(ctx.system, method, s, ctx.base_seed))
    with open(ctx.csv_path, newline="") as handle:
        rows = [r[3:6] for r in csv.reader(handle) if r[:3] == [method, str(s), "0"]]
    expected = [[str(r.iter), repr(r.error_sq), repr(r.residual_norm)] for r in trace.records]
    return rows == expected


PASSES = {"coherent-race": race_pass, "sgsm-sweep": sweep_pass, "gaussian-compare": compare_pass}


# ---------------------------------------------------------------------------
# measurement


class Setup:
    """Builds what a campaign builds once, and times it.

    A batch of set-ups runs before the warm-up and after every timed pass,
    so the samples spread over the whole run.  Times are at the reference
    host speed."""

    def __init__(self, workload: Workload, tracer: Tracer, system_path: Path):
        self.spec = ModelSpec(workload.model, workload.m, workload.n, MODEL_SEED)
        self.with_file = workload.residual_stop  # only gaussian-compare reads its system from a file
        self.tracer = tracer
        self.path = system_path
        self.seconds: list[float] = []
        self.ms: dict[str, list[float]] = {"generate": [], "kappa_tilde": [], "save": [], "load": []}

    def one(self):
        """One set-up: the system, its copy read back from the file, and the
        layer boundaries in ns."""
        tracer = self.tracer
        with tracer.span("bench.setup"):
            t0 = time.perf_counter_ns()
            with tracer.span("problems.generate_system"):
                system = generate_system(self.spec)
            t1 = time.perf_counter_ns()
            with tracer.span("linalg.condition_kappa_tilde"):
                condition_kappa_tilde(system.A)
            t2 = time.perf_counter_ns()
            with tracer.span("problems.save_system"):
                save_system(system, self.path)
            t3 = time.perf_counter_ns()
            with tracer.span("problems.load_system"):
                loaded = load_system(self.path)
            t4 = time.perf_counter_ns()
        return system, loaded, (t0, t1, t2, t3, t4)

    def run_batch(self) -> LinearSystem:
        for _ in range(SETUP_BATCH):
            # A set-up takes a few milliseconds, far less than SAMPLE_S, so no
            # reference sample falls inside the layer timings.
            (system, loaded, (t0, t1, t2, t3, t4)), timing = timed(self.one)
            for key, (a, b) in {"generate": (t0, t1), "kappa_tilde": (t1, t2), "save": (t2, t3),
                                "load": (t3, t4)}.items():
                self.ms[key].append((b - a) / 1e6 * timing.factor)
            self.seconds.append((t4 - t0 if self.with_file else t2 - t0) / 1e9 * timing.factor)
        if not np.array_equal(loaded.A.a, system.A.a) or not np.array_equal(loaded.b.a, system.b.a):
            raise SystemExit("error: save_system/load_system round trip changed the system")
        return system


@dataclass
class PassResult:
    seconds: float  # wall time, reference samples included
    outside_s: float  # time outside the solves and reference samples, at the reference speed
    factor: float  # median of the solves' factors (see Timing)
    solves: list[Solve]
    failed: int
    spans: range  # indices of the pass's spans in the tracer


def one_pass(ctx: Context, tracer: Tracer) -> PassResult:
    rec = Recorder(ctx.workload, tracer)
    first_span = len(tracer.spans)
    failed_extra = 0
    with tracer.span("bench.pass"):
        start = time.perf_counter_ns()
        try:
            failed_extra = PASSES[ctx.workload.name](ctx, rec)
        except SketchsolveError as exc:
            print(f"pass failed: {exc!r}", file=sys.stderr)
            failed_extra = len(ctx.workload.cells) * ctx.workload.trials
        seconds = (time.perf_counter_ns() - start) / 1e9
    outside = seconds - sum(s.seconds for s in rec.solves) - rec.overhead_s
    factor = statistics.median(s.factor for s in rec.solves) if rec.solves else 1.0
    if ctx.workload.name == "gaussian-compare" and not failed_extra:
        failed_extra = check_compare_csv(ctx, rec.solves)
    failed = min(len(ctx.workload.cells) * ctx.workload.trials,
                 failed_extra + sum(not s.ok for s in rec.solves))
    return PassResult(seconds, outside * factor, factor, rec.solves, failed, range(first_span, len(tracer.spans)))


def typical_pass(passes: list[PassResult]) -> float:
    """Seconds of a pass at the reference host speed: the sum over solves of
    their median time over the passes, plus the median time a pass spent
    outside its solves."""
    by_solve: dict[tuple[str, int], list[float]] = {}
    for p in passes:
        for s in p.solves:
            by_solve.setdefault((s.cell, s.seed), []).append(s.scaled_s)
    return sum(statistics.median(v) for v in by_solve.values()) + statistics.median(p.outside_s for p in passes)


def per_cell(passes: list[PassResult], attr: str) -> dict[str, float]:
    """Median of a per-solve value over a cell's solves in every pass (steps
    are equal in every pass; seconds are not)."""
    by_cell: dict[str, list[float]] = {}
    for p in passes:
        for s in p.solves:
            by_cell.setdefault(s.cell, []).append(getattr(s, attr))
    return {cell: statistics.median(v) for cell, v in by_cell.items()}


def samples_us(fn, inner: int, repeats: int = 7) -> list[float]:
    """Mean microseconds of one call to fn at the reference host speed, once
    per repeat."""
    samples = []
    for _ in range(repeats):
        _, timing = timed(lambda: [fn() for _ in range(inner)])
        samples.append(timing.scaled_s / inner * 1e6)
    return samples


def median_iqr(samples) -> tuple[float, float]:
    q1, q2, q3 = statistics.quantiles(samples, n=4)
    return q2, q3 - q1


def step_budget(method: str, s: int) -> int:
    """Steps per run_step timing, sized to take tens of milliseconds."""
    if method == "gsm":
        return 100
    if method == "sgsm":
        return 1000 if s <= 25 else 20_000 // s
    return {"kaczmarz": 2000, "motzkin": 1000, "skm": 2000}[method]


def micro(ctx: Context, tracer: Tracer, iters: dict[str, float]) -> dict[str, list[float]]:
    """Public-function timings on the workload's own system, in
    microseconds, one sample per repeat."""
    system, seed = ctx.system, ctx.base_seed
    n = system.A.cols
    x = RealVector(np.linspace(-1.0, 1.0, n))
    out = {}
    with tracer.span("rng.RngState"):
        out["rng.init_us"] = samples_us(lambda: RngState(seed), 200)

    builders = {"skm": block_sketch, "gsm": gaussian_sketch, "sgsm": sparse_gaussian_sketch}
    for method, s in ALL_CELLS:
        if method in builders:
            rng = RngState(seed)
            build = builders[method]
            with tracer.span(f"sketch.{build.__name__}"):
                inner = 20 if method == "gsm" else 200
                out[f"sketch.build_us.{cell_name(method, s)}"] = samples_us(lambda: build(system, s, rng), inner)

    with tracer.span("solvers.select_max_residual"):
        out["solvers.select_us.motzkin"] = samples_us(lambda: select_max_residual(system.A, system.b, x), 100)
        sketch = gaussian_sketch(system, 25, RngState(seed))
        out["solvers.select_us.gsm.s25"] = samples_us(lambda: select_max_residual(sketch.M, sketch.r, x), 200)
    with tracer.span("solvers.project_row"):
        row, beta = RealVector(system.A.a[0].copy()), float(system.b.a[0])
        out["solvers.project_us"] = samples_us(lambda: project_row(x, row, beta), 500)

    # Steps stay below each cell's median steps to threshold, so that no
    # timed step is a no-op at roundoff level.
    for method, s in ALL_CELLS:
        name = cell_name(method, s)
        k = max(1, min(step_budget(method, s), int(iters[name]) // 2))
        config = SolverConfig(method, s=s, max_iters=k, tol=0.0, seed=seed, record_dense_limit=0, record_stride=k)
        with tracer.span("solvers.run"):
            out[f"solvers.run_step_us.{name}"] = [t / k for t in samples_us(lambda: sketchsolve.run(system, config), 1, 5)]

    # Recording draws no randomness: the same steps with every step recorded
    # give the same iterates, so the difference is the cost of the records.
    k = max(1, min(2000, int(iters["kaczmarz"]) // 2))
    sparse = SolverConfig("kaczmarz", max_iters=k, tol=0.0, seed=seed, record_error=True,
                          record_dense_limit=0, record_stride=k)
    dense = dataclasses.replace(sparse, record_dense_limit=k)
    with tracer.span("solvers.run"):
        out["solvers.record_us"] = [(samples_us(lambda: sketchsolve.run(system, dense), 1, 1)[0]
                                     - samples_us(lambda: sketchsolve.run(system, sparse), 1, 1)[0]) / k
                                    for _ in range(5)]
    return out


def probe(ctx: Context, cells) -> dict[str, tuple[int, float]]:
    """Steps and seconds to threshold (at the reference host speed) of one
    solve per cell outside the workload's campaign, under the workload's own
    stopping rule."""
    out = {}
    w = ctx.workload
    for method, s in cells:
        config = w.config(ctx.system, method, s, ctx.base_seed, max_iters=10 * w.max_iters)
        (x, trace), timing = timed(lambda: sketchsolve.run(ctx.system, config))
        if trace.status != CONVERGED or not w.solved(ctx.system, x):
            raise SystemExit(f"error: probe solve of {cell_name(method, s)} did not reach the threshold")
        out[cell_name(method, s)] = (trace.final.iter, timing.scaled_s)
    return out


def measure(workload: Workload, seed: int, seconds: float, trace: bool, build_dir: Path = BUILD_DIR) -> dict:
    """Run one workload: set-up, a discarded warm-up pass, then timed passes
    until `seconds` have passed, two at least (one with trace).  With trace,
    passes alternate between untraced and traced, and the layer metrics are
    measured after them."""
    build_dir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer(trace)
    quiet = Tracer(False)
    with tempfile.TemporaryDirectory(dir=build_dir) as tmp:
        system_path, csv_path = Path(tmp) / "system.bin", Path(tmp) / "compare.csv"
        setup = Setup(workload, tracer, system_path)
        system = setup.run_batch()
        ctx = Context(workload, system, TRIAL_STRIDE * seed, system_path, csv_path)

        # Warm-up: every solve of a pass, cut off after WARMUP_STEPS steps.
        capped = dataclasses.replace(workload, max_iters=WARMUP_STEPS)
        warmup = one_pass(dataclasses.replace(ctx, workload=capped), quiet)
        untraced, traced = [], []
        cores = sorted(os.sched_getaffinity(0))
        # The gated figures are medians over passes, so an untraced run times
        # two passes at least; a traced run reports no gated figure.
        min_passes = 1 if trace else 2
        start = time.perf_counter()
        try:
            while len(untraced) < min_passes or time.perf_counter() - start < seconds:
                # Each core of a shared host runs slow while a co-tenant keeps
                # its sibling busy, and the cores do so independently: taking
                # turns keeps a run's medians from resting on one core.
                os.sched_setaffinity(0, {cores[len(untraced) % len(cores)]})
                untraced.append(one_pass(ctx, quiet))
                if trace:
                    traced.append(one_pass(ctx, tracer))
                setup.run_batch()
        finally:
            os.sched_setaffinity(0, cores)
        runs = untraced + traced
        direct_ok = workload.name != "gaussian-compare" or check_against_direct_run(ctx)

        # Steps and records are exact for fixed seeds: every run of a solve
        # must repeat them.
        counts: dict[tuple[str, int], set[tuple[int, int]]] = {}
        for p in runs:
            for solve in p.solves:
                counts.setdefault((solve.cell, solve.seed), set()).add((solve.iters, solve.records))
        attempted = len(runs) * len(workload.cells) * workload.trials
        failed = sum(p.failed for p in runs) + (0 if direct_ok else 1)
        if any(len(c) != 1 for c in counts.values()):
            print("error: a solve's steps or records differ between its runs", file=sys.stderr)
            failed = attempted
        failed = min(failed, attempted)

        campaign_s = typical_pass(untraced)
        iters_total = sum(s.iters for s in untraced[0].solves)
        metrics = {
            "campaign_s": (campaign_s, "s"),
            "steps_per_s": (iters_total / campaign_s, "1/s"),
            "iters_total": (iters_total, "steps"),
            "best_tts_s": (min(per_cell(untraced, "scaled_s").values()), "s"),
            "setup_s": (statistics.median(setup.seconds), "s"),
            "pass_frac": (1.0 - failed / attempted, "fraction"),
        }
        iqr = {}
        if trace:
            metrics, iqr = layer_metrics(ctx, tracer, untraced, traced, setup.ms)
            tracer.write(build_dir / "spans" / f"{workload.name}-seed{seed}.json")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "passes": {"warmup_s": warmup.seconds, "pass_s": [p.seconds for p in untraced],
                   "factor": [p.factor for p in untraced]},
        "iqr": iqr,
    }


def layer_metrics(ctx, tracer, untraced, traced, setup_ms) -> dict:
    iters = per_cell(untraced, "iters")
    tts = per_cell(untraced, "scaled_s")
    outside = [(m, s) for m, s in ALL_CELLS if cell_name(m, s) not in iters]
    for name, (steps, seconds) in probe(ctx, outside).items():
        iters[name], tts[name] = steps, seconds

    samples = {
        "problems.generate_ms": setup_ms["generate"],
        "problems.save_ms": setup_ms["save"],
        "problems.load_ms": setup_ms["load"],
        "linalg.kappa_tilde_ms": setup_ms["kappa_tilde"],
        **micro(ctx, tracer, iters),
    }
    out, iqr = {}, {}
    for name, values in samples.items():
        median, iqr[name] = median_iqr(values)
        out[name] = (median, "ms" if "_ms" in name else "us")

    campaign_s = typical_pass(untraced)
    records = sum(s.records for s in untraced[0].solves)
    out["solvers.records"] = (records, "count")
    out["solvers.record_share"] = (records * out["solvers.record_us"][0] / 1e6 / campaign_s, "fraction")
    for method, s in ALL_CELLS:
        name = cell_name(method, s)
        out[f"solvers.iters.{name}"] = (iters[name], "steps")
        out[f"solvers.tts_s.{name}"] = (tts[name], "s")

    # The harness layer's own time: the cli call's span minus its run and
    # load_system children.  coherent-race calls no cli function, so there
    # it is the benchmark loop's own time around its run calls.
    self_s = []
    for p in traced:
        top = next((i for i in p.spans if tracer.spans[i]["name"].startswith("cli.")), p.spans[0])
        self_s.append(tracer.self_ns(top) / 1e9 * p.factor)
    out["cli.self_s"] = (statistics.median(self_s), "s")
    out["bench.trace_overhead"] = (typical_pass(traced) / campaign_s - 1.0, "fraction")
    return out, iqr


def environment(workload: str, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "workers": int(os.environ.get(WORKERS_ENV, "1")),
        "blas_threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "workload": workload,
        "seed": seed,
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def check_workers():
    raw = os.environ.get(WORKERS_ENV, "1")
    try:
        workers = int(raw)
    except ValueError:
        sys.exit(f"error: {WORKERS_ENV} must be an integer, got {raw!r}")
    if workers != 1:
        # Pool timings measure the scheduler, not the solver.
        sys.exit(f"error: the benchmark runs trials serially; unset {WORKERS_ENV} (got {workers})")


def main(argv=None) -> int:
    args = parse_args(argv)
    check_workers()
    print(json.dumps({"env": environment(args.workload, args.seed)}))
    result = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"passes": result.pop("passes")}))
    iqr = result.pop("iqr")
    if iqr:
        print(json.dumps({"iqr": iqr}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
