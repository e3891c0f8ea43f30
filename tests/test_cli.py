"""Command-line interface tests.

Commands run in-process through main(argv); stdout is parsed with the
same text formats the CLI documents. Determinism checks compare CSV
output with the elapsed_ns column blanked.
"""

import csv
import subprocess
import sys

import numpy as np
import pytest

import sketchsolve.cli
from sketchsolve import (
    DenseMatrix,
    LinearSystem,
    ModelSpec,
    RealVector,
    SolverConfig,
    condition_kappa_tilde,
    generate_system,
    load_system,
    run,
    save_system,
)
from sketchsolve.cli import TRACE_HEADER, main

GAUSS_ARGS = ["--model", "gaussian", "--rows", "40", "--cols", "8", "--model-seed", "3"]
# What each campaign needs beyond a system and an output path.
CAMPAIGNS = {
    "compare": ["--methods", "motzkin"],
    "sweep": ["--method", "sgsm", "--s-list", "2,8", "--threshold", "1e-4"],
}


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


def without_elapsed(rows):
    return [row[:-1] for row in rows]


def stdout_value(out, key):
    for line in out.splitlines():
        if line.startswith(key + ":"):
            return line.split(":", 1)[1].strip()
    raise AssertionError(f"no {key!r} line in output:\n{out}")


def record_runs(monkeypatch):
    """Stand in for sketchsolve.cli.run; returns the (system, config) pairs it solved."""
    seen = []
    real_run = sketchsolve.cli.run

    def recording(system, config, x0=None):
        seen.append((system, config))
        return real_run(system, config, x0)

    monkeypatch.setattr(sketchsolve.cli, "run", recording)
    return seen


def make_binary(tmp_path, name="sys.bin", m=40, n=8, seed=3, kind="gaussian"):
    path = tmp_path / name
    save_system(generate_system(ModelSpec(kind, m, n, seed)), path)
    return str(path)


# ---------------------------------------------------------------- generate

def test_generate_writes_loadable_system(tmp_path, capsys):
    out_path = tmp_path / "g.bin"
    code = main(["generate", "--model", "coherent", "--rows", "30", "--cols", "5",
                 "--seed", "2", "--out", str(out_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert stdout_value(out, "saved") == str(out_path)
    from sketchsolve import load_system

    sy = load_system(out_path)
    assert (sy.A.rows, sy.A.cols) == (30, 5)
    assert np.all((sy.A.a >= 0.8) & (sy.A.a <= 1.0))
    want = condition_kappa_tilde(sy.A).kappa_tilde
    assert float(stdout_value(out, "kappa_tilde")) == want


def test_generate_underdetermined_is_usage_error(tmp_path, capsys):
    code = main(["generate", "--model", "gaussian", "--rows", "3", "--cols", "5",
                 "--out", str(tmp_path / "g.bin")])
    capsys.readouterr()
    assert code == 2


# ------------------------------------------------------------------- solve

def test_solve_identity_motzkin(tmp_path, capsys):
    path = tmp_path / "id.bin"
    b = np.array([3.0, -1.0, 2.0, 0.5, 5.0])
    save_system(LinearSystem(DenseMatrix(np.eye(5)), RealVector(b), RealVector(b)), path)
    code = main(["solve", "--system", str(path), "--method", "motzkin", "--tol", "1e-12"])
    out = capsys.readouterr().out
    assert code == 0
    assert stdout_value(out, "status") == "converged"
    assert int(stdout_value(out, "iterations")) <= 5


def test_solve_gsm_converges_and_traces(tmp_path, capsys):
    system_path = make_binary(tmp_path, m=500, n=50, seed=1)
    trace_path = tmp_path / "trace.csv"
    code = main(["solve", "--system", system_path, "--method", "gsm", "--s", "10",
                 "--max-iters", "100000", "--trace", str(trace_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert stdout_value(out, "status") == "converged"
    rows = read_csv(trace_path)
    assert rows[0] == list(TRACE_HEADER)
    body = rows[1:]
    assert body[0][0] == "gsm" and body[0][1] == "10" and body[0][2] == "0"
    assert [r[3] for r in body] == [str(i) for i in range(len(body))]
    errors = [float(r[4]) for r in body]
    assert errors[-1] < errors[0]
    from sketchsolve import load_system

    b_norm = float(np.linalg.norm(load_system(system_path).b.a))
    assert float(body[-1][5]) <= 1e-8 * (1.0 + b_norm)


def test_solve_trace_empty_columns_for_plain_methods(tmp_path):
    system_path = make_binary(tmp_path)
    trace_path = tmp_path / "trace.csv"
    main(["solve", "--system", system_path, "--method", "kaczmarz",
          "--max-iters", "50", "--tol", "0", "--trace", str(trace_path)])
    body = read_csv(trace_path)[1:]
    assert all(row[1] == "" for row in body)
    assert all(row[4] != "" for row in body)  # planted system tracks error


def test_solve_csv_input_with_target_column(tmp_path, capsys):
    data = tmp_path / "m.csv"
    data.write_text("1,0,1\n0,1,1\n1,1,2\n")
    trace_path = tmp_path / "t.csv"
    code = main(["solve", "--system", str(data), "--csv", "--target-column", "2",
                 "--method", "motzkin", "--tol", "1e-10", "--trace", str(trace_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "note: b taken from a data column" in out
    body = read_csv(trace_path)[1:]
    assert all(row[4] == "" for row in body)  # no planted solution, no error column


def test_solve_same_seed_identical_trace_except_elapsed(tmp_path):
    system_path = make_binary(tmp_path, m=60, n=10, seed=9)
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["solve", "--system", system_path, "--method", "sgsm", "--s", "5",
            "--seed", "4", "--max-iters", "300", "--tol", "1e-10"]
    assert main(argv + ["--trace", str(first)]) == 0
    assert main(argv + ["--trace", str(second)]) == 0
    a, b = read_csv(first), read_csv(second)
    assert without_elapsed(a) == without_elapsed(b)
    assert len(a) > 1


# ----------------------------------------------------------------- compare

def test_compare_row_accounting_and_dnf_summaries(tmp_path, capsys):
    out_path = tmp_path / "cmp.csv"
    code = main(["compare", "--model", "coherent", "--rows", "1000", "--cols", "50",
                 "--model-seed", "3",
                 "--methods", "kaczmarz,motzkin,skm:4,gsm:4,sgsm:4",
                 "--trials", "5", "--max-iters", "25", "--tol", "0",
                 "--out", str(out_path)])
    out = capsys.readouterr().out
    assert code == 0
    rows = read_csv(out_path)
    assert rows[0] == list(TRACE_HEADER)
    body = rows[1:]
    # 5 cells x 5 trials x 26 records (iterations 0..25, never converging).
    assert len(body) == 5 * 5 * 26
    segments = {(r[0], r[1], r[2]) for r in body}
    assert len(segments) == 25
    summary_lines = [l for l in out.splitlines() if l.startswith("method=")]
    assert len(summary_lines) == 5
    assert all("converged=0/5" in l and "median_iters=DNF" in l for l in summary_lines)


def test_compare_single_cell_matches_solve(tmp_path):
    system_path = make_binary(tmp_path, m=50, n=6, seed=11)
    cmp_path, solve_path = tmp_path / "c.csv", tmp_path / "s.csv"
    assert main(["compare", "--system", system_path, "--methods", "gsm:4",
                 "--trials", "1", "--seed", "7", "--tol", "1e-9",
                 "--max-iters", "5000", "--out", str(cmp_path)]) == 0
    assert main(["solve", "--system", system_path, "--method", "gsm", "--s", "4",
                 "--seed", "7", "--tol", "1e-9", "--max-iters", "5000",
                 "--trace", str(solve_path)]) == 0
    assert without_elapsed(read_csv(cmp_path)) == without_elapsed(read_csv(solve_path))


def test_compare_plan_file_equals_flags(tmp_path):
    system_path = make_binary(tmp_path, m=40, n=8, seed=3)
    by_flags, by_plan = tmp_path / "f.csv", tmp_path / "p.csv"
    assert main(["compare", "--system", system_path, "--methods", "kaczmarz,gsm:4",
                 "--trials", "2", "--max-iters", "60", "--tol", "0", "--seed", "5",
                 "--out", str(by_flags)]) == 0
    plan = tmp_path / "plan.txt"
    plan.write_text(
        "# comparison defaults\n"
        f"system = {system_path}\n"
        "methods = kaczmarz,gsm:4\n"
        "trials = 2\n"
        "max-iters = 60\n"
        "tol = 0\n"
        "seed = 5\n"
        f"out = {by_plan}\n"
    )
    assert main(["compare", "--plan", str(plan)]) == 0
    assert without_elapsed(read_csv(by_flags)) == without_elapsed(read_csv(by_plan))


def test_compare_explicit_flag_beats_plan(tmp_path):
    system_path = make_binary(tmp_path)
    out_path = tmp_path / "c.csv"
    plan = tmp_path / "plan.txt"
    plan.write_text(f"system = {system_path}\nmethods = motzkin\ntrials = 3\n"
                    f"max-iters = 10\ntol = 0\nout = {out_path}\n")
    assert main(["compare", "--plan", str(plan), "--trials", "1"]) == 0
    trials = {row[2] for row in read_csv(out_path)[1:]}
    assert trials == {"0"}


def test_compare_requires_methods(tmp_path, capsys):
    code = main(["compare", *GAUSS_ARGS, "--out", str(tmp_path / "x.csv")])
    capsys.readouterr()
    assert code == 2


def test_compare_rejects_sketch_size_on_plain_method(tmp_path, capsys):
    code = main(["compare", *GAUSS_ARGS, "--methods", "motzkin:4",
                 "--out", str(tmp_path / "x.csv")])
    capsys.readouterr()
    assert code == 2


def test_compare_needs_sketch_size_on_sketched_method(tmp_path, capsys):
    code = main(["compare", *GAUSS_ARGS, "--methods", "kaczmarz,gsm", "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "write gsm:<s>" in capsys.readouterr().err


# ------------------------------------------------------- compare and sweep

def test_compare_defaults_are_pinned(tmp_path, monkeypatch, capsys):
    seen = record_runs(monkeypatch)
    assert main(["compare", "--model", "gaussian", "--rows", "40", "--cols", "8",
                 "--methods", "motzkin", "--out", str(tmp_path / "c.csv")]) == 0
    assert "median_iters=" in capsys.readouterr().out  # per-iteration mode
    [(system, config)] = seen
    assert np.array_equal(system.A.a, generate_system(ModelSpec("gaussian", 40, 8, 0)).A.a)
    assert config == SolverConfig("motzkin", s=1, max_iters=10_000, tol=1e-8, seed=0, record_error=True,
                                  record_dense_limit=10_000, record_stride=10)


def test_sweep_defaults_are_pinned(tmp_path, monkeypatch, capsys):
    seen = record_runs(monkeypatch)
    assert main(["sweep", "--model", "gaussian", "--rows", "40", "--cols", "8", "--method", "sgsm",
                 "--s-list", "4", "--threshold", "1e-6", "--out", str(tmp_path / "s.csv")]) == 0
    capsys.readouterr()
    [(system, config)] = seen
    x_star = generate_system(ModelSpec("gaussian", 40, 8, 0)).x_star.a
    assert np.array_equal(system.x_star.a, x_star)
    assert config == SolverConfig("sgsm", s=4, max_iters=100_000, tol=0.0, seed=0, record_error=True,
                                  error_stop=1e-6 * float(x_star @ x_star),
                                  record_dense_limit=2000, record_stride=20)


def test_campaigns_solve_through_cli_run(tmp_path, monkeypatch, capsys):
    # The benchmark records every solve by replacing these two module globals.
    seen = record_runs(monkeypatch)
    loaded = []
    monkeypatch.setattr(sketchsolve.cli, "load_system", lambda path: loaded.append(path) or load_system(path))
    system_path = make_binary(tmp_path)
    assert main(["compare", "--system", system_path, "--methods", "kaczmarz,skm:4,sgsm:4", "--trials", "2",
                 "--max-iters", "30", "--tol", "0", "--out", str(tmp_path / "c.csv")]) == 0
    assert [(c.method, c.seed) for _, c in seen] == [(m, t) for m in ("kaczmarz", "skm", "sgsm") for t in (0, 1)]
    seen.clear()
    assert main(["sweep", "--system", system_path, "--method", "sgsm", "--s-list", "2,4", "--threshold", "1e-6",
                 "--trials", "3", "--seed", "7", "--out", str(tmp_path / "s.csv")]) == 0
    capsys.readouterr()
    assert [(c.s, c.seed) for _, c in seen] == [(s, 7 + t) for s in (2, 4) for t in range(3)]
    assert loaded == [system_path, system_path]


def test_campaign_checks_every_cell_before_solving(tmp_path, monkeypatch, capsys):
    seen = record_runs(monkeypatch)
    out_path = tmp_path / "c.csv"
    assert main(["compare", *GAUSS_ARGS, "--methods", "kaczmarz,gsm:0", "--out", str(out_path)]) == 2
    assert "sketch size must be at least 1" in capsys.readouterr().err
    assert seen == []  # the valid kaczmarz cell comes first, yet nothing was solved
    assert not out_path.exists()


def test_timed_campaigns_ignore_workers_env(tmp_path, monkeypatch, capsys):
    # Campaigns run serially whatever SKETCHSOLVE_WORKERS says, and report times.
    timed = {
        "compare": ["compare", *GAUSS_ARGS, "--methods", "kaczmarz,skm:4", "--mode", "per-time",
                    "--trials", "2", "--max-iters", "20", "--tol", "0"],
        "sweep": ["sweep", *GAUSS_ARGS, *CAMPAIGNS["sweep"], "--trials", "2"],
    }
    for command, argv in timed.items():
        serial, env_set = tmp_path / f"{command}-serial.csv", tmp_path / f"{command}-env.csv"
        monkeypatch.delenv("SKETCHSOLVE_WORKERS", raising=False)
        assert main(argv + ["--out", str(serial)]) == 0
        capsys.readouterr()
        monkeypatch.setenv("SKETCHSOLVE_WORKERS", "2")
        assert main(argv + ["--out", str(env_set)]) == 0
        out = capsys.readouterr().out
        assert without_elapsed(read_csv(env_set)) == without_elapsed(read_csv(serial))
        if command == "compare":
            assert "median_time_s=" in out


@pytest.mark.parametrize("command", sorted(CAMPAIGNS))
@pytest.mark.parametrize("trials", ["0", "-1"])
def test_campaign_needs_a_positive_trial_count(tmp_path, capsys, command, trials):
    out_path = tmp_path / "o.csv"
    assert main([command, *GAUSS_ARGS, *CAMPAIGNS[command], "--trials", trials, "--out", str(out_path)]) == 2
    assert "trials must be at least 1" in capsys.readouterr().err
    assert not out_path.exists()


@pytest.mark.parametrize("command", sorted(CAMPAIGNS))
@pytest.mark.parametrize("line, key", [
    ("max_iters = 3", "max_iters"),  # the flag is max-iters
    ("trials = x", "trials"),
    ("mode = bogus", "mode"),  # a bad choice for compare, no flag of sweep
    ("method = kaczmarz", "method"),  # a bad choice for sweep, no flag of compare
])
def test_plan_bad_key_or_value_is_usage_error(tmp_path, capsys, command, line, key):
    out_path = tmp_path / "o.csv"
    flags = CAMPAIGNS[command]
    plan = tmp_path / "plan.txt"
    plan.write_text("".join(f"{flag[2:]} = {value}\n" for flag, value in zip(flags[::2], flags[1::2]))
                    + f"model = gaussian\nrows = 40\ncols = 8\nout = {out_path}\n{line}\n")
    assert main([command, "--plan", str(plan)]) == 2
    err = capsys.readouterr().err
    assert f"{key!r}" in err or f"--{key}:" in err  # the plan key, or argparse naming its flag
    assert not out_path.exists()


# ------------------------------------------------------------------- sweep

def test_sweep_full_block_equals_max_residual_run(tmp_path, capsys):
    sy = generate_system(ModelSpec("gaussian", 24, 4, seed=13))
    system_path = tmp_path / "s.bin"
    save_system(sy, system_path)
    out_path = tmp_path / "sweep.csv"
    code = main(["sweep", "--system", str(system_path), "--method", "skm",
                 "--s-list", "24", "--threshold", "1e-6", "--trials", "1",
                 "--max-iters", "10000", "--out", str(out_path)])
    capsys.readouterr()
    assert code == 0
    rows = read_csv(out_path)
    assert rows[0] == ["s", "trial", "iters_to_threshold", "time_to_threshold_ns"]
    # A full-size block sketch is the whole system, so the sweep must hit
    # the threshold at the same iteration as a plain max-residual run.
    err0 = float(sy.x_star.a @ sy.x_star.a)
    _, trace = run(sy, SolverConfig("motzkin", tol=0.0, max_iters=10_000,
                                    record_error=True, error_stop=1e-6 * err0,
                                    record_dense_limit=2000, record_stride=20))
    assert rows[1] == ["24", "0", str(trace.final.iter), rows[1][3]]


def test_sweep_iterations_fall_as_sketch_grows(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code = main(["sweep", "--model", "gaussian", "--rows", "400", "--cols", "30",
                 "--model-seed", "5", "--method", "sgsm", "--s-list", "2,8,32",
                 "--threshold", "1e-6", "--trials", "5", "--max-iters", "100000",
                 "--out", str(out_path)])
    capsys.readouterr()
    assert code == 0
    by_s = {}
    for s, _, iters, _ in read_csv(out_path)[1:]:
        by_s.setdefault(int(s), []).append(int(iters))
    medians = [np.median(by_s[s]) for s in (2, 8, 32)]
    assert medians[0] > medians[1] > medians[2]


def test_sweep_reports_dnf_when_capped(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code = main(["sweep", *GAUSS_ARGS, "--method", "gsm", "--s-list", "2",
                 "--threshold", "1e-12", "--trials", "2", "--max-iters", "5",
                 "--out", str(out_path)])
    out = capsys.readouterr().out
    assert code == 0
    body = read_csv(out_path)[1:]
    assert all(row[2] == "DNF" and row[3] == "DNF" for row in body)
    assert "median_iters_to_threshold=DNF" in out


def test_sweep_plan_file_equals_flags(tmp_path):
    by_flags, by_plan = tmp_path / "f.csv", tmp_path / "p.csv"
    assert main(["sweep", *GAUSS_ARGS, "--method", "sgsm", "--s-list", "2,4", "--threshold", "1e-6",
                 "--trials", "2", "--seed", "5", "--max-iters", "5000", "--record-dense", "100",
                 "--record-stride", "7", "--out", str(by_flags)]) == 0
    plan = tmp_path / "plan.txt"
    plan.write_text(
        "# sweep defaults\n"
        "model = gaussian\nrows = 40\ncols = 8\nmodel-seed = 3\n"
        "method = sgsm\ns-list = 2,4\nthreshold = 1e-6\n"
        "trials = 2\nseed = 5\nmax-iters = 5000\nrecord-dense = 100\nrecord-stride = 7\n"
        f"out = {by_plan}\n"
    )
    assert main(["sweep", "--plan", str(plan)]) == 0
    rows = without_elapsed(read_csv(by_flags))
    assert len(rows) == 5 and all(row[2] != "DNF" for row in rows[1:])
    assert rows == without_elapsed(read_csv(by_plan))


def test_sweep_rejects_plain_methods(capsys):
    code = main(["sweep", *GAUSS_ARGS, "--method", "kaczmarz", "--s-list", "2",
                 "--threshold", "1e-6", "--out", "x.csv"])
    capsys.readouterr()
    assert code == 2  # argparse choices reject it


# ---------------------------------------------------------------- diagnose

def test_diagnose_identity(tmp_path, capsys):
    path = tmp_path / "id.bin"
    save_system(LinearSystem(DenseMatrix(np.eye(4)), RealVector(np.ones(4))), path)
    code = main(["diagnose", "--system", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert float(stdout_value(out, "kappa_tilde")) == 4.0


def test_diagnose_padded_diagonal(tmp_path, capsys):
    a = np.zeros((4, 2))
    a[0, 0], a[1, 1] = 2.0, 1.0
    path = tmp_path / "d.bin"
    save_system(LinearSystem(DenseMatrix(a), RealVector([2.0, 1.0, 0.0, 0.0])), path)
    main(["diagnose", "--system", str(path)])
    out = capsys.readouterr().out
    assert float(stdout_value(out, "frobenius_sq")) == 5.0
    assert float(stdout_value(out, "s_min")) == pytest.approx(1.0, rel=1e-12)
    assert float(stdout_value(out, "kappa_tilde")) == pytest.approx(5.0, rel=1e-12)


def test_diagnose_matches_library_exactly(tmp_path, capsys):
    sy = generate_system(ModelSpec("coherent", 1000, 50, seed=6))
    path = tmp_path / "c.bin"
    save_system(sy, path)
    main(["diagnose", "--system", str(path)])
    out = capsys.readouterr().out
    stats = condition_kappa_tilde(sy.A)
    assert float(stdout_value(out, "kappa_tilde")) == stats.kappa_tilde
    assert float(stdout_value(out, "s_min")) == stats.s_min
    origin_range = float(stdout_value(out, "dynamic_range_origin"))
    assert 1.0 <= origin_range <= 1000.0


def test_diagnose_rank_deficient_exits_nonzero(tmp_path, capsys):
    path = tmp_path / "r.bin"
    save_system(LinearSystem(DenseMatrix(np.ones((5, 2))), RealVector(np.ones(5))), path)
    code = main(["diagnose", "--system", str(path)])
    err = capsys.readouterr().err
    assert code == 4
    assert "s_min" in err


# -------------------------------------------------------------- exit codes

def test_exit_code_missing_file(capsys):
    code = main(["solve", "--system", "/nonexistent/sys.bin", "--method", "motzkin"])
    capsys.readouterr()
    assert code == 5


def test_exit_code_malformed_binary(tmp_path, capsys):
    path = tmp_path / "junk.bin"
    path.write_text("this is not a system file")
    code = main(["solve", "--system", str(path), "--method", "motzkin"])
    capsys.readouterr()
    assert code == 3


def test_exit_code_zero_row_projection(tmp_path, capsys):
    path = tmp_path / "z.bin"
    save_system(
        LinearSystem(DenseMatrix([[1.0, 0.0], [0.0, 0.0]]), RealVector([1.0, 5.0])), path
    )
    code = main(["solve", "--system", str(path), "--method", "motzkin"])
    err = capsys.readouterr().err
    assert code == 4
    assert "iteration" in err


def test_exit_code_usage(capsys):
    assert main(["solve", "--method", "motzkin"]) == 2  # missing --system
    capsys.readouterr()
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "sketchsolve", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "generate" in proc.stdout
