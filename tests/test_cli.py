"""Command-line interface tests.

Commands run in-process through main(argv); stdout is parsed with the
same text formats the CLI documents. Determinism checks compare CSV
output with the elapsed_ns column blanked.
"""

import csv
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sketchsolve.cli
from sketchsolve import (
    CONVERGED,
    MAX_ITERS,
    DenseMatrix,
    InputError,
    LinearSystem,
    ModelSpec,
    RealVector,
    SolverConfig,
    condition_kappa_tilde,
    generate_system,
    load_csv_matrix,
    load_system,
    run,
    save_system,
)
from sketchsolve.cli import TRACE_HEADER, main, run_sweep

# What each campaign needs beyond a system and an output path.
CAMPAIGNS = {
    "compare": ["--methods", "motzkin"],
    "sweep": ["--method", "sgsm", "--s-list", "2,8", "--threshold", "1e-4"],
}
# The flags each campaign requires; argparse names a missing one.
REQUIRED = {
    "compare": ["--system", "--methods", "--out"],
    "sweep": ["--system", "--method", "--s-list", "--threshold", "--out"],
}
# Every settable flag of each subcommand, in --help order: 38 in all.
FLAGS = {
    "generate": ["--model", "--csv", "--rows", "--cols", "--delimiter", "--skip-rows", "--target-column", "--seed",
                 "--out"],
    "solve": ["--system", "--method", "--s", "--tol", "--max-iters", "--seed", "--record-dense", "--record-stride",
              "--trace"],
    "compare": ["--system", "--trials", "--max-iters", "--seed", "--record-dense", "--record-stride", "--out",
                "--methods", "--tol"],
    "sweep": ["--system", "--trials", "--max-iters", "--seed", "--record-dense", "--record-stride", "--out",
              "--method", "--s-list", "--threshold"],
    "diagnose": ["--system"],
}
# A 3x3 CSV whose last column is b = A (1, 1) for the 3x2 matrix A before it.
TARGET_CSV = "1,0,1\n0,1,1\n1,1,2\n"


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


def import_csv(tmp_path, text, *flags):
    """Write text as m.csv and import it with generate --csv; returns the system file's path."""
    data, out_path = tmp_path / "m.csv", tmp_path / "m.bin"
    data.write_text(text)
    assert main(["generate", "--csv", str(data), *flags, "--out", str(out_path)]) == 0
    return str(out_path)


@pytest.fixture
def gauss_args(tmp_path):
    """The campaigns' usual input: a saved gaussian 40x8 system of model seed 3."""
    return ["--system", make_binary(tmp_path)]


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


@pytest.mark.parametrize("target", [None, 4])
def test_generate_csv_saves_what_load_csv_matrix_reads(tmp_path, capsys, target):
    # The file generate --csv F --seed S writes is load_csv_matrix(F, plant_seed=S), bit for bit.
    a = np.random.default_rng(1).standard_normal((200, 10))
    flags = [] if target is None else ["--target-column", str(target)]
    system_path = import_csv(tmp_path, "".join(",".join(map(repr, map(float, row))) + "\n" for row in a),
                             *flags, "--seed", "4")
    out = capsys.readouterr().out
    assert ("note: b taken from a data column" in out) == (target is not None)
    saved, want = load_system(system_path), load_csv_matrix(tmp_path / "m.csv", target_column=target, plant_seed=4)
    assert saved.A.a.tobytes() == want.A.a.tobytes() and saved.b.a.tobytes() == want.b.a.tobytes()
    if target is None:
        assert saved.x_star.a.tobytes() == want.x_star.a.tobytes()
    else:
        assert saved.x_star is None and want.x_star is None
    assert float(stdout_value(out, "kappa_tilde")) == condition_kappa_tilde(want.A).kappa_tilde


@pytest.mark.parametrize("flags, message", [
    (["--csv", "m.csv", "--rows", "40"], "error: --rows cannot be used with --csv"),
    (["--csv", "m.csv", "--rows", "40", "--cols", "8"], "error: --rows, --cols cannot be used with --csv"),
    (["--model", "gaussian", "--rows", "40", "--cols", "8", "--delimiter", ","],
     "error: --delimiter cannot be used with --model"),
    (["--model", "gaussian", "--rows", "40", "--cols", "8", "--skip-rows", "0", "--target-column", "1"],
     "error: --skip-rows, --target-column cannot be used with --model"),
    (["--model", "gaussian", "--rows", "40"], "error: generate --model needs --rows and --cols"),
    (["--model", "gaussian", "--csv", "m.csv"], "not allowed with argument --model"),
    (["--rows", "40", "--cols", "8"], "one of the arguments --model --csv is required"),
])
def test_generate_takes_one_source_and_only_its_flags(tmp_path, capsys, monkeypatch, flags, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "m.csv").write_text(TARGET_CSV)
    assert main(["generate", *flags, "--out", "g.bin"]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "g.bin").exists()


@pytest.mark.parametrize("content, flags, code, message", [
    ("1,2\n2,4\n3,6\n", [], 4, "s_min"),  # rank deficient
    (TARGET_CSV, ["--delimiter", ";;"], 2, "error: delimiter must be exactly one character, got ';;'\n"),
    (TARGET_CSV, ["--delimiter", ""], 2, "error: delimiter must be exactly one character, got ''\n"),
    (None, [], 3, "not UTF-8 text"),  # a binary system file
])
def test_generate_refuses_a_bad_csv_and_saves_nothing(tmp_path, capsys, content, flags, code, message):
    data, out_path = tmp_path / "m.csv", tmp_path / "m.bin"
    if content is None:
        save_system(generate_system(ModelSpec("gaussian", 40, 8, 3)), data)
    else:
        data.write_text(content)
    assert main(["generate", "--csv", str(data), *flags, "--out", str(out_path)]) == code
    assert message in capsys.readouterr().err
    assert not out_path.exists()


@pytest.mark.parametrize("command, rest", [("solve", ["--method", "motzkin"]), ("diagnose", [])])
def test_solve_and_diagnose_read_only_system_files(tmp_path, capsys, command, rest):
    data = tmp_path / "m.csv"
    data.write_text(TARGET_CSV)
    assert main([command, "--system", str(data), "--csv", *rest]) == 2
    assert "unrecognized arguments: --csv" in capsys.readouterr().err


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
    assert float(body[-1][5]) <= 1e-8 * b_norm


def test_solve_trace_empty_columns_for_plain_methods(tmp_path):
    system_path = make_binary(tmp_path)
    trace_path = tmp_path / "trace.csv"
    main(["solve", "--system", system_path, "--method", "kaczmarz",
          "--max-iters", "50", "--tol", "0", "--trace", str(trace_path)])
    body = read_csv(trace_path)[1:]
    assert all(row[1] == "" for row in body)
    assert all(row[4] != "" for row in body)  # planted system tracks error


def test_solve_csv_input_with_target_column(tmp_path, capsys):
    system_path = import_csv(tmp_path, TARGET_CSV, "--target-column", "2")
    assert "note: b taken from a data column" in capsys.readouterr().out
    trace_path = tmp_path / "t.csv"
    code = main(["solve", "--system", system_path, "--method", "motzkin", "--tol", "1e-10",
                 "--trace", str(trace_path)])
    capsys.readouterr()
    assert code == 0
    body = read_csv(trace_path)[1:]
    assert all(row[4] == "" for row in body)  # no planted solution, no error column


def test_solve_defaults_are_pinned(tmp_path, monkeypatch, capsys):
    seen = record_runs(monkeypatch)
    system_path = make_binary(tmp_path)
    assert main(["solve", "--system", system_path, "--method", "gsm", "--s", "4"]) == 0
    [(system, config)] = seen
    assert np.array_equal(system.A.a, load_system(system_path).A.a)
    assert config == SolverConfig("gsm", s=4, max_iters=10_000, tol=1e-8, seed=0, record_error=True,
                                  record_dense_limit=10_000, record_stride=10)
    # b read from a data column has no planted solution, so no error is recorded.
    seen.clear()
    imported = import_csv(tmp_path, TARGET_CSV, "--target-column", "2")
    assert main(["solve", "--system", imported, "--method", "motzkin"]) == 0
    capsys.readouterr()
    [(_, config)] = seen
    assert config.record_error is False


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
    code = main(["compare", "--system", make_binary(tmp_path, m=1000, n=50, seed=3, kind="coherent"),
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
    # Unsketched methods print no sketch size; sketched ones print theirs.
    assert [l.split("  ")[:2] for l in summary_lines] == [
        ["method=kaczmarz", "s=-"], ["method=motzkin", "s=-"], ["method=skm", "s=4"],
        ["method=gsm", "s=4"], ["method=sgsm", "s=4"]]


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


def test_compare_requires_methods(tmp_path, capsys, gauss_args):
    code = main(["compare", *gauss_args, "--out", str(tmp_path / "x.csv")])
    capsys.readouterr()
    assert code == 2


def test_compare_rejects_sketch_size_on_plain_method(tmp_path, capsys, gauss_args):
    code = main(["compare", *gauss_args, "--methods", "motzkin:4",
                 "--out", str(tmp_path / "x.csv")])
    capsys.readouterr()
    assert code == 2


@pytest.mark.parametrize("methods", ["fourier", "fourier:3"])
def test_compare_rejects_unknown_method_as_solver_config_does(tmp_path, capsys, methods, gauss_args):
    with pytest.raises(InputError) as exc:
        SolverConfig("fourier")
    code = main(["compare", *gauss_args, "--methods", f"kaczmarz,{methods}", "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert capsys.readouterr().err == f"error: {exc.value}\n"
    assert not (tmp_path / "x.csv").exists()


def test_compare_needs_sketch_size_on_sketched_method(tmp_path, capsys, gauss_args):
    code = main(["compare", *gauss_args, "--methods", "kaczmarz,gsm", "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "write gsm:<s>" in capsys.readouterr().err


def test_compare_has_no_mode_flag(tmp_path, capsys, gauss_args):
    # Both medians are always printed; the flag that chose one is gone.
    out_path = tmp_path / "x.csv"
    assert main(["compare", *gauss_args, "--methods", "motzkin", "--mode", "per-time",
                 "--out", str(out_path)]) == 2
    capsys.readouterr()
    assert not out_path.exists()


@pytest.mark.parametrize("methods, message", [
    ("kaczmarz,gsm:x", "bad sketch size in 'gsm:x'"),
    (",", "no methods given"),
])
def test_compare_rejects_a_bad_method_list(tmp_path, capsys, gauss_args, methods, message):
    out_path = tmp_path / "x.csv"
    assert main(["compare", *gauss_args, "--methods", methods, "--out", str(out_path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out_path.exists()


# ------------------------------------------------------- compare and sweep

def test_compare_defaults_are_pinned(tmp_path, monkeypatch, capsys):
    seen = record_runs(monkeypatch)
    assert main(["compare", "--system", make_binary(tmp_path, seed=0),
                 "--methods", "motzkin", "--out", str(tmp_path / "c.csv")]) == 0
    [summary] = [line for line in capsys.readouterr().out.splitlines() if line.startswith("method=")]
    assert "  median_iters=" in summary and "  median_time_s=" in summary
    assert summary.index("median_iters=") < summary.index("median_time_s=")
    [(system, config)] = seen
    assert np.array_equal(system.A.a, generate_system(ModelSpec("gaussian", 40, 8, 0)).A.a)
    assert config == SolverConfig("motzkin", s=1, max_iters=10_000, tol=1e-8, seed=0, record_error=True,
                                  record_dense_limit=10_000, record_stride=10)


def test_sweep_defaults_are_pinned(tmp_path, monkeypatch, capsys):
    seen = record_runs(monkeypatch)
    assert main(["sweep", "--system", make_binary(tmp_path, seed=0), "--method", "sgsm",
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


def test_campaign_checks_every_cell_before_solving(tmp_path, monkeypatch, capsys, gauss_args):
    seen = record_runs(monkeypatch)
    out_path = tmp_path / "c.csv"
    assert main(["compare", *gauss_args, "--methods", "kaczmarz,gsm:0", "--out", str(out_path)]) == 2
    assert "sketch size must be at least 1" in capsys.readouterr().err
    assert seen == []  # the valid kaczmarz cell comes first, yet nothing was solved
    assert not out_path.exists()
    # s <= m is checked against the system for every cell before the first solve.
    for argv in (["compare", *gauss_args, "--methods", "kaczmarz,motzkin,skm:50"],
                 ["sweep", *gauss_args, "--method", "sgsm", "--s-list", "2,8,50", "--threshold", "1e-4"]):
        assert main([*argv, "--out", str(out_path)]) == 2
        assert "sketch size 50 exceeds row count 40" in capsys.readouterr().err
        assert seen == []
        assert not out_path.exists()


def test_timed_campaigns_ignore_workers_env(tmp_path, monkeypatch, capsys, gauss_args):
    # Campaigns run serially whatever SKETCHSOLVE_WORKERS says, and report times.
    timed = {
        "compare": ["compare", *gauss_args, "--methods", "kaczmarz,skm:4",
                    "--trials", "2", "--max-iters", "20", "--tol", "0"],
        "sweep": ["sweep", *gauss_args, *CAMPAIGNS["sweep"], "--trials", "2"],
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
def test_campaign_checks_the_seed_range_before_solving(tmp_path, monkeypatch, capsys, command, gauss_args):
    # Trial 1 would run on seed 2**64, which PCG64 does not take, so trial 0 is not run either.
    seen = record_runs(monkeypatch)
    out_path = tmp_path / "o.csv"
    assert main([command, *gauss_args, *CAMPAIGNS[command], "--seed", str(2**64 - 1), "--trials", "2",
                 "--out", str(out_path)]) == 2
    assert f"seed must be a 64-bit unsigned integer, got {2**64}" in capsys.readouterr().err
    assert seen == []
    assert not out_path.exists()


@pytest.mark.parametrize("command, dropped", [(command, flag) for command in sorted(CAMPAIGNS)
                                              for flag in REQUIRED[command]])
def test_campaign_names_every_required_value(tmp_path, capsys, gauss_args, command, dropped):
    out_path = tmp_path / "o.csv"
    argv = [*gauss_args, *CAMPAIGNS[command], "--out", str(out_path)]
    i = argv.index(dropped)
    assert main([command, *argv[:i], *argv[i + 2:]]) == 2
    assert capsys.readouterr().err.endswith(f" error: the following arguments are required: {dropped}\n")
    assert not out_path.exists()


@pytest.mark.parametrize("command", sorted(CAMPAIGNS))
def test_campaigns_have_no_model_flags(tmp_path, capsys, command, gauss_args):
    # A campaign reads a system file written by generate, the one owner of model parameters.
    out_path = tmp_path / "o.csv"
    model = ["--model", "gaussian", "--rows", "40", "--cols", "8", "--model-seed", "3"]
    assert main([command, *gauss_args, *model, *CAMPAIGNS[command], "--out", str(out_path)]) == 2
    assert f"unrecognized arguments: {' '.join(model)}" in capsys.readouterr().err
    assert not out_path.exists()


@pytest.mark.parametrize("command", sorted(CAMPAIGNS))
@pytest.mark.parametrize("trials", ["0", "-1"])
def test_campaign_needs_a_positive_trial_count(tmp_path, capsys, command, trials, gauss_args):
    out_path = tmp_path / "o.csv"
    assert main([command, *gauss_args, *CAMPAIGNS[command], "--trials", trials, "--out", str(out_path)]) == 2
    assert "trials must be at least 1" in capsys.readouterr().err
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
    code = main(["sweep", "--system", make_binary(tmp_path, m=400, n=30, seed=5), "--method", "sgsm",
                 "--s-list", "2,8,32,2", "--threshold", "1e-6", "--trials", "5", "--max-iters", "100000",
                 "--out", str(out_path)])
    out = capsys.readouterr().out
    assert code == 0
    rows = read_csv(out_path)[1:]
    by_s = {}
    for s, _, iters, _ in rows:
        by_s.setdefault(int(s), []).append(int(iters))
    medians = [np.median(by_s[s]) for s in (2, 8, 32)]
    assert medians[0] > medians[1] > medians[2]
    # One summary line per --s-list entry, from that entry's own trials: the repeated 2 is not merged.
    entries = [rows[i:i + 5] for i in range(0, len(rows), 5)]
    assert [l for l in out.splitlines() if l.startswith("s=")] == [
        f"s={cell[0][0]} trials=5 median_iters_to_threshold={int(np.median([int(r[2]) for r in cell]))}"
        for cell in entries]
    assert [cell[0][0] for cell in entries] == ["2", "8", "32", "2"]


def test_sweep_without_planted_solution_uses_the_residual_rule(tmp_path, capsys):
    # With no x*, a sweep row is run's stop on ||A x - b|| <= threshold * ||b|| for that trial's seed.
    planted = generate_system(ModelSpec("gaussian", 60, 6, 4))
    sy = LinearSystem(planted.A, planted.b)
    system_path = tmp_path / "nox.bin"
    save_system(sy, system_path)
    out_path = tmp_path / "sweep.csv"
    assert main(["sweep", "--system", str(system_path), "--method", "sgsm", "--s-list", "1,20",
                 "--threshold", "1e-6", "--trials", "3", "--seed", "2", "--max-iters", "100",
                 "--out", str(out_path)]) == 0
    capsys.readouterr()
    rows = read_csv(out_path)[1:]
    for s, trial, iters, _ in rows:
        _, trace = run(sy, SolverConfig("sgsm", s=int(s), tol=1e-6, max_iters=100, seed=2 + int(trial),
                                        record_dense_limit=2000, record_stride=20))
        if iters == "DNF":
            assert trace.status == MAX_ITERS
        else:
            assert trace.status == CONVERGED and int(iters) == trace.final.iter
    assert {row[2] == "DNF" for row in rows} == {True, False}  # both kinds of row are checked


@pytest.mark.parametrize("s_list, message", [("2,x", "bad sketch-size list '2,x'"), (",", "empty sketch-size list")])
def test_sweep_rejects_a_bad_size_list(tmp_path, capsys, gauss_args, s_list, message):
    out_path = tmp_path / "o.csv"
    assert main(["sweep", *gauss_args, "--method", "sgsm", "--threshold", "1e-4", "--s-list", s_list,
                 "--out", str(out_path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out_path.exists()


@pytest.mark.parametrize("method, s_values, threshold, message", [
    ("kaczmarz", [2], 1e-6, "sweep needs a sketched method"),
    ("sgsm", [], 1e-6, "sweep needs at least one sketch size"),
    ("sgsm", [2], 0.0, "threshold must be positive, got 0.0"),
    ("sgsm", [2], float("nan"), "threshold must be positive, got nan"),
])
def test_run_sweep_checks_its_arguments(monkeypatch, method, s_values, threshold, message):
    seen = record_runs(monkeypatch)
    with pytest.raises(InputError, match=message):
        run_sweep(generate_system(ModelSpec("gaussian", 40, 8, 3)), method, s_values, threshold,
                  trials=1, max_iters=10)
    assert seen == []


@pytest.mark.parametrize("threshold, message", [
    ("inf", "error: threshold must be finite, got inf\n"),
    ("1e308", "error: threshold 1e+308 times the initial squared error overflows a double\n"),
])
def test_sweep_names_threshold_when_it_is_out_of_range(tmp_path, capsys, gauss_args, threshold, message):
    out_path = tmp_path / "o.csv"
    assert main(["sweep", *gauss_args, "--method", "sgsm", "--s-list", "2", "--threshold", threshold,
                 "--out", str(out_path)]) == 2
    assert capsys.readouterr().err == message
    assert not out_path.exists()


def test_imported_target_column_system_runs_through_both_campaigns(tmp_path, capsys):
    # b read from a data column (here the consistent b of a planted system, as column 2)
    # leaves no x*: compare records no squared error, and sweep stops on run's residual rule.
    planted = generate_system(ModelSpec("gaussian", 60, 6, 4))
    table = np.insert(planted.A.a, 2, planted.b.a, axis=1)
    system_path = import_csv(tmp_path, "".join(",".join(map(repr, map(float, row))) + "\n" for row in table),
                             "--target-column", "2")
    cmp_path, sweep_path = tmp_path / "c.csv", tmp_path / "s.csv"
    assert main(["compare", "--system", system_path, "--methods", "kaczmarz,sgsm:4", "--trials", "2",
                 "--max-iters", "200", "--out", str(cmp_path)]) == 0
    body = read_csv(cmp_path)[1:]
    assert body and all(row[4] == "" for row in body)
    assert main(["sweep", "--system", system_path, "--method", "sgsm", "--s-list", "1,20", "--threshold", "1e-6",
                 "--trials", "3", "--seed", "2", "--max-iters", "100", "--out", str(sweep_path)]) == 0
    capsys.readouterr()
    sy = load_system(system_path)
    assert sy.x_star is None and np.array_equal(sy.A.a, planted.A.a) and np.array_equal(sy.b.a, planted.b.a)
    rows = read_csv(sweep_path)[1:]
    for s, trial, iters, _ in rows:
        _, trace = run(sy, SolverConfig("sgsm", s=int(s), tol=1e-6, max_iters=100, seed=2 + int(trial),
                                        record_dense_limit=2000, record_stride=20))
        assert trace.records[-1].error_sq is None
        if iters == "DNF":
            assert trace.status == MAX_ITERS
        else:
            assert trace.status == CONVERGED and int(iters) == trace.final.iter
    assert {row[2] == "DNF" for row in rows} == {True, False}  # both kinds of row are checked


def test_sweep_reports_dnf_when_capped(tmp_path, capsys, gauss_args):
    out_path = tmp_path / "sweep.csv"
    code = main(["sweep", *gauss_args, "--method", "gsm", "--s-list", "2",
                 "--threshold", "1e-12", "--trials", "2", "--max-iters", "5",
                 "--out", str(out_path)])
    out = capsys.readouterr().out
    assert code == 0
    body = read_csv(out_path)[1:]
    assert all(row[2] == "DNF" and row[3] == "DNF" for row in body)
    assert "median_iters_to_threshold=DNF" in out


def test_sweep_rejects_plain_methods(capsys, gauss_args):
    code = main(["sweep", *gauss_args, "--method", "kaczmarz", "--s-list", "2",
                 "--threshold", "1e-6", "--out", "x.csv"])
    capsys.readouterr()
    assert code == 2  # argparse choices reject it


# ---------------------------------------------------------------- surface

@pytest.mark.parametrize("command", sorted(FLAGS))
def test_cli_surface_is_pinned(capsys, command):
    # A change that adds or removes an option edits FLAGS (and the flag count in ROADMAP).
    assert main([command, "--help"]) == 0
    assert re.findall(r"^  (--[\w-]+)", capsys.readouterr().out, re.M) == FLAGS[command]


@pytest.mark.parametrize("command, full, short", [
    ("solve", ["--method", "gsm", "--s", "4"], ["--sys", "x.bin", "--meth", "gsm", "--max", "100"]),
    ("sweep", CAMPAIGNS["sweep"], ["--thresh", "1e-6"]),
    ("compare", CAMPAIGNS["compare"], ["--method", "kaczmarz"]),  # once read as --methods
])
def test_flags_take_full_names_only(tmp_path, capsys, gauss_args, command, full, short):
    # An abbreviation is no flag, even where it names one flag unambiguously.
    out = [] if command == "solve" else ["--out", str(tmp_path / "o.csv")]
    assert main([command, *gauss_args, *full, *out, *short]) == 2
    assert f"unrecognized arguments: {' '.join(short)}\n" in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


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


def test_exit_code_all_zero_matrix_is_numerical(tmp_path, capsys):
    # kaczmarz has no sampling table on an all-zero A; that is the zero-row failure motzkin reports.
    path = tmp_path / "z.bin"
    save_system(LinearSystem(DenseMatrix(np.zeros((3, 2))), RealVector(np.ones(3))), path)
    for method in ("kaczmarz", "motzkin"):
        assert main(["solve", "--system", str(path), "--method", method]) == 4
        assert "iteration 1:" in capsys.readouterr().err


def test_exit_code_error_rise(tmp_path, monkeypatch, capsys):
    # A step that moves away from x* is a numerical failure, not a usage error.
    system_path = make_binary(tmp_path)
    xs = load_system(system_path).x_star.a
    monkeypatch.setattr(sketchsolve.solvers, "_step", lambda select, xa, gate: (2.0 * xa - xs, None, 0))
    assert main(["solve", "--system", system_path, "--method", "kaczmarz"]) == 4
    assert "squared error increased at iteration 1" in capsys.readouterr().err


def test_exit_code_scale_out_of_range(tmp_path, capsys):
    # Squares that overflow a double are refused, not "converged" at
    # iteration 0: exit 2 for a CSV matrix that generate imports (and no
    # file is written), 3 for a binary system file.
    data, imported = tmp_path / "m.csv", tmp_path / "m.bin"
    data.write_text("1e155,0\n0,1e155\n1e155,1e155\n")
    assert main(["generate", "--csv", str(data), "--out", str(imported)]) == 2
    assert "overflows a double" in capsys.readouterr().err
    assert not imported.exists()
    path = tmp_path / "big.bin"
    a = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    save_system(LinearSystem(DenseMatrix(a), RealVector(a @ [1.0, 2.0]), RealVector([1.0, 2.0])), path)
    blob = path.read_bytes()
    payload = len(blob) - 8 * (6 + 3 + 2)  # A, b and x* follow the header
    scaled = np.frombuffer(blob, "<f8", offset=payload) * np.array([1e155] * 9 + [1.0] * 2)
    path.write_bytes(blob[:payload] + scaled.astype("<f8").tobytes())
    assert main(["solve", "--system", str(path), "--method", "motzkin"]) == 3
    assert "overflows a double" in capsys.readouterr().err


def test_exit_code_usage(capsys):
    assert main(["solve", "--method", "motzkin"]) == 2  # missing --system
    capsys.readouterr()
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_exit_code_closed_stdout_in_process(monkeypatch, capsys):
    # An in-process caller's stdout has no descriptor to redirect; main still returns 141 quietly.
    def closed(args):
        raise BrokenPipeError(32, "Broken pipe")
    monkeypatch.setattr(sketchsolve.cli, "cmd_diagnose", closed)
    assert main(["diagnose", "--system", "x.bin"]) == 141
    assert capsys.readouterr() == ("", "")


def module_env(**extra):
    """The environment of a `python -m sketchsolve` child that imports the sketchsolve this test imported."""
    src = str(Path(sketchsolve.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])), **extra)


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "sketchsolve", "--help"], capture_output=True, text=True, env=module_env()
    )
    assert proc.returncode == 0
    assert "generate" in proc.stdout


@pytest.mark.parametrize("unbuffered", ["1", ""])
def test_exit_code_closed_stdout(tmp_path, gauss_args, unbuffered):
    # A reader that closes the pipe early (`| head`) gets the shell's 141 and a quiet stderr,
    # whether the summary reaches the pipe at a print or at the last flush; the CSV is complete.
    env = module_env(PYTHONUNBUFFERED=unbuffered)
    argv = [sys.executable, "-m", "sketchsolve", "compare", *gauss_args, "--methods", "motzkin,gsm:4",
            "--trials", "2", "--seed", "3", "--out"]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        closed = subprocess.run([*argv, str(tmp_path / "closed.csv")], stdout=write_end,
                                stderr=subprocess.PIPE, text=True, env=env)
    finally:
        os.close(write_end)
    assert (closed.returncode, closed.stderr) == (141, "")
    assert subprocess.run([*argv, str(tmp_path / "open.csv")], capture_output=True, env=env).returncode == 0
    assert without_elapsed(read_csv(tmp_path / "closed.csv")) == without_elapsed(read_csv(tmp_path / "open.csv"))
