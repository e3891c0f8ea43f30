"""Command-line harness: generate, solve, compare, sweep, diagnose.

`generate` is the one command that brings a system in, drawn from a model
or imported from a CSV matrix; solve, compare, sweep and diagnose read the
file it saves (`--system FILE`).  Flags are the one way to set anything:
argparse refuses a missing required flag and an abbreviated one (exit 2).

Exit codes: 0 success, 2 usage, 3 malformed data file, 4 numerical
failure (rank deficiency, zero row, a rise in the squared error), 5 I/O
failure, 141 stdout closed by its reader (128 + SIGPIPE, nothing printed).

All experiment output is CSV.  Trace files share one schema:

    method,s,trial,iter,error_sq,residual_norm,elapsed_ns

with error_sq left empty when the system has no planted solution, and s
left empty for the unsketched methods.  Reruns with identical arguments
are byte-identical except the elapsed_ns / time_to_threshold_ns columns.

Trials run serially in one process, so the times of any two campaigns
can be compared.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys

import numpy as np

from .errors import FormatError, InputError, NumericalError
from .linalg import condition_kappa_tilde, dynamic_range
from .problems import MODEL_KINDS, ModelSpec, generate_system, load_csv_matrix, load_system, save_system
from .solvers import _SKETCHED, CONVERGED, METHODS, LinearSystem, SolverConfig, _check_method, contraction_summary, run

__all__ = [
    "TRACE_HEADER",
    "SWEEP_HEADER",
    "run_sweep",
    "main",
]

TRACE_HEADER = ("method", "s", "trial", "iter", "error_sq", "residual_norm", "elapsed_ns")
SWEEP_HEADER = ("s", "trial", "iters_to_threshold", "time_to_threshold_ns")
_EXIT_CODES = {InputError: 2, FormatError: 3, NumericalError: 4, OSError: 5}


def _run_cells(system, cells, trials, seed, **fields):
    """The one campaign runner: every (method, s) cell for `trials` trials.

    Trial t of every cell uses seed + t, so cells see identical selection
    randomness; fields are the SolverConfig controls the cells share, and
    the squared error is recorded whenever the system has a planted
    solution.  Every config is built, and checked against the system as
    run checks it, before the first solve, so a bad cell fails before any
    work is done.  Returns one list of traces per cell.
    """
    if trials < 1:
        raise InputError(f"trials must be at least 1, got {trials}")
    configs = [SolverConfig(method=method, s=s, seed=seed + trial, record_error=system.x_star is not None, **fields)
               for method, s in cells for trial in range(trials)]
    for config in configs:
        _check_method(config.method, config.s, system.A.rows)
    traces = [run(system, config)[1] for config in configs]
    return [traces[i:i + trials] for i in range(0, len(traces), trials)]


def _trace_csv_rows(method, s, trial, trace):
    """Raw trace rows; csv writes None as an empty field and a float as its repr."""
    s = s if method in _SKETCHED else None
    for rec in trace.records:
        yield method, s, trial, rec.iter, rec.error_sq, rec.residual_norm, rec.elapsed_ns


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def _median_text(values, as_int=False):
    finite = [v for v in values if math.isfinite(v)]
    if len(finite) < len(values) / 2 or not finite:
        return "DNF"
    med = float(np.median(finite))
    return str(int(round(med))) if as_int else f"{med:.6e}"


def _contraction(trace):
    """The trace's mean contraction factor, or None when it has too few
    squared-error records to give one."""
    try:
        return contraction_summary(trace)
    except InputError:
        return None


def run_sweep(system: LinearSystem, method: str, s_values, threshold: float,
              trials: int, max_iters: int, seed: int = 0,
              record_dense_limit: int = 2000, record_stride: int = 20):
    """Time/iterations-to-threshold over sketch sizes for one method.

    With a planted solution the threshold is on the squared error
    relative to its initial value; otherwise it is run's residual rule
    ||A x - b|| <= threshold * ||b||.  Rows are (s, trial,
    iters_to_threshold, time_to_threshold_ns), with DNF when max_iters
    hit first.
    """
    if method not in _SKETCHED:
        raise InputError(f"sweep needs a sketched method ({', '.join(_SKETCHED)}), got {method!r}")
    s_values = list(s_values)
    if not s_values:
        raise InputError("sweep needs at least one sketch size")
    if not threshold > 0.0:
        raise InputError(f"threshold must be positive, got {threshold}")
    if not math.isfinite(threshold):
        raise InputError(f"threshold must be finite, got {threshold}")
    if system.x_star is not None:
        xs = system.x_star.a
        stop = dict(tol=0.0, error_stop=threshold * float(xs @ xs))
        if not math.isfinite(stop["error_stop"]):
            raise InputError(f"threshold {threshold} times the initial squared error overflows a double")
    else:
        stop = dict(tol=threshold)
    by_cell = _run_cells(system, [(method, s) for s in s_values], trials, seed, max_iters=max_iters,
                         record_dense_limit=record_dense_limit, record_stride=record_stride, **stop)
    rows = []
    for s, cell in zip(s_values, by_cell):
        for trial, trace in enumerate(cell):
            if trace.status == CONVERGED:
                rows.append((str(s), str(trial), str(trace.final.iter), str(trace.final.elapsed_ns)))
            else:
                rows.append((str(s), str(trial), "DNF", "DNF"))
    return rows


# ---------------------------------------------------------------------------
# argument plumbing


def _parse_methods(text):
    cells = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        name, colon, s_text = token.partition(":")
        name = name.strip()
        try:
            s = int(s_text) if colon else 1
        except ValueError:
            raise InputError(f"bad sketch size in {token!r}") from None
        _check_method(name, s)
        if colon and name not in _SKETCHED:
            raise InputError(f"method {name} takes no sketch size")
        if not colon and name in _SKETCHED:
            raise InputError(f"method {name} needs a sketch size, write {name}:<s>")
        cells.append((name, s))
    if not cells:
        raise InputError("no methods given")
    return tuple(cells)


def _parse_s_list(text):
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise InputError(f"bad sketch-size list {text!r}") from None
    if not values:
        raise InputError("empty sketch-size list")
    return values


def _add_run_flags(parser, max_iters, record_dense, record_stride):
    """Run-length and seed flags of solve, compare and sweep, with the subcommand's defaults."""
    parser.add_argument("--max-iters", type=int, default=max_iters)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--record-dense", type=int, default=record_dense)
    parser.add_argument("--record-stride", type=int, default=record_stride)


def _add_campaign_flags(parser, max_iters, record_dense, record_stride):
    """Flags shared by compare and sweep, with the subcommand's run defaults."""
    parser.add_argument("--system", required=True, help="system file written by generate")
    parser.add_argument("--trials", type=int, default=1)
    _add_run_flags(parser, max_iters, record_dense, record_stride)
    parser.add_argument("--out", required=True)


def _print_condition(system):
    stats = condition_kappa_tilde(system.A)
    print(f"rows: {system.A.rows}")
    print(f"cols: {system.A.cols}")
    print(f"frobenius_sq: {stats.frobenius_sq!r}")
    print(f"s_min: {stats.s_min!r}")
    print(f"kappa_tilde: {stats.kappa_tilde!r}")
    return stats


# ---------------------------------------------------------------------------
# subcommands


def cmd_generate(args) -> int:
    shape = {"--rows": args.rows, "--cols": args.cols}
    csv_flags = {"--delimiter": args.delimiter, "--skip-rows": args.skip_rows, "--target-column": args.target_column}
    stray = [flag for flag, value in (csv_flags if args.model else shape).items() if value is not None]
    if stray:
        raise InputError(f"{', '.join(stray)} cannot be used with {'--model' if args.model else '--csv'}")
    if args.model:
        if None in shape.values():
            raise InputError("generate --model needs --rows and --cols")
        system = generate_system(ModelSpec(args.model, args.rows, args.cols, args.seed))
    else:
        system = load_csv_matrix(args.csv, delimiter="," if args.delimiter is None else args.delimiter,
                                 skip_rows=args.skip_rows or 0, target_column=args.target_column, plant_seed=args.seed)
        if args.target_column is not None:
            print("note: b taken from a data column; consistency is not guaranteed and error tracking is off")
    _print_condition(system)  # before saving: a matrix without full column rank raises here
    save_system(system, args.out)
    print(f"saved: {args.out}")
    return 0


def cmd_solve(args) -> int:
    system = load_system(args.system)
    [[trace]] = _run_cells(system, [(args.method, args.s)], 1, args.seed, max_iters=args.max_iters, tol=args.tol,
                           record_dense_limit=args.record_dense, record_stride=args.record_stride)
    if args.trace:
        _write_csv(args.trace, TRACE_HEADER, _trace_csv_rows(args.method, args.s, 0, trace))
    final = trace.final
    print(f"status: {trace.status}")
    print(f"iterations: {final.iter}")
    print(f"final_residual: {final.residual_norm:.6e}")
    print(f"elapsed_s: {final.elapsed_ns / 1e9:.6f}")
    contraction = _contraction(trace)
    print("contraction: n/a" if contraction is None else f"contraction: {contraction:.6f}")
    return 0


def cmd_compare(args) -> int:
    system = load_system(args.system)
    cells = _parse_methods(args.methods)
    by_cell = _run_cells(system, cells, args.trials, args.seed, max_iters=args.max_iters, tol=args.tol,
                         record_dense_limit=args.record_dense, record_stride=args.record_stride)
    _write_csv(args.out, TRACE_HEADER, [row for (method, s), cell in zip(cells, by_cell)
                                        for trial, trace in enumerate(cell)
                                        for row in _trace_csv_rows(method, s, trial, trace)])
    for (method, s), cell in zip(cells, by_cell):
        done = [t.status == CONVERGED for t in cell]
        iters = [t.final.iter if ok else math.inf for t, ok in zip(cell, done)]
        times = [t.final.elapsed_ns / 1e9 if ok else math.inf for t, ok in zip(cell, done)]
        contractions = [c for c in map(_contraction, cell) if c is not None]
        parts = [f"method={method}", f"s={s if method in _SKETCHED else '-'}", f"trials={args.trials}",
                 f"converged={sum(done)}/{args.trials}", f"median_iters={_median_text(iters, as_int=True)}",
                 f"median_time_s={_median_text(times)}",
                 f"median_final_residual={float(np.median([t.final.residual_norm for t in cell])):.6e}"]
        if contractions:
            parts.append(f"median_contraction={float(np.median(contractions)):.6f}")
        print("  ".join(parts))
    print(f"saved: {args.out}")
    return 0


def cmd_sweep(args) -> int:
    system = load_system(args.system)
    s_values = _parse_s_list(args.s_list)
    rows = run_sweep(
        system, args.method, s_values, args.threshold,
        trials=args.trials, max_iters=args.max_iters, seed=args.seed,
        record_dense_limit=args.record_dense, record_stride=args.record_stride,
    )
    _write_csv(args.out, SWEEP_HEADER, rows)
    for i, s in enumerate(s_values):  # rows are cell-major, so each entry's trials are contiguous
        iters = [math.inf if n == "DNF" else int(n) for _, _, n, _ in rows[i * args.trials:(i + 1) * args.trials]]
        print(f"s={s} trials={args.trials} median_iters_to_threshold={_median_text(iters, as_int=True)}")
    print(f"saved: {args.out}")
    return 0


def cmd_diagnose(args) -> int:
    system = load_system(args.system)
    _print_condition(system)
    if system.x_star is not None and system.b_norm > 0.0:
        zero = np.zeros(system.A.cols)
        print(f"dynamic_range_origin: {dynamic_range(system.A, zero, system.x_star)!r}")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sketchsolve",
        description="Row-projection solvers for consistent overdetermined linear systems",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="draw a synthetic system or import a CSV matrix, and save it",
                       allow_abbrev=False)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--model", choices=MODEL_KINDS, help="draw A from this model (needs --rows and --cols)")
    source.add_argument("--csv", help="import this delimited-text matrix instead")
    p.add_argument("--rows", type=int)
    p.add_argument("--cols", type=int)
    p.add_argument("--delimiter", help="CSV field delimiter (default ',')")
    p.add_argument("--skip-rows", type=int, help="header rows of the CSV to skip (default 0)")
    p.add_argument("--target-column", type=int, help="0-based CSV column to use as b (default: plant a solution)")
    p.add_argument("--seed", type=int, default=0, help="seed of the model entries and x*, or of a CSV matrix's planted x*")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("solve", help="run one method on a stored system", allow_abbrev=False)
    p.add_argument("--system", required=True, help="system file written by generate")
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--s", type=int, default=1, help="sketch size (sketched methods)")
    p.add_argument("--tol", type=float, default=1e-8)
    _add_run_flags(p, max_iters=10_000, record_dense=10_000, record_stride=10)
    p.add_argument("--trace", default=None, help="write the per-iteration trace CSV here")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("compare", help="run several methods on one system, emit trace CSV", allow_abbrev=False)
    _add_campaign_flags(p, max_iters=10_000, record_dense=10_000, record_stride=10)
    p.add_argument("--methods", required=True, help="comma list, sketched methods take :s (e.g. kaczmarz,gsm:25)")
    p.add_argument("--tol", type=float, default=1e-8)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("sweep", help="iterations/time to an error threshold across sketch sizes", allow_abbrev=False)
    _add_campaign_flags(p, max_iters=100_000, record_dense=2000, record_stride=20)
    p.add_argument("--method", required=True, choices=_SKETCHED)
    p.add_argument("--s-list", required=True, help="comma list of sketch sizes")
    p.add_argument("--threshold", type=float, required=True, help="relative error (or residual) threshold")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("diagnose", help="condition diagnostics of a stored system", allow_abbrev=False)
    p.add_argument("--system", required=True, help="system file written by generate")
    p.set_defaults(func=cmd_diagnose)

    return parser


def _stdout_to_devnull():
    """Point stdout's file descriptor, if it has one, at os.devnull, so the
    interpreter's last flush does not report a closed pipe again."""
    try:
        fd = sys.stdout.fileno()
    except OSError:  # an in-process caller's StringIO has no descriptor
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        try:
            args = parser.parse_args(argv)
            return int(args.func(args) or 0)
        except SystemExit as exc:
            return int(exc.code or 0)
        finally:
            sys.stdout.flush()  # a closed stdout shows here, not at interpreter exit
    except BrokenPipeError:  # whoever read stdout has gone; that is not an I/O failure
        _stdout_to_devnull()
        return 141
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))
