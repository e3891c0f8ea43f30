"""Command-line harness: generate, solve, compare, sweep, diagnose.

Exit codes: 0 success, 2 usage, 3 malformed data file, 4 numerical
failure (rank deficiency, zero row), 5 I/O failure.

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
import sys

import numpy as np

from .errors import FormatError, InputError, RankDeficientError, ZeroRowError
from .linalg import condition_kappa_tilde, dynamic_range
from .problems import ModelSpec, generate_system, load_csv_matrix, load_system, save_system
from .solvers import (
    _METHOD_KIND,
    CONVERGED,
    METHODS,
    LinearSystem,
    SolverConfig,
    contraction_summary,
    run,
)

__all__ = [
    "TRACE_HEADER",
    "SWEEP_HEADER",
    "run_sweep",
    "main",
]

TRACE_HEADER = ("method", "s", "trial", "iter", "error_sq", "residual_norm", "elapsed_ns")
SWEEP_HEADER = ("s", "trial", "iters_to_threshold", "time_to_threshold_ns")

_SKETCHED = tuple(_METHOD_KIND)


def _run_cells(system, cells, trials, seed, **fields):
    """The one campaign runner: every (method, s) cell for `trials` trials.

    Trial t of every cell uses seed + t, so cells see identical selection
    randomness; fields are the SolverConfig controls the cells share.
    Every config is built before the first solve, so a bad cell fails
    before any work is done.  Returns one list of traces per cell.
    """
    if trials < 1:
        raise InputError(f"trials must be at least 1, got {trials}")
    configs = [SolverConfig(method=method, s=1 if s is None else s, seed=seed + trial, **fields)
               for method, s in cells for trial in range(trials)]
    traces = [run(system, config)[1] for config in configs]
    return [traces[i:i + trials] for i in range(0, len(traces), trials)]


def _trace_csv_rows(method, s, trial, trace):
    s_text = str(s) if method in _SKETCHED else ""
    for rec in trace.records:
        yield (
            method,
            s_text,
            str(trial),
            str(rec.iter),
            "" if rec.error_sq is None else repr(rec.error_sq),
            repr(rec.residual_norm),
            str(rec.elapsed_ns),
        )


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


def run_compare(system: LinearSystem, cells, trials: int, mode: str, seed: int = 0, **fields):
    """Run every (method, s) cell (s is None for kaczmarz and motzkin) for
    `trials` trials; fields are the shared SolverConfig controls.

    Returns (csv_rows, summary_lines); mode picks the summary emphasis,
    per-iteration or per-time.
    """
    per_time = mode == "per-time"
    by_cell = _run_cells(system, cells, trials, seed, record_error=system.x_star is not None, **fields)
    rows = []
    summaries = []
    for (method, s), cell in zip(cells, by_cell):
        for trial, trace in enumerate(cell):
            rows.extend(_trace_csv_rows(method, s, trial, trace))
        iters = [t.final.iter if t.status == CONVERGED else math.inf for t in cell]
        times = [t.final.elapsed_ns / 1e9 if t.status == CONVERGED else math.inf for t in cell]
        finals = [t.final.residual_norm for t in cell]
        contractions = []
        for t in cell:
            try:
                contractions.append(contraction_summary(t))
            except InputError:
                pass
        converged = sum(t.status == CONVERGED for t in cell)
        parts = [
            f"method={method}",
            f"s={s if s is not None else '-'}",
            f"trials={trials}",
            f"converged={converged}/{trials}",
        ]
        if per_time:
            parts.append(f"median_time_s={_median_text(times)}")
        else:
            parts.append(f"median_iters={_median_text(iters, as_int=True)}")
        parts.append(f"median_final_residual={float(np.median(finals)):.6e}")
        if contractions:
            parts.append(f"median_contraction={float(np.median(contractions)):.6f}")
        summaries.append("  ".join(parts))
    return rows, summaries


def run_sweep(system: LinearSystem, method: str, s_values, threshold: float,
              trials: int, max_iters: int, seed: int = 0,
              record_dense_limit: int = 2000, record_stride: int = 20):
    """Time/iterations-to-threshold over sketch sizes for one method.

    With a planted solution the threshold is on the squared error
    relative to its initial value; otherwise it is a relative residual
    tolerance.  Rows are (s, trial, iters_to_threshold,
    time_to_threshold_ns), with DNF when max_iters hit first.
    """
    if method not in _SKETCHED:
        raise InputError(f"sweep needs a sketched method ({', '.join(_SKETCHED)}), got {method!r}")
    s_values = list(s_values)
    if not s_values:
        raise InputError("sweep needs at least one sketch size")
    if not threshold > 0.0:
        raise InputError(f"threshold must be positive, got {threshold}")
    if system.x_star is not None:
        xs = system.x_star.a
        stop = dict(tol=0.0, record_error=True, error_stop=threshold * float(xs @ xs))
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


def _apply_plan(parser, path):
    """Make a plan file's `key = value` lines the parser's defaults.

    Explicit flags still win, and argparse converts each value as it
    would the flag's.  Every key must name a flag of the subcommand, and
    a flag with choices must get one of them (argparse checks choices
    only for given flags).
    """
    with open(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            key, eq, value = (part.strip() for part in text.partition("="))
            if not eq:
                raise FormatError(f"{path}:{lineno}: expected 'key = value', got {text!r}")
            action = parser._option_string_actions.get(f"--{key}")
            if action is None or key in ("help", "plan"):
                raise InputError(f"{path}:{lineno}: plan key {key!r} names no flag of {parser.prog}")
            if action.choices is not None and value not in action.choices:
                raise InputError(f"{path}:{lineno}: plan key {key!r}: {value!r} is not one of {action.choices}")
            action.default = value


def _parse_methods(text):
    cells = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        name, colon, s_text = token.partition(":")
        name = name.strip()
        if name not in METHODS:
            raise InputError(f"unknown method {name!r}, expected one of {METHODS}")
        if colon:
            try:
                s = int(s_text)
            except ValueError:
                raise InputError(f"bad sketch size in {token!r}") from None
            if name not in _SKETCHED:
                raise InputError(f"method {name} takes no sketch size")
        elif name in _SKETCHED:
            raise InputError(f"method {name} needs a sketch size, write {name}:<s>")
        else:
            s = None
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


def _load_input_system(args) -> LinearSystem:
    if getattr(args, "csv", False):
        system = load_csv_matrix(
            args.system,
            delimiter=args.delimiter,
            skip_rows=args.skip_rows,
            target_column=args.target_column,
            plant_seed=args.plant_seed,
        )
        if args.target_column is not None:
            print("note: b taken from a data column; consistency is not guaranteed and error tracking is off")
        return system
    return load_system(args.system)


def _campaign_system(args) -> LinearSystem:
    if args.system is not None and args.model is not None:
        raise InputError("give either --system or --model, not both")
    if args.system is not None:
        return load_system(args.system)
    if args.model is None:
        raise InputError("no input system: give --system FILE or --model with --rows/--cols")
    if args.rows is None or args.cols is None:
        raise InputError("--model needs --rows and --cols")
    return generate_system(ModelSpec(args.model, args.rows, args.cols, args.model_seed))


def _add_csv_input_flags(parser):
    parser.add_argument("--csv", action="store_true", help="treat --system as delimited text, not a binary system file")
    parser.add_argument("--delimiter", default=",", help="CSV field delimiter (default ',')")
    parser.add_argument("--skip-rows", type=int, default=0, help="header rows to skip")
    parser.add_argument("--target-column", type=int, default=None, help="0-based column to use as b (default: plant a solution)")
    parser.add_argument("--plant-seed", type=int, default=0, help="seed for the planted solution of a CSV matrix")


def _add_campaign_flags(parser, max_iters, record_dense, record_stride):
    """Flags shared by compare and sweep, with the subcommand's run-length
    defaults; a --plan file replaces the defaults of the flags it names."""
    parser.add_argument("--system", default=None)
    parser.add_argument("--model", default=None, choices=("gaussian", "coherent"))
    parser.add_argument("--rows", type=int, default=None)
    parser.add_argument("--cols", type=int, default=None)
    parser.add_argument("--model-seed", type=int, default=0)
    parser.add_argument("--trials", type=int, default=1)
    parser.add_argument("--max-iters", type=int, default=max_iters)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--record-dense", type=int, default=record_dense)
    parser.add_argument("--record-stride", type=int, default=record_stride)
    parser.add_argument("--out", default=None)
    parser.add_argument("--plan", default=None, help="key = value file supplying defaults for any flag")
    parser.set_defaults(campaign_parser=parser)


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
    spec = ModelSpec(args.model, args.rows, args.cols, args.seed)
    system = generate_system(spec)
    save_system(system, args.out)
    _print_condition(system)
    print(f"saved: {args.out}")
    return 0


def cmd_solve(args) -> int:
    system = _load_input_system(args)
    config = SolverConfig(
        method=args.method,
        s=args.s,
        max_iters=args.max_iters,
        tol=args.tol,
        seed=args.seed,
        record_error=system.x_star is not None,
        record_dense_limit=args.record_dense,
        record_stride=args.record_stride,
    )
    _, trace = run(system, config)
    if args.trace:
        _write_csv(args.trace, TRACE_HEADER, _trace_csv_rows(args.method, args.s, 0, trace))
    final = trace.final
    print(f"status: {trace.status}")
    print(f"iterations: {final.iter}")
    print(f"final_residual: {final.residual_norm:.6e}")
    print(f"elapsed_s: {final.elapsed_ns / 1e9:.6f}")
    try:
        print(f"contraction: {contraction_summary(trace):.6f}")
    except InputError:
        print("contraction: n/a")
    return 0


def cmd_compare(args) -> int:
    if args.methods is None:
        raise InputError("no methods given: use --methods or a plan file")
    if args.out is None:
        raise InputError("no output path: use --out or a plan file")
    system = _campaign_system(args)
    rows, summaries = run_compare(
        system, _parse_methods(args.methods), args.trials, args.mode, args.seed,
        max_iters=args.max_iters, tol=args.tol,
        record_dense_limit=args.record_dense, record_stride=args.record_stride,
    )
    _write_csv(args.out, TRACE_HEADER, rows)
    for line in summaries:
        print(line)
    print(f"saved: {args.out}")
    return 0


def cmd_sweep(args) -> int:
    if args.method is None or args.s_list is None or args.threshold is None or args.out is None:
        raise InputError("sweep needs --method, --s-list, --threshold, and --out (flags or plan file)")
    system = _campaign_system(args)
    rows = run_sweep(
        system, args.method, _parse_s_list(args.s_list), args.threshold,
        trials=args.trials, max_iters=args.max_iters, seed=args.seed,
        record_dense_limit=args.record_dense, record_stride=args.record_stride,
    )
    _write_csv(args.out, SWEEP_HEADER, rows)
    by_s = {}
    for s, _, iters, _ in rows:
        by_s.setdefault(s, []).append(math.inf if iters == "DNF" else int(iters))
    for s, iters in by_s.items():
        print(f"s={s} trials={len(iters)} median_iters_to_threshold={_median_text(iters, as_int=True)}")
    print(f"saved: {args.out}")
    return 0


def cmd_diagnose(args) -> int:
    system = _load_input_system(args)
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
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a synthetic system and save it")
    p.add_argument("--model", required=True, choices=("gaussian", "coherent"))
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--cols", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("solve", help="run one method on a stored system")
    p.add_argument("--system", required=True)
    _add_csv_input_flags(p)
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--s", type=int, default=1, help="sketch size (sketched methods)")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--max-iters", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", default=None, help="write the per-iteration trace CSV here")
    p.add_argument("--record-dense", type=int, default=10_000)
    p.add_argument("--record-stride", type=int, default=10)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("compare", help="run several methods on one system, emit trace CSV")
    _add_campaign_flags(p, max_iters=10_000, record_dense=10_000, record_stride=10)
    p.add_argument("--methods", default=None, help="comma list, sketched methods take :s (e.g. kaczmarz,gsm:25)")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--mode", default="per-iteration", choices=("per-iteration", "per-time"))
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("sweep", help="iterations/time to an error threshold across sketch sizes")
    _add_campaign_flags(p, max_iters=100_000, record_dense=2000, record_stride=20)
    p.add_argument("--method", default=None, choices=_SKETCHED)
    p.add_argument("--s-list", default=None, help="comma list of sketch sizes")
    p.add_argument("--threshold", type=float, default=None, help="relative error (or residual) threshold")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("diagnose", help="condition diagnostics of a stored system")
    p.add_argument("--system", required=True)
    _add_csv_input_flags(p)
    p.set_defaults(func=cmd_diagnose)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "plan", None):
            _apply_plan(args.campaign_parser, args.plan)
            args = parser.parse_args(argv)
        return int(args.func(args) or 0)
    except SystemExit as exc:
        return int(exc.code or 0)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (RankDeficientError, ZeroRowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
