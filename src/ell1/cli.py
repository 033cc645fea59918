"""Command-line front end: solve, generate, benchmark, report.

File formats are plain CSV (UTF-8, LF, one matrix row per line, "%.17g"
numbers, no header; vectors are single-column) and JSON with a fixed key
order. Relative output paths are resolved against the directory named by
the ELL1_OUT_DIR environment variable when it is set.

Exit codes: 0 success, 1 the solver finished without meeting its
convergence test (results are still written) or broke down numerically,
2 usage error (bad flags, missing or malformed files, dimension
mismatch) with a diagnostic on stderr.
"""

import argparse
import json
import os
import re
import sys
import time

import numpy as np

from ell1.bench import (SOLVERS, PhaseGrid, SweepResult,
                        interpolate_success_contour, phase_contour_svg,
                        phase_grid_to_csv, run_noise_sweep, run_phase_grid,
                        solve_named, sweep_svg, sweep_to_csv,
                        write_summary_json)
from ell1.exceptions import NumericalError
from ell1.model import (ProblemInstance, SolverConfig, kkt_from_correlation,
                        kkt_residual, objective)
from ell1.operators import as_operator
from ell1.robust import (AlignmentProblem, _cab_problem, _column_gram_factor,
                         _default_align_lambda, align_gp_solve,
                         align_homotopy_solve, align_ist_solve,
                         align_palm_solve, cab_solve)
from ell1.synth import GenSpec, make_instance

# the aligners: form and entry (problem, config) -> (w, e)
_ALIGNERS = {
    "gp": ("penalized", lambda p, c: align_gp_solve(p, c.lam, c)),
    "homotopy": ("penalized", align_homotopy_solve),
    "ist": ("penalized", lambda p, c: align_ist_solve(p, c.lam, c)),
    "palm": ("equality", align_palm_solve),
}
_FMT = "%.17g"


class _CliError(Exception):
    """Usage-level failure: reported on stderr, exit code 2."""


def _out_path(path):
    base = os.environ.get("ELL1_OUT_DIR")
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _load_array(path, what):
    try:
        arr = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
    except OSError as exc:
        raise _CliError("cannot read %s file %r: %s" % (what, path, exc))
    except ValueError as exc:
        raise _CliError("malformed CSV in %s file %r: %s"
                        % (what, path, exc))
    return arr


def _load_matrix(path, what="matrix"):
    return _load_array(path, what)


def _load_vector(path, what="vector"):
    arr = _load_array(path, what)
    if arr.shape[1] != 1:
        raise _CliError("%s file %r must be a single-column CSV, got "
                        "%d columns" % (what, path, arr.shape[1]))
    return arr[:, 0].copy()


def _save_matrix(path, M):
    np.savetxt(_out_path(path), np.atleast_2d(M), fmt=_FMT, delimiter=",")


def _save_vector(path, v):
    np.savetxt(_out_path(path), np.asarray(v)[:, None], fmt=_FMT,
               delimiter=",")


def _write_json(path, payload):
    with open(_out_path(path), "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _check_rows(label_a, shape, label_b, length):
    if shape[0] != length:
        raise _CliError("%s is %dx%d but %s has length %d"
                        % (label_a, shape[0], shape[1], label_b, length))


def _solver_config(args, tol, max_iter):
    lam = getattr(args, "lam", None)
    options = {}
    if getattr(args, "e_weight", None) is not None:
        options["e_weight"] = args.e_weight
    return SolverConfig(lam=lam,
                        tol=args.tol if args.tol is not None else tol,
                        max_iter=(args.max_iter if args.max_iter is not None
                                  else max_iter),
                        options=options)


def _config_echo(cfg):
    echo = {"tol": cfg.tol, "max_iter": cfg.max_iter, "lam": cfg.lam}
    echo.update(sorted(cfg.options.items()))
    return echo


def _result_payload(algo, n, d, lam, iterations, converged, wall_time, x,
                    obj, kkt, cfg, seed, e=None):
    payload = {
        "algo": algo,
        "n": n,
        "d": d,
        "lambda": lam,
        "iterations": iterations,
        "converged": converged,
        "wall_time_seconds": wall_time,
        "x": [float(v) for v in x],
    }
    if e is not None:
        payload["e"] = [float(v) for v in e]
    payload["objective"] = obj
    payload["kkt_residual"] = kkt
    payload["config_echo"] = _config_echo(cfg)
    payload["seed"] = seed
    return payload


def _certificate(algo, P, x, cfg):
    """(lambda, objective, KKT residual) of x on the problem algo saw.

    A penalized solver reports its resolved weight, F(x) and the KKT
    residual of F. An equality-form solver reports no weight; it, and a
    zero weight (homotopy driven to a zero target), report the l1 norm
    and the largest constraint violation.
    """
    D = as_operator(P.A)
    lam = (None if SOLVERS[algo].form == "equality"
           else cfg.resolved_lambda(D.adjoint(P.b)))
    if not lam:
        return (lam, float(np.sum(np.abs(x))),
                float(np.max(np.abs(D.apply(x) - P.b))))
    return lam, objective(x, P, lam), kkt_residual(x, P, lam)


def _cmd_solve(args):
    A = _load_matrix(args.matrix)
    b = _load_vector(args.rhs, "rhs")
    _check_rows("matrix", A.shape, "rhs", b.size)
    P = ProblemInstance(A, b)
    cfg = _solver_config(args, tol=1e-6, max_iter=5000)
    res = solve_named(args.algo, P, cfg)
    lam, obj, kkt = _certificate(args.algo, P, res.x_star, cfg)
    payload = _result_payload(args.algo, P.n, P.d, lam, res.iterations,
                              bool(res.converged), res.wall_time_seconds,
                              res.x_star, obj, kkt, cfg, args.seed)
    _write_json(args.out, payload)
    return 0 if res.converged else 1


def _cmd_gen(args):
    try:
        spec = GenSpec(n=args.n, d=args.d, k=args.k, seed=args.seed,
                       noise_sigma=args.noise_sigma)
    except ValueError as exc:
        raise _CliError(str(exc))
    P = make_instance(spec)
    _save_matrix(args.matrix, P.A)
    _save_vector(args.rhs, P.b)
    if args.truth is not None:
        _save_vector(args.truth, P.ground_truth)
    return 0


def _parse_grid(text):
    m = re.fullmatch(r"(\d+)x(\d+)", text)
    if not m or int(m.group(1)) < 1 or int(m.group(2)) < 1:
        raise _CliError("grid must look like 16x16 (rho cells x delta "
                        "cells), got %r" % text)
    rows, cols = int(m.group(1)), int(m.group(2))
    # interior grid points of (0, 1) on both axes
    rho = tuple((i + 1) / (rows + 1) for i in range(rows))
    delta = tuple((j + 1) / (cols + 1) for j in range(cols))
    return rho, delta


def _parse_levels(text):
    try:
        levels = [float(tok) / 100.0 for tok in text.split(",") if tok]
    except ValueError:
        raise _CliError("levels must be comma-separated percentages, "
                        "got %r" % text)
    if not levels or not all(0.0 < lv < 1.0 for lv in levels):
        raise _CliError("levels must lie strictly between 0 and 100")
    return levels


def _cmd_phase(args):
    rho, delta = _parse_grid(args.grid)
    cfg = _solver_config(args, tol=1e-8, max_iter=20000)
    grid = run_phase_grid(args.algo, args.n, rho, delta,
                          trials=args.trials,
                          success_tol=args.success_tol,
                          base_seed=args.seed, config=cfg, jobs=args.jobs)
    phase_grid_to_csv(grid, _out_path(args.out))
    if args.svg is not None:
        phase_contour_svg(grid, _parse_levels(args.levels),
                          _out_path(args.svg), title=args.title)
    if args.summary is not None:
        write_summary_json(
            _out_path(args.summary), "phase",
            {"algo": args.algo, "n": args.n, "grid": args.grid,
             "trials": args.trials, "seed": args.seed,
             "success_tol": args.success_tol},
            results={"cells": len(rho) * len(delta),
                     "mean_success_rate": float(grid.success_rate.mean())})
    return 0


def _parse_solver_list(text):
    names = tuple(tok for tok in text.split(",") if tok)
    if not names:
        raise _CliError("need at least one solver name")
    for name in names:
        if name not in SOLVERS:
            raise _CliError("unknown solver %r (choose from %s)"
                            % (name, ", ".join(SOLVERS)))
    return names


def _parse_float_list(text, flag):
    try:
        values = [float(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise _CliError("%s must be a comma-separated number list, got %r"
                        % (flag, text))
    if not values:
        raise _CliError("%s must not be empty" % flag)
    return values


def _cmd_noise_sweep(args):
    solvers = _parse_solver_list(args.solvers)
    if args.mode == "vary-d":
        if args.k is None or args.d_values is None:
            raise _CliError("vary-d needs --k and --d-values")
        spec = {"n": args.n, "k": args.k,
                "d_values": [int(v) for v in
                             _parse_float_list(args.d_values, "--d-values")]}
    else:
        if args.d is None or args.rho_values is None:
            raise _CliError("vary-k needs --d and --rho-values")
        spec = {"n": args.n, "d": args.d,
                "rho_values": _parse_float_list(args.rho_values,
                                                "--rho-values")}
    spec["noise_sigma"] = args.noise_sigma
    cfg = _solver_config(args, tol=1e-6, max_iter=5000)
    sweep = run_noise_sweep(solvers, args.mode, spec, trials=args.trials,
                            base_seed=args.seed, config=cfg, jobs=args.jobs)
    sweep_to_csv(sweep, _out_path(args.out))
    if args.svg is not None:
        sweep_svg(sweep, args.metric, _out_path(args.svg), title=args.title)
    if args.summary is not None:
        write_summary_json(
            _out_path(args.summary), "noise-sweep",
            {"mode": args.mode, "solvers": list(solvers),
             "trials": args.trials, "seed": args.seed,
             "noise_sigma": args.noise_sigma,
             "spec": {k: v for k, v in sorted(spec.items())}},
            results={"axis": list(sweep.axis_values)})
    return 0


def _cmd_cab(args):
    A = _load_matrix(args.matrix)
    b = _load_vector(args.rhs, "rhs")
    _check_rows("matrix", A.shape, "rhs", b.size)
    cfg = _solver_config(args, tol=1e-8, max_iter=4000)
    x, e, res = cab_solve(A, b, args.algo, cfg)
    d, n = A.shape
    # certified on the stacked answer and system the backend saw
    lam, obj, kkt = _certificate(args.algo, _cab_problem(A, b, cfg),
                                 res.x_star, cfg)
    payload = _result_payload(args.algo, n, d, lam, res.iterations,
                              bool(res.converged), res.wall_time_seconds,
                              x, obj, kkt, cfg, args.seed, e=e)
    _write_json(args.out, payload)
    return 0 if res.converged else 1


def _cmd_align(args):
    B = _load_matrix(args.basis, "basis")
    b = _load_vector(args.rhs, "rhs")
    _check_rows("basis", B.shape, "rhs", b.size)
    try:
        prob = AlignmentProblem(B, b)
    except ValueError as exc:
        raise _CliError(str(exc))
    cfg = _solver_config(args, tol=1e-8, max_iter=5000)
    form, entry = _ALIGNERS[args.algo]
    t0 = time.perf_counter()
    w, e = entry(prob, cfg)
    wall = time.perf_counter() - t0
    r = b - B @ w - e
    # the alignment solvers return plain (w, e); iteration counts are not
    # part of their contract, so convergence is certified after the fact
    lam_field = None if form == "equality" else cfg.lam
    if form == "penalized" and lam_field is None:
        Q1 = _column_gram_factor(B)[0]
        lam_field = _default_align_lambda(prob, b - Q1 @ (Q1.T @ b))
    if not lam_field:
        # the exact-fit form, and a zero weight, which solves it
        obj = float(np.sum(np.abs(e)))
        kkt = float(np.max(np.abs(r)))
        converged = bool(np.linalg.norm(r)
                         <= 10.0 * cfg.tol * np.linalg.norm(b))
    else:
        obj = (0.5 * float(r @ r)
               + lam_field * float(np.sum(np.abs(e))))
        grad_w = float(np.max(np.abs(B.T @ r)))
        kkt = max(grad_w, kkt_from_correlation(e, r, lam_field))
        scale = float(np.max(np.abs(B.T @ b)))
        converged = bool(grad_w <= 10.0 * cfg.tol * scale
                         and kkt_from_correlation(e, r, lam_field)
                         <= 10.0 * cfg.tol * lam_field)
    payload = _result_payload(args.algo, prob.m, prob.d, lam_field, None,
                              converged, wall, w, obj, kkt, cfg, args.seed,
                              e=e)
    _write_json(args.out, payload)
    return 0 if converged else 1


def _read_csv_table(path):
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    except OSError as exc:
        raise _CliError("cannot read %r: %s" % (path, exc))
    if len(lines) < 2:
        raise _CliError("%r holds no data rows" % path)
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    if any(len(row) != len(header) for row in rows):
        raise _CliError("ragged CSV in %r" % path)
    return header, rows


def _grid_from_csv(path):
    header, rows = _read_csv_table(path)
    if header != ["rho", "delta", "success_rate"]:
        raise _CliError("%r is not a phase grid CSV" % path)
    try:
        data = [(float(a), float(b), float(c)) for a, b, c in rows]
    except ValueError:
        raise _CliError("malformed numbers in %r" % path)
    rho = tuple(sorted({row[0] for row in data}))
    delta = tuple(sorted({row[1] for row in data}))
    if len(data) != len(rho) * len(delta):
        raise _CliError("%r does not cover a full rho x delta grid" % path)
    rates = np.zeros((len(rho), len(delta)))
    ri = {v: i for i, v in enumerate(rho)}
    dj = {v: j for j, v in enumerate(delta)}
    for rv, dv, sv in data:
        rates[ri[rv], dj[dv]] = sv
    # axes and rates fully determine the plot; the bookkeeping fields of
    # the grid record are placeholders here
    return PhaseGrid(n=1, rho_values=rho, delta_values=delta,
                     success_rate=rates, trials_per_cell=1, base_seed=0,
                     success_tol=1e-3)


_METRIC_BY_COLUMN = {"mean_time_seconds": "mean_time",
                     "mean_rel_error": "mean_rel_error",
                     "mean_iterations": "mean_iterations",
                     "success_rate": "success_rate"}


def _sweep_from_csv(path):
    header, rows = _read_csv_table(path)
    if len(header) < 3 or header[1] != "solver":
        raise _CliError("%r is not a sweep CSV" % path)
    metrics = [_METRIC_BY_COLUMN.get(col) for col in header[2:]]
    if None in metrics:
        raise _CliError("unknown metric column in %r" % path)
    axis, solvers = [], []
    for row in rows:
        val = float(row[0])
        if val not in axis:
            axis.append(val)
        if row[1] not in solvers:
            solvers.append(row[1])
    if len(rows) != len(axis) * len(solvers):
        raise _CliError("%r does not cover a full axis x solver table"
                        % path)
    if "mean_time" not in metrics:
        raise _CliError("%r lacks the mean_time_seconds column" % path)
    columns = {name: np.zeros((len(solvers), len(axis)))
               for name in metrics}
    ai = {v: i for i, v in enumerate(axis)}
    si = {s: i for i, s in enumerate(solvers)}
    for row in rows:
        for name, cell in zip(metrics, row[2:]):
            columns[name][si[row[1]], ai[float(row[0])]] = float(cell)
    return SweepResult(axis_name=header[0], axis_values=tuple(axis),
                       solvers=tuple(solvers), trials=1,
                       mean_time=columns["mean_time"],
                       mean_rel_error=columns.get("mean_rel_error"),
                       mean_iterations=columns.get("mean_iterations"),
                       success_rate=columns.get("success_rate"))


def _cmd_report(args):
    header, _ = _read_csv_table(args.input)
    if header == ["rho", "delta", "success_rate"]:
        grid = _grid_from_csv(args.input)
        levels = _parse_levels(args.levels)
        phase_contour_svg(grid, levels, _out_path(args.svg),
                          title=args.title)
        results = {"kind": "phase",
                   "cells": int(grid.success_rate.size),
                   "contour_points": {
                       "%g" % lv: len(interpolate_success_contour(grid, lv))
                       for lv in levels}}
    else:
        sweep = _sweep_from_csv(args.input)
        metric = args.metric
        if metric is None:
            for candidate in ("mean_rel_error", "success_rate",
                              "mean_time"):
                if getattr(sweep, candidate) is not None:
                    metric = candidate
                    break
        if getattr(sweep, metric, None) is None:
            raise _CliError("metric %r is not present in %r"
                            % (metric, args.input))
        sweep_svg(sweep, metric, _out_path(args.svg), title=args.title)
        results = {"kind": "sweep", "axis_name": sweep.axis_name,
                   "solvers": list(sweep.solvers), "metric": metric}
    if args.summary is not None:
        write_summary_json(_out_path(args.summary), "report",
                           {"input": args.input}, results=results)
    return 0


def _add_config_flags(sub, with_lambda=True):
    if with_lambda:
        sub.add_argument("--lambda", dest="lam", type=float, default=None,
                         help="penalty weight (default: per-solver rule)")
    sub.add_argument("--tol", type=float, default=None,
                     help="convergence tolerance")
    sub.add_argument("--max-iter", type=int, default=None,
                     help="iteration budget")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ell1",
        description="Sparse recovery solvers and benchmarks with CSV/JSON "
                    "file I/O.")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    sp = subs.add_parser("solve", help="run one solver on a CSV instance")
    sp.add_argument("--algo", choices=tuple(SOLVERS), default="fista")
    sp.add_argument("--matrix", required=True)
    sp.add_argument("--rhs", required=True)
    _add_config_flags(sp)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_solve)

    sp = subs.add_parser("gen", help="write a synthetic instance as CSV")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--noise-sigma", type=float, default=0.0)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--matrix", required=True)
    sp.add_argument("--rhs", required=True)
    sp.add_argument("--truth", default=None)
    sp.set_defaults(func=_cmd_gen)

    sp = subs.add_parser("phase", help="success-rate grid over sparsity "
                                       "and sampling rates")
    sp.add_argument("--algo", choices=tuple(SOLVERS), required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--grid", required=True,
                    help="RxC cell counts, e.g. 16x16")
    sp.add_argument("--trials", type=int, default=20)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--success-tol", type=float, default=1e-3)
    _add_config_flags(sp)
    sp.add_argument("--jobs", type=int, default=1)
    sp.add_argument("--out", required=True)
    sp.add_argument("--svg", default=None)
    sp.add_argument("--levels", default="50,90",
                    help="contour percentages for --svg")
    sp.add_argument("--title", default=None)
    sp.add_argument("--summary", default=None)
    sp.set_defaults(func=_cmd_phase)

    sp = subs.add_parser("noise-sweep", help="error/time trends against "
                                             "problem size or sparsity")
    sp.add_argument("--mode", choices=("vary-d", "vary-k"), required=True)
    sp.add_argument("--solvers", required=True,
                    help="comma-separated solver names")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--k", type=int, default=None)
    sp.add_argument("--d-values", default=None)
    sp.add_argument("--d", type=int, default=None)
    sp.add_argument("--rho-values", default=None)
    sp.add_argument("--noise-sigma", type=float, default=0.1)
    sp.add_argument("--trials", type=int, default=10)
    sp.add_argument("--seed", type=int, default=0)
    _add_config_flags(sp)
    sp.add_argument("--jobs", type=int, default=1)
    sp.add_argument("--out", required=True)
    sp.add_argument("--svg", default=None)
    sp.add_argument("--metric", default="mean_rel_error")
    sp.add_argument("--title", default=None)
    sp.add_argument("--summary", default=None)
    sp.set_defaults(func=_cmd_noise_sweep)

    sp = subs.add_parser("cab", help="split a CSV instance into sparse "
                                     "signal plus sparse corruption")
    sp.add_argument("--algo", choices=tuple(SOLVERS), default="homotopy")
    sp.add_argument("--matrix", required=True)
    sp.add_argument("--rhs", required=True)
    _add_config_flags(sp)
    sp.add_argument("--e-weight", dest="e_weight", type=float,
                    default=None)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_cab)

    sp = subs.add_parser("align", help="tall regression with sparse "
                                       "gross errors")
    sp.add_argument("--algo", choices=tuple(_ALIGNERS), default="palm")
    sp.add_argument("--basis", required=True)
    sp.add_argument("--rhs", required=True)
    _add_config_flags(sp)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_align)

    sp = subs.add_parser("report", help="render a saved CSV as SVG")
    sp.add_argument("--input", required=True)
    sp.add_argument("--svg", required=True)
    sp.add_argument("--metric", default=None,
                    help="sweep column to plot (default: first present)")
    sp.add_argument("--levels", default="50,90")
    sp.add_argument("--title", default=None)
    sp.add_argument("--summary", default=None)
    sp.set_defaults(func=_cmd_report)
    return parser


def run(argv):
    """Execute one subcommand; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except _CliError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except NumericalError as exc:
        print("solver failure: %s" % exc, file=sys.stderr)
        return 1
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
