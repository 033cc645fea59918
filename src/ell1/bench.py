"""Experiment harness: phase grids, noise sweeps, corruption sweeps.

Every experiment derives each trial's seed from (base_seed, grid indices,
trial index) with a stable mix, so trials are independent work items: the
same configuration always reproduces the same instances regardless of
worker count, and every solver in a comparison sees identical data.
Reported wall times cover solving only, never generation or I/O.
"""

import csv
import json
import platform
import time
from collections import namedtuple
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

import ell1
from ell1.alm import dalm_solve, palm_solve
from ell1.gradient_projection import gpsr_solve, tnipm_solve
from ell1.homotopy import homotopy_solve
from ell1.model import ProblemInstance, SolverConfig
from ell1.pdipa import pdipa_solve
from ell1.robust import cab_solve
from ell1.shrinkage import fista_solve, ist_solve
from ell1.synth import (GenSpec, RNG_NAME, add_noise, corrupt_entries,
                        gen_bouquet_dict, gen_gaussian_dict,
                        gen_sparse_signal, make_instance, trial_seed)

# One row per solver: its form ("equality" or "penalized"), whether it
# runs on an implicit dictionary such as cab_solve's [A, sI] (tnipm forms
# A * A), and its entry (P, config) -> SolverResult, which calls the
# solver through this module's global name so that patching it reaches
# every caller.
SolverRow = namedtuple("SolverRow", "form implicit entry")

SOLVERS = {
    "pdipa": SolverRow("equality", True, lambda P, c: pdipa_solve(P, c)),
    "homotopy": SolverRow("penalized", True, lambda P, c: homotopy_solve(
        P, c.lam, c)),
    "gpsr": SolverRow("penalized", True, lambda P, c: gpsr_solve(
        P, c.lam, c)),
    "tnipm": SolverRow("penalized", False, lambda P, c: tnipm_solve(
        P, c.lam, c)),
    "ist": SolverRow("penalized", True, lambda P, c: ist_solve(P, None, c)),
    "fista": SolverRow("penalized", True, lambda P, c: fista_solve(P, c)),
    "palm": SolverRow("equality", True, lambda P, c: palm_solve(P, c)),
    "dalm": SolverRow("equality", True, lambda P, c: dalm_solve(P, c)),
}
SOLVER_NAMES = tuple(SOLVERS)  # the eight solvers, without aliases
SOLVERS["gp"] = SOLVERS["gpsr"]  # short name of GPSR

# near-zero relative penalty for noiseless recovery runs, where the
# penalized solvers should approximate the equality-constrained answer;
# small enough that the shrinkage bias sits well under the success
# tolerance, large enough that first-order solvers still converge fast
_PHASE_LAM_REL = 1e-4


def solver_names(implicit=False):
    """Every accepted solver name; with implicit=True only those whose
    solver runs on an implicit dictionary."""
    return tuple(name for name, row in SOLVERS.items()
                 if row.implicit or not implicit)


def solve_named(name, P, config):
    """Run the solver named by a key of SOLVERS on P."""
    if name not in SOLVERS:
        raise ValueError("unknown solver %r (choose from %s)"
                         % (name, ", ".join(SOLVERS)))
    return SOLVERS[name].entry(P, config)


@dataclass(frozen=True)
class PhaseGrid:
    """Success rates over a sparsity-rate / sampling-rate grid."""

    n: int
    rho_values: tuple
    delta_values: tuple
    success_rate: np.ndarray
    trials_per_cell: int
    base_seed: int
    success_tol: float

    def __post_init__(self):
        for seq in (self.rho_values, self.delta_values):
            arr = np.asarray(seq, dtype=np.float64)
            if arr.size == 0 or np.any(arr <= 0.0) or np.any(arr > 1.0):
                raise ValueError("grid axes must lie in (0, 1]")
            if np.any(np.diff(arr) <= 0.0):
                raise ValueError("grid axes must be strictly increasing")
        rates = np.asarray(self.success_rate, dtype=np.float64)
        if rates.shape != (len(self.rho_values), len(self.delta_values)):
            raise ValueError("success_rate shape must be |rho| x |delta|")
        if np.any(rates < 0.0) or np.any(rates > 1.0):
            raise ValueError("success rates must lie in [0, 1]")
        if self.trials_per_cell < 1:
            raise ValueError("trials_per_cell must be at least 1")
        if not self.success_tol > 0:
            raise ValueError("success_tol must be positive")


@dataclass(frozen=True)
class SweepResult:
    """Per-solver metrics along one experimental axis.

    mean_* matrices are |solvers| x |axis|. success_rate is present for
    identification-style sweeps, the mean_rel_error and mean_iterations
    pair for estimation-style sweeps; absent metrics are None.
    """

    axis_name: str
    axis_values: tuple
    solvers: tuple
    trials: int
    mean_time: np.ndarray
    mean_rel_error: np.ndarray = None
    mean_iterations: np.ndarray = None
    success_rate: np.ndarray = None

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        want = (len(self.solvers), len(self.axis_values))
        for name in ("mean_time", "mean_rel_error", "mean_iterations",
                     "success_rate"):
            mat = getattr(self, name)
            if mat is None:
                continue
            if np.asarray(mat).shape != want:
                raise ValueError("%s must be |solvers| x |axis|" % name)


def _phase_task(args):
    solver, n, k, d, seed, success_tol, tol, max_iter, lam = args
    P = make_instance(GenSpec(n=n, d=d, k=k, seed=seed))
    lam_val = lam if lam is not None else \
        _PHASE_LAM_REL * float(np.max(np.abs(P.A.T @ P.b)))
    cfg = SolverConfig(tol=tol, max_iter=max_iter, lam=lam_val)
    res = solve_named(solver, P, cfg)
    err = np.linalg.norm(res.x_star - P.ground_truth)
    return bool(err <= success_tol * np.linalg.norm(P.ground_truth))


def _run_tasks(fn, tasks, jobs):
    if jobs <= 1:
        return [fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        chunk = max(1, len(tasks) // (4 * jobs))
        return list(pool.map(fn, tasks, chunksize=chunk))


def run_phase_grid(solver, n, rho_values, delta_values, trials,
                   success_tol=1e-3, base_seed=0, config=None, jobs=1):
    """Success-rate grid over sparsity rate rho = k/n, sampling rate
    delta = d/n.

    Each cell runs `trials` fresh instances with k = round(rho n),
    d = round(delta n); success means the relative l2 estimation error is
    at most success_tol. Penalized solvers run at a vanishing penalty
    (1e-6 of the correlation peak) unless config.lam pins one. jobs > 1
    fans the trials over processes; results are identical either way.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    tol = config.tol if config is not None else 1e-8
    max_iter = config.max_iter if config is not None else 20000
    lam = config.lam if config is not None else None
    tasks = []
    for i, rho in enumerate(rho_values):
        for j, delta in enumerate(delta_values):
            k = max(1, int(round(rho * n)))
            d = max(1, int(round(delta * n)))
            for t in range(trials):
                tasks.append((solver, n, k, d,
                              trial_seed(base_seed, i, j, t),
                              success_tol, tol, max_iter, lam))
    flags = _run_tasks(_phase_task, tasks, jobs)
    rates = np.asarray(flags, dtype=np.float64).reshape(
        len(rho_values), len(delta_values), trials).mean(axis=2)
    return PhaseGrid(n=n, rho_values=tuple(float(r) for r in rho_values),
                     delta_values=tuple(float(x) for x in delta_values),
                     success_rate=rates, trials_per_cell=trials,
                     base_seed=base_seed, success_tol=success_tol)


def interpolate_success_contour(grid, level):
    """Linearly interpolated crossings of one success level.

    Walks each sampling-rate column upward in rho and returns the first
    crossing from at-or-above `level` to below it, interpolated between
    the two grid rows. Columns that never cross are omitted. Returns a
    list of (delta, rho) pairs.
    """
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie in (0, 1)")
    rho = np.asarray(grid.rho_values)
    out = []
    for j, delta in enumerate(grid.delta_values):
        col = grid.success_rate[:, j]
        for i in range(len(rho) - 1):
            hi, lo = col[i], col[i + 1]
            if hi >= level > lo:
                frac = (hi - level) / (hi - lo)
                out.append((float(delta),
                            float(rho[i] + frac * (rho[i + 1] - rho[i]))))
                break
    return out


def _noise_task(args):
    solvers, n, k, d, seed, noise_sigma, tol, max_iter, lam = args
    # standard-normal-scale entries (norm sqrt(k)) keep the per-entry
    # signal level fixed as k and d vary, so sigma is a meaningful SNR knob
    A = gen_gaussian_dict(d, n, seed)
    x0 = np.sqrt(k) * gen_sparse_signal(n, k, seed)
    b = add_noise(A @ x0, noise_sigma, seed)
    P = ProblemInstance(A, b, ground_truth=x0, noise_sigma=noise_sigma)
    lam_val = lam
    if lam_val is None:
        if noise_sigma == 0.0:
            # noise-free runs approximate the equality-constrained answer
            lam_val = _PHASE_LAM_REL * float(np.max(np.abs(A.T @ b)))
        else:
            # threshold at the per-coordinate noise level; entries are
            # standard-normal scale, so this trades bias and variance well
            lam_val = noise_sigma
    cfg = SolverConfig(tol=tol, max_iter=max_iter, lam=lam_val)
    rows = []
    for name in solvers:
        res = solve_named(name, P, cfg)
        err = float(np.linalg.norm(res.x_star - P.ground_truth)
                    / np.linalg.norm(P.ground_truth))
        rows.append((res.wall_time_seconds, err, res.iterations))
    return rows


def run_noise_sweep(solvers, mode, spec, trials, base_seed=0, config=None,
                    jobs=1):
    """Noisy-recovery sweep along one axis with all solvers sharing data.

    mode "vary-d" reads spec keys n, k, d_values; mode "vary-k" reads
    n, d, rho_values (sparsity rates, k = round(rho n)). Optional key
    noise_sigma (default 0.1). Signals carry standard-normal-scale
    entries. When config.lam is unset, noisy runs penalize at the noise
    level and noise-free runs at a vanishing penalty. Every solver sees
    the same instance per (axis value, trial). Returns a SweepResult
    with mean wall time, mean relative l2 error, and mean iterations.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if mode not in ("vary-d", "vary-k"):
        raise ValueError("mode must be vary-d or vary-k")
    solvers = tuple(solvers)
    n = int(spec["n"])
    sigma = float(spec.get("noise_sigma", 0.1))
    if mode == "vary-d":
        axis = tuple(int(v) for v in spec["d_values"])
        cells = [(int(spec["k"]), d) for d in axis]
    else:
        axis = tuple(float(v) for v in spec["rho_values"])
        cells = [(max(1, int(round(r * n))), int(spec["d"])) for r in axis]
    tol = config.tol if config is not None else 1e-6
    max_iter = config.max_iter if config is not None else 5000
    lam = config.lam if config is not None else None
    tasks = [(solvers, n, k, d, trial_seed(base_seed, i, t), sigma,
              tol, max_iter, lam)
             for i, (k, d) in enumerate(cells) for t in range(trials)]
    rows = _run_tasks(_noise_task, tasks, jobs)
    data = np.asarray(rows, dtype=np.float64).reshape(
        len(axis), trials, len(solvers), 3)
    means = data.mean(axis=1)  # |axis| x |solvers| x 3
    return SweepResult(axis_name="d" if mode == "vary-d" else "rho",
                       axis_values=axis, solvers=solvers, trials=trials,
                       mean_time=means[:, :, 0].T,
                       mean_rel_error=means[:, :, 1].T,
                       mean_iterations=means[:, :, 2].T)


def _corruption_task(args):
    (solvers, d, n, groups, coherence, amp, level, seed, tol,
     max_iter) = args
    rng = np.random.default_rng(seed)
    A, labels = gen_bouquet_dict(d, n, groups, coherence, seed)
    g = int(rng.integers(groups))
    members = np.flatnonzero(labels == g)
    active = rng.choice(members, size=min(3, members.size), replace=False)
    x0 = np.zeros(n)
    x0[active] = (rng.uniform(0.5, 1.5, size=active.size)
                  * rng.choice([-1.0, 1.0], size=active.size))
    b = A @ x0
    scale = amp * float(np.max(np.abs(b)))
    b_bad, _ = corrupt_entries(b, level, -scale, scale, seed + 100000)
    cfg = SolverConfig(tol=tol, max_iter=max_iter)
    rows = []
    for name in solvers:
        t0 = time.perf_counter()
        x, e, _ = cab_solve(A, b_bad, name, cfg)
        dt = time.perf_counter() - t0
        norms = [np.linalg.norm(x[labels == gg]) for gg in range(groups)]
        rows.append((dt, float(int(np.argmax(norms)) == g)))
    return rows


def run_corruption_sweep(dict_spec, corruption_levels, solvers, trials,
                         base_seed=0, config=None, jobs=1):
    """Group identification rate under growing gross corruption.

    dict_spec keys d, n, groups, coherence describe the clustered
    dictionary; optional key corruption_amp (default 1) sets the
    corruption range in units of the peak clean measurement. Each trial
    plants one active group, corrupts the given fraction of
    measurements, solves the corruption-extended system with each
    backend, and scores a hit when the group with the largest
    coefficient energy is the planted one. Returns a SweepResult with
    success_rate and mean wall time per (backend, level).
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    solvers = tuple(solvers)
    d, n = int(dict_spec["d"]), int(dict_spec["n"])
    groups = int(dict_spec["groups"])
    coherence = float(dict_spec["coherence"])
    amp = float(dict_spec.get("corruption_amp", 1.0))
    levels = tuple(float(v) for v in corruption_levels)
    tol = config.tol if config is not None else 1e-8
    max_iter = config.max_iter if config is not None else 4000
    tasks = [(solvers, d, n, groups, coherence, amp, lv,
              trial_seed(base_seed, i, t), tol, max_iter)
             for i, lv in enumerate(levels) for t in range(trials)]
    rows = _run_tasks(_corruption_task, tasks, jobs)
    data = np.asarray(rows, dtype=np.float64).reshape(
        len(levels), trials, len(solvers), 2)
    means = data.mean(axis=1)
    return SweepResult(axis_name="corruption", axis_values=levels,
                       solvers=solvers, trials=trials,
                       mean_time=means[:, :, 0].T,
                       success_rate=means[:, :, 1].T)


def _fmt(v):
    return "%.17g" % float(v)


def phase_grid_to_csv(grid, path):
    """One row per grid cell: rho, delta, success_rate. Deterministic."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["rho", "delta", "success_rate"])
        for i, rho in enumerate(grid.rho_values):
            for j, delta in enumerate(grid.delta_values):
                w.writerow([_fmt(rho), _fmt(delta),
                            _fmt(grid.success_rate[i, j])])
    return path


def sweep_to_csv(sweep, path):
    """One row per (axis value, solver) with the metrics that exist.

    All columns except mean_time_seconds are bit-deterministic for a
    fixed configuration; times vary with the machine.
    """
    metrics = [(name, getattr(sweep, name))
               for name in ("mean_time", "mean_rel_error",
                            "mean_iterations", "success_rate")
               if getattr(sweep, name) is not None]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        header = [sweep.axis_name, "solver"]
        for name, _ in metrics:
            header.append("mean_time_seconds" if name == "mean_time"
                          else name)
        w.writerow(header)
        for j, val in enumerate(sweep.axis_values):
            for s, solver in enumerate(sweep.solvers):
                row = [_fmt(val), solver]
                row.extend(_fmt(mat[s, j]) for _, mat in metrics)
                w.writerow(row)
    return path


def environment_metadata():
    """Reproducibility context embedded in every JSON summary."""
    return {
        "package_version": ell1.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "rng": RNG_NAME,
        "platform": platform.platform(),
        "compiled_kernels": ell1.kernels_compiled,
    }


def write_summary_json(path, kind, parameters, results=None):
    """Stable-key JSON summary: experiment kind, echoed parameters,
    environment metadata, and optional result highlights."""
    payload = {"kind": kind, "parameters": parameters,
               "environment": environment_metadata()}
    if results is not None:
        payload["results"] = results
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return path


_SVG_W, _SVG_H = 640, 420
_MARGIN = 54
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
            "#8c564b", "#17becf", "#7f7f7f")


def _svg_scale(vals, lo, hi, out_lo, out_hi):
    span = hi - lo if hi > lo else 1.0
    return [(out_lo + (v - lo) / span * (out_hi - out_lo)) for v in vals]


def _svg_document(body, x_label, y_label, title):
    head = ('<svg xmlns="http://www.w3.org/2000/svg" width="%d" '
            'height="%d" viewBox="0 0 %d %d">\n'
            % (_SVG_W, _SVG_H, _SVG_W, _SVG_H))
    frame = ('<rect x="%d" y="%d" width="%d" height="%d" fill="none" '
             'stroke="black"/>\n'
             % (_MARGIN, _MARGIN // 2, _SVG_W - 2 * _MARGIN,
                _SVG_H - _MARGIN - _MARGIN // 2))
    labels = ('<text x="%d" y="%d" font-size="13" text-anchor="middle">'
              '%s</text>\n' % (_SVG_W // 2, _SVG_H - 8, x_label))
    labels += ('<text x="14" y="%d" font-size="13" text-anchor="middle" '
               'transform="rotate(-90 14 %d)">%s</text>\n'
               % (_SVG_H // 2, _SVG_H // 2, y_label))
    labels += ('<text x="%d" y="18" font-size="14" text-anchor="middle">'
               '%s</text>\n' % (_SVG_W // 2, title))
    return head + frame + labels + body + "</svg>\n"


def _polyline_body(series, x_range, y_range):
    x_lo, x_hi = x_range
    y_lo, y_hi = y_range
    body = ""
    for idx, (name, xs, ys) in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        px = _svg_scale(xs, x_lo, x_hi, _MARGIN, _SVG_W - _MARGIN)
        py = _svg_scale(ys, y_lo, y_hi, _SVG_H - _MARGIN, _MARGIN // 2)
        pts = " ".join("%.6g,%.6g" % (a, b) for a, b in zip(px, py))
        body += ('<polyline points="%s" fill="none" stroke="%s" '
                 'stroke-width="1.5"/>\n' % (pts, color))
        body += ('<text x="%d" y="%d" font-size="12" fill="%s">%s</text>\n'
                 % (_SVG_W - _MARGIN + 4, _MARGIN // 2 + 14 + 16 * idx,
                    color, name))
    for v, anchor, x, y in (
            (x_lo, "middle", _MARGIN, _SVG_H - _MARGIN + 16),
            (x_hi, "middle", _SVG_W - _MARGIN, _SVG_H - _MARGIN + 16),
            (y_lo, "end", _MARGIN - 4, _SVG_H - _MARGIN),
            (y_hi, "end", _MARGIN - 4, _MARGIN // 2 + 10)):
        body += ('<text x="%.6g" y="%.6g" font-size="11" '
                 'text-anchor="%s">%.4g</text>\n' % (x, y, anchor, v))
    return body


def sweep_svg(sweep, metric, path, title=None):
    """Line plot of one sweep metric, one polyline per solver."""
    mat = getattr(sweep, metric)
    if mat is None:
        raise ValueError("sweep has no %s metric" % metric)
    xs = list(sweep.axis_values)
    series = [(name, xs, list(mat[s])) for s, name in
              enumerate(sweep.solvers)]
    y_all = np.asarray(mat, dtype=np.float64)
    y_lo = float(min(0.0, y_all.min()))
    y_hi = float(y_all.max()) or 1.0
    body = _polyline_body(series, (min(xs), max(xs)), (y_lo, y_hi))
    doc = _svg_document(body, sweep.axis_name, metric,
                        title or ("%s by %s" % (metric, sweep.axis_name)))
    with open(path, "w") as fh:
        fh.write(doc)
    return path


def phase_contour_svg(grid, levels, path, title=None):
    """Interpolated success contours in the (delta, rho) plane."""
    series = []
    for level in levels:
        pts = interpolate_success_contour(grid, level)
        if pts:
            series.append(("%g%%" % (100 * level),
                           [p[0] for p in pts], [p[1] for p in pts]))
    d_lo, d_hi = grid.delta_values[0], grid.delta_values[-1]
    r_lo, r_hi = grid.rho_values[0], grid.rho_values[-1]
    body = _polyline_body(series, (d_lo, d_hi), (r_lo, r_hi))
    doc = _svg_document(body, "sampling rate", "sparsity rate",
                        title or "success contours")
    with open(path, "w") as fh:
        fh.write(doc)
    return path
