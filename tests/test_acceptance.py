"""End-to-end acceptance runs: one test per shipping criterion.

Each test prints a single summary line with its measured numbers; the
pytest -v PASSED/FAILED status is the verdict. These runs are heavier
than the unit suites and re-verify whole-system behavior rather than
single contracts.
"""

import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from ell1.alm import dalm_solve, palm_solve
from ell1.bench import run_corruption_sweep, run_noise_sweep
from ell1.cli import run as cli_run
from ell1.gradient_projection import gpsr_solve, tnipm_solve
from ell1.homotopy import homotopy_solve
from ell1.model import SolverConfig, kkt_residual, objective
from ell1.numerics import spectral_norm_sq
from ell1.pdipa import pdipa_solve
from ell1.robust import (AlignmentProblem, align_gp_solve,
                         align_homotopy_solve, align_ist_solve)
from ell1.shrinkage import fista_solve, ist_solve
from ell1.synth import GenSpec, make_instance, trial_seed

pytestmark = pytest.mark.acceptance


def spearman(x, y):
    rx = np.argsort(np.argsort(x))
    ry = np.argsort(np.argsort(y))
    return float(np.corrcoef(rx, ry)[0, 1])


def test_criterion_1_exact_recovery_agreement():
    # n=200, d=100, k=10, noise-free: the equality-form solvers and the
    # full path each land on the ground truth in at least 95/100 trials
    t0 = time.monotonic()
    # lam=0 sends homotopy to the equality-form answer the others target
    cfg = SolverConfig(lam=0.0, tol=1e-8, max_iter=2000)
    wins = {"pdipa": 0, "homotopy": 0, "palm": 0, "dalm": 0}
    for t in range(100):
        P = make_instance(GenSpec(n=200, d=100, k=10,
                                  seed=trial_seed(1000, t)))
        nrm = np.linalg.norm(P.ground_truth)
        for name, res in (("pdipa", pdipa_solve(P, cfg)),
                          ("homotopy", homotopy_solve(P, cfg)),
                          ("palm", palm_solve(P, cfg)),
                          ("dalm", dalm_solve(P, cfg))):
            err = np.linalg.norm(res.x_star - P.ground_truth) / nrm
            wins[name] += err <= 1e-4
    elapsed = time.monotonic() - t0
    print("criterion 1: wins=%s time=%.1fs" % (wins, elapsed))
    for name, count in wins.items():
        assert count >= 95, "%s recovered only %d/100" % (name, count)
    assert elapsed <= 120.0


def test_criterion_2_matched_weight_cross_agreement():
    # at one shared penalty weight, every solver family reaches the path
    # solver's exact objective and a tight optimality certificate
    worst_obj, worst_kkt = 0.0, 0.0
    for t in range(20):
        P = make_instance(GenSpec(n=200, d=100, k=10,
                                  seed=trial_seed(3000, t)))
        lam = 1e-2 * float(np.max(np.abs(P.A.T @ P.b)))
        cfg = SolverConfig(lam=lam, tol=1e-6, max_iter=20000)
        results = [solver(P, cfg) for solver in (
            homotopy_solve, gpsr_solve, tnipm_solve, ist_solve, fista_solve)]
        F_ref = objective(results[0].x_star, P, lam)
        for res in results:
            F = objective(res.x_star, P, lam)
            worst_obj = max(worst_obj, abs(F - F_ref) / abs(F_ref))
            worst_kkt = max(worst_kkt,
                            kkt_residual(res.x_star, P, lam) / lam)
    print("criterion 2: worst rel objective gap=%.2e worst kkt/lam=%.2e"
          % (worst_obj, worst_kkt))
    assert worst_obj <= 1e-4
    assert worst_kkt <= 1e-4


def test_criterion_3_momentum_convergence_bound():
    # with exact step constant and fixed weight, the accelerated method
    # obeys F(x_k) - F* <= 2 L ||x_0 - x*||^2 / (k+1)^2 for k <= 500.
    # That is Beck and Teboulle's bound for plain FISTA; fista_solve
    # restarts its momentum, and the bound is checked for the restarted
    # iteration on these instances, not proved for it
    worst_margin = np.inf
    opts = {"exact_L": True}
    for t in range(10):
        P = make_instance(GenSpec(n=100, d=50, k=8,
                                  seed=trial_seed(4000, t)))
        lam = 1e-2 * float(np.max(np.abs(P.A.T @ P.b)))
        L = spectral_norm_sq(P.A)
        # the path solver lands on the minimizer exactly, up to roundoff
        ref = homotopy_solve(P, SolverConfig(lam=lam, max_iter=1000))
        assert ref.converged
        F_star = objective(ref.x_star, P, lam)
        R2 = float(ref.x_star @ ref.x_star)  # the start point is 0
        xs = []
        fista_solve(P, SolverConfig(lam=lam, tol=1e-16, max_iter=500,
                                    options=opts),
                    observer=lambda e: xs.append(e.x))
        for k, xk in enumerate(xs, start=1):
            gap = objective(xk, P, lam) - F_star
            bound = 2.0 * L * R2 / (k + 1) ** 2
            worst_margin = min(worst_margin, bound - gap)
    print("criterion 3: min(bound - gap)=%.3e over 10 instances x 500 steps"
          % worst_margin)
    assert worst_margin >= 0.0


def test_criterion_4_path_length_and_support():
    # noise-free k <= 5: the path reaches the exact support in at most
    # 2k breakpoints in at least 95/100 trials
    cfg = SolverConfig(lam=0.0, tol=1e-8, max_iter=500)
    ok = 0
    for t in range(100):
        k = t % 5 + 1
        P = make_instance(GenSpec(n=200, d=100, k=k,
                                  seed=trial_seed(2000, t)))
        res = homotopy_solve(P, cfg)
        supp = set(np.flatnonzero(np.abs(res.x_star) > 1e-8).tolist())
        want = set(np.flatnonzero(P.ground_truth).tolist())
        ok += (supp == want) and (res.iterations <= 2 * k)
    print("criterion 4: exact support within 2k breakpoints in %d/100" % ok)
    assert ok >= 95


@pytest.mark.slow
def test_criterion_5_noise_sweep_trends():
    # vary-d under noise: error decreases with the measurement count and
    # ends below 5e-2 for the five penalized solvers; the equality-form
    # families are excluded because they interpolate the noise, so their
    # error provably grows with d. vary-k: path length tracks sparsity.
    t0 = time.monotonic()
    solvers = ("homotopy", "gpsr", "tnipm", "ist", "fista")
    sw = run_noise_sweep(
        solvers, "vary-d",
        {"n": 400, "k": 40, "d_values": [160, 200, 240, 280, 320, 360, 380],
         "noise_sigma": 0.01}, trials=20, base_seed=0, jobs=4)
    final_errs = {}
    trends = {}
    for s, name in enumerate(solvers):
        errs = sw.mean_rel_error[s]
        final_errs[name] = float(errs[-1])
        trends[name] = spearman(sw.axis_values, errs)
    sk = run_noise_sweep(
        ("homotopy",), "vary-k",
        {"n": 400, "d": 300,
         "rho_values": [0.05, 0.08, 0.11, 0.14, 0.17, 0.20],
         "noise_sigma": 0.01}, trials=20, base_seed=0, jobs=4)
    iter_trend = spearman(sk.axis_values, sk.mean_iterations[0])
    elapsed = time.monotonic() - t0
    print("criterion 5: err@380=%s trends=%s iter-trend=%+.3f time=%.1fs"
          % ({k: "%.3f" % v for k, v in final_errs.items()},
             {k: "%+.2f" % v for k, v in trends.items()},
             iter_trend, elapsed))
    for name in solvers:
        assert final_errs[name] <= 5e-2, name
        assert trends[name] <= -0.8, name
    assert iter_trend >= 0.8
    assert elapsed <= 300.0


def test_criterion_6_corruption_sweep_identification():
    # bouquet d=80, n=140, 20 groups: identification holds through 40%
    # corruption and the profile never rises by more than 0.05
    sw = run_corruption_sweep(
        {"d": 80, "n": 140, "groups": 20, "coherence": 0.6},
        [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6], ["homotopy"],
        trials=50, base_seed=11, jobs=4)
    rates = sw.success_rate[0]
    print("criterion 6: rates=%s" % np.array2string(rates, precision=3))
    assert float(rates[:5].min()) >= 0.9
    assert float(np.diff(rates).max()) <= 0.05


def test_criterion_7_alignment_solver_agreement():
    # d=120, m=11, 10% gross errors: the three penalized alignment
    # solvers agree on the objective and recover the coefficients
    cfg = SolverConfig(tol=1e-8, max_iter=4000)
    cfg_ist = SolverConfig(tol=1e-8, max_iter=40000)
    wins = 0
    worst_spread, worst_err = 0.0, 0.0
    for t in range(100):
        rng = np.random.default_rng(trial_seed(5000, t))
        B = rng.standard_normal((120, 11))
        w0 = rng.standard_normal(11)
        b = B @ w0
        bad = rng.choice(120, size=12, replace=False)
        b[bad] += 3.0 * rng.choice([-1.0, 1.0], size=12) \
            * (1.0 + rng.random(12))
        prob = AlignmentProblem(B, b, ground_truth_w=w0)
        w_ls = np.linalg.lstsq(B, b, rcond=None)[0]
        lam = 1e-2 * float(np.max(np.abs(b - B @ w_ls)))
        sols = [align_gp_solve(prob, None, cfg),
                align_homotopy_solve(prob, cfg),
                align_ist_solve(prob, None, cfg_ist)]
        objs, errs = [], []
        for w, e in sols:
            r = b - B @ w - e
            objs.append(0.5 * float(r @ r)
                        + lam * float(np.sum(np.abs(e))))
            errs.append(np.linalg.norm(w - w0) / np.linalg.norm(w0))
        spread = (max(objs) - min(objs)) / abs(min(objs))
        worst_spread = max(worst_spread, spread)
        worst_err = max(worst_err, max(errs))
        wins += spread <= 1e-4 and max(errs) <= 1e-2
    print("criterion 7: wins=%d/100 worst spread=%.2e worst err=%.2e"
          % (wins, worst_spread, worst_err))
    assert wins >= 95


@pytest.mark.slow
def test_criterion_8_invariant_suite_green():
    # the property suites (seeded, >= 100 cases each) must pass wholesale
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-m", "invariant", "-q",
         "-p", "no:cacheprovider"],
        cwd=root, capture_output=True, text=True, timeout=600)
    tail = proc.stdout.strip().splitlines()[-1] if proc.stdout else ""
    print("criterion 8: exit=%d (%s)" % (proc.returncode, tail))
    assert proc.returncode == 0, proc.stdout[-2000:]
    assert "passed" in tail
    count = int(tail.split()[0])
    assert count >= 300


def test_criterion_9_deterministic_grid_output(tmp_path, monkeypatch):
    # two identical grid runs through the command line must produce
    # byte-identical CSV
    monkeypatch.chdir(tmp_path)
    argv = ["phase", "--algo", "homotopy", "--n", "80", "--grid", "3x3",
            "--trials", "5", "--seed", "42"]
    assert cli_run(argv + ["--out", "a.csv"]) == 0
    assert cli_run(argv + ["--out", "b.csv"]) == 0
    same = (tmp_path / "a.csv").read_bytes() == \
        (tmp_path / "b.csv").read_bytes()
    print("criterion 9: byte-identical=%s" % same)
    assert same
