"""Tests for the shrinkage solvers."""

from types import SimpleNamespace

import numpy as np
import pytest

from ell1 import homotopy, robust, shrinkage, synth
from ell1.exceptions import NumericalBreakdownError
from ell1.model import (ProblemInstance, SolverConfig, StoppingRule,
                        kkt_from_correlation, kkt_residual, objective)
from ell1.numerics import soft_threshold, spectral_norm_sq
from ell1.shrinkage import (ContinuationSchedule, backtrack_L, bb_alpha,
                            default_schedule, fista_solve, fista_t_next,
                            ist_solve)


# --- bb_alpha --------------------------------------------------------------


def test_bb_direct_formula():
    assert bb_alpha([1.0, 1.0], [2.0, 4.0]) == 3.0


def test_bb_orthogonal_clamps_low():
    assert bb_alpha([1.0, 0.0], [0.0, 1.0]) == 1e-30


def test_bb_clamps_high():
    assert bb_alpha([1e-20, 0.0], [1e20, 0.0]) == 1e30


def test_bb_matches_rayleigh_quotient_on_quadratics():
    rng = np.random.default_rng(8)
    for _ in range(30):
        B = rng.standard_normal((6, 6))
        H = B @ B.T + 0.1 * np.eye(6)
        x = rng.standard_normal(6)
        s = -0.01 * (H @ x)          # one gradient step
        g = H @ s                    # gradient difference
        want = float(s @ H @ s) / float(s @ s)
        assert bb_alpha(s, g) == pytest.approx(want, rel=1e-12)


# --- ContinuationSchedule --------------------------------------------------


def test_schedule_validation():
    with pytest.raises(ValueError):
        ContinuationSchedule(1.0, 0.5, 0.0)
    with pytest.raises(ValueError):
        ContinuationSchedule(0.5, 0.5, 1.0)
    with pytest.raises(ValueError):
        ContinuationSchedule(1.0, 1.0, 0.5)


def test_schedule_pads_to_five_stages():
    sch = ContinuationSchedule(0.8, 0.5, 0.1)
    stages = sch.stages()
    assert len(stages) == 5
    assert stages[0] == 0.8 and stages[-1] == 0.1
    assert all(a > b for a, b in zip(stages, stages[1:]))


def test_schedule_natural_geometric_run():
    sch = ContinuationSchedule(1000.0, 0.5, 1.0)
    stages = sch.stages()
    assert stages[0] == 1000.0 and stages[-1] == 1.0
    assert all(a > b for a, b in zip(stages, stages[1:]))
    for prev, cur in zip(stages, stages[1:]):
        assert cur == max(0.5 * prev, 1.0)


def test_schedule_flat_when_start_equals_target():
    assert ContinuationSchedule(0.3, 0.5, 0.3).stages() == [0.3]


# --- fista_t_next ----------------------------------------------------------


def test_t_next_frozen_values():
    assert fista_t_next(1.0) == pytest.approx(1.6180339887498949, rel=1e-15)
    assert fista_t_next(1.6180339887498949) == pytest.approx(
        2.193527085331054, rel=1e-12)


def test_t_next_keeps_momentum_inequality():
    t = 1.0
    for _ in range(3000):
        t_next = fista_t_next(t)
        assert t_next * t_next - t_next <= t * t
        t = t_next


def test_t_next_strictly_grows():
    rng = np.random.default_rng(2)
    for t in rng.uniform(1.0, 1e6, 100):
        assert fista_t_next(float(t)) > t


def test_t_next_rejects_below_one():
    with pytest.raises(ValueError):
        fista_t_next(0.5)


# --- backtrack_L -----------------------------------------------------------


def quad_model(x_next, y, L, lam, P):
    r_y = P.A @ y - P.b
    g_y = P.A.T @ r_y
    delta = x_next - y
    return (0.5 * float(r_y @ r_y) + float(g_y @ delta)
            + 0.5 * L * float(delta @ delta)
            + lam * float(np.sum(np.abs(x_next))))


def test_backtrack_keeps_sufficient_L():
    rng = np.random.default_rng(4)
    A = rng.standard_normal((10, 15))
    P = ProblemInstance(A, rng.standard_normal(10))
    L0 = spectral_norm_sq(A) * 1.01
    L, x_next = backtrack_L(rng.standard_normal(15), L0, 2.0, 0.1, P)
    assert L == L0  # already a majorizer: zero growth steps


def test_backtrack_scalar_case():
    P = ProblemInstance(np.array([[2.0]]), np.array([2.0]))
    L, _ = backtrack_L(np.array([0.0]), 1.0, 2.0, 0.0, P)
    assert L == 4.0  # first power of 2 at or above the squared norm


def test_backtrack_postcondition_majorizes():
    rng = np.random.default_rng(14)
    for _ in range(30):
        A = rng.standard_normal((8, 12))
        P = ProblemInstance(A, rng.standard_normal(8))
        y = rng.standard_normal(12)
        lam = float(rng.uniform(0.01, 1.0))
        L, x_next = backtrack_L(y, 0.5, 1.5, lam, P)
        F = objective(x_next, P, lam)
        assert F <= quad_model(x_next, y, L, lam, P) + 1e-9


def test_backtrack_nonfinite_gradient_breaks_down():
    P = ProblemInstance(np.array([[1.0]]), np.array([1.0]))
    with pytest.raises(NumericalBreakdownError):
        backtrack_L(np.array([np.nan]), 1.0, 2.0, 0.1, P)


def test_backtrack_validation():
    P = ProblemInstance(np.array([[1.0]]), np.array([1.0]))
    with pytest.raises(ValueError):
        backtrack_L(np.array([0.0]), 0.0, 2.0, 0.1, P)
    with pytest.raises(ValueError):
        backtrack_L(np.array([0.0]), 1.0, 1.0, 0.1, P)


# --- ist_solve -------------------------------------------------------------


def test_ist_orthonormal_closed_form():
    rng = np.random.default_rng(3)
    Q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    b = rng.standard_normal(8)
    lam = 0.3
    P = ProblemInstance(Q, b)
    r = ist_solve(P, ContinuationSchedule(lam, 0.5, lam),
                  SolverConfig(lam=lam, tol=1e-8))
    assert r.converged
    assert np.max(np.abs(r.x_star - soft_threshold(Q.T @ b, lam))) <= 1e-6


def test_ist_zero_rhs():
    P = ProblemInstance(np.eye(4), np.zeros(4))
    r = ist_solve(P, None, SolverConfig(lam=0.1))
    assert r.converged and r.iterations == 0
    assert np.all(r.x_star == 0.0)


def test_ist_matches_path_solver_objective():
    rng = np.random.default_rng(17)
    A = rng.standard_normal((100, 200))
    A /= np.linalg.norm(A, axis=0)
    x0 = np.zeros(200)
    x0[rng.choice(200, 10, replace=False)] = rng.standard_normal(10)
    P = ProblemInstance(A, A @ x0)
    lam = 0.01 * float(np.max(np.abs(A.T @ P.b)))
    F_ref = objective(
        homotopy.homotopy_solve(P, lam, SolverConfig()).x_star, P, lam)
    r = ist_solve(P, None, SolverConfig(lam=lam, tol=1e-7, max_iter=20000))
    assert r.converged
    assert abs(objective(r.x_star, P, lam) - F_ref) <= 1e-5 * abs(F_ref)


def test_ist_budget_cap():
    rng = np.random.default_rng(19)
    A = rng.standard_normal((20, 40))
    A /= np.linalg.norm(A, axis=0)
    P = ProblemInstance(A, rng.standard_normal(20))
    r = ist_solve(P, None, SolverConfig(lam=0.05, max_iter=3))
    assert not r.converged and r.iterations == 3


def test_ist_honors_stopping_rule():
    rng = np.random.default_rng(21)
    A = rng.standard_normal((20, 40))
    A /= np.linalg.norm(A, axis=0)
    P = ProblemInstance(A, rng.standard_normal(20))
    lam = 0.1 * float(np.max(np.abs(A.T @ P.b)))
    rule = StoppingRule(kind="relative-objective", threshold=0.5)
    r = ist_solve(P, ContinuationSchedule(lam, 0.5, lam),
                  SolverConfig(lam=lam, stopping=rule))
    assert r.converged and r.iterations <= 3


@pytest.mark.invariant
def test_ist_objective_strictly_decreases_at_fixed_lambda():
    # verified on exact pairwise differences, which stay meaningful after
    # the objectives themselves agree to machine precision
    for seed in range(1200, 1310):
        spec = synth.GenSpec(n=40, d=20, k=1 + seed % 5, seed=seed,
                             noise_sigma=0.02)
        P = synth.make_instance(spec)
        lam = 0.05 * float(np.max(np.abs(P.A.T @ P.b)))
        xs = []
        ist_solve(P, ContinuationSchedule(lam, 0.5, lam),
                  SolverConfig(lam=lam, tol=1e-8, max_iter=3000),
                  observer=lambda x, la, dF: xs.append(x))
        prev = np.zeros(P.n)
        for cur in xs:
            Ap = P.A @ prev
            Ac = P.A @ cur
            dF = shrinkage.objective_delta(prev, cur, Ap, Ac,
                                           P.A.T @ (Ap - P.b), lam)
            assert dF < 0.0
            prev = cur


# --- fista_solve -----------------------------------------------------------


def test_fista_orthonormal_closed_form():
    rng = np.random.default_rng(31)
    Q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    b = rng.standard_normal(8)
    lam = 0.25
    r = fista_solve(ProblemInstance(Q, b), SolverConfig(lam=lam, tol=1e-9))
    assert r.converged
    assert np.max(np.abs(r.x_star - soft_threshold(Q.T @ b, lam))) <= 1e-6


def test_fista_zero_rhs():
    r = fista_solve(ProblemInstance(np.eye(4), np.zeros(4)),
                    SolverConfig(lam=0.1))
    assert r.converged and r.iterations == 0
    assert np.all(r.x_star == 0.0)


def test_fista_matches_path_solver_objective():
    rng = np.random.default_rng(17)
    A = rng.standard_normal((100, 200))
    A /= np.linalg.norm(A, axis=0)
    x0 = np.zeros(200)
    x0[rng.choice(200, 10, replace=False)] = rng.standard_normal(10)
    P = ProblemInstance(A, A @ x0)
    lam = 0.01 * float(np.max(np.abs(A.T @ P.b)))
    F_ref = objective(
        homotopy.homotopy_solve(P, lam, SolverConfig()).x_star, P, lam)
    r = fista_solve(P, SolverConfig(lam=lam, tol=1e-7, max_iter=20000))
    assert r.converged
    assert abs(objective(r.x_star, P, lam) - F_ref) <= 1e-5 * abs(F_ref)


def test_fista_budget_cap():
    rng = np.random.default_rng(19)
    A = rng.standard_normal((20, 40))
    A /= np.linalg.norm(A, axis=0)
    P = ProblemInstance(A, rng.standard_normal(20))
    r = fista_solve(P, SolverConfig(lam=0.05, max_iter=2))
    assert not r.converged and r.iterations == 2


def test_fista_objective_bound_with_exact_L():
    rng = np.random.default_rng(23)
    A = rng.standard_normal((50, 100))
    A /= np.linalg.norm(A, axis=0)
    x0 = np.zeros(100)
    x0[rng.choice(100, 5, replace=False)] = rng.standard_normal(5)
    P = ProblemInstance(A, A @ x0)
    lam = 0.05
    fixed = {"exact_L": True, "continuation": False}
    ref = fista_solve(P, SolverConfig(lam=lam, tol=1e-15, max_iter=30000,
                                      options=fixed))
    F_star = objective(ref.x_star, P, lam)
    run = fista_solve(P, SolverConfig(lam=lam, tol=1e-15, max_iter=300,
                                      options=fixed))
    L_f = spectral_norm_sq(A)
    dist0 = float(np.linalg.norm(ref.x_star)) ** 2
    for t in run.trace:
        bound = 2.0 * L_f * dist0 / (t.iteration + 1) ** 2
        assert t.objective - F_star <= bound


def textbook_fista(P, lam_bar, tol, max_iter, eta=1.5, beta=0.5):
    """fista_solve's default iteration with A y and A^T (A y - b) taken
    afresh at every extrapolated point y, as backtrack_L does: 4 products
    per step. Returns (x, iterations, backtracking trials beyond the
    first of each step, summed over the run)."""
    A, b = P.A, P.b
    x = x_prev = np.zeros(A.shape[1])
    t_prev = t_cur = L = 1.0
    lam = max(0.9 * float(np.max(np.abs(A.T @ b))), lam_bar)
    for it in range(1, max_iter + 1):
        y = x + ((t_prev - 1.0) / t_cur) * (x - x_prev)
        L, x_next = backtrack_L(y, L, eta, lam, P)
        x_prev, x = x, x_next
        t_prev, t_cur = t_cur, fista_t_next(t_cur)
        kkt = kkt_from_correlation(x, -(A.T @ (A @ x - b)), lam)
        if lam == lam_bar and kkt <= tol * lam_bar:
            break
        lam = max(beta * lam, lam_bar)
    # every extra trial multiplied L, which starts at 1, by eta
    return x, it, round(np.log(L) / np.log(eta))


# setup: one A^T b, for both the default lambda and the continuation start
_FISTA_SETUP_PRODUCTS = 1
_FISTA_CONFIG = SolverConfig(tol=1e-8, max_iter=3000)


def test_fista_products_per_iteration(counting_view):
    P = synth.make_instance(synth.GenSpec(n=120, d=60, k=6, seed=9))
    x_ref, it_ref, extra = textbook_fista(
        P, _FISTA_CONFIG.resolved_lambda(P.A.T @ P.b), _FISTA_CONFIG.tol,
        _FISTA_CONFIG.max_iter)
    plain = fista_solve(P, _FISTA_CONFIG)
    P.A, count = counting_view(P.A)
    res = fista_solve(P, _FISTA_CONFIG)
    assert res.converged and res.iterations >= 50
    assert count[0] <= 2 * res.iterations + extra + _FISTA_SETUP_PRODUCTS
    assert np.array_equal(res.x_star, plain.x_star)
    assert res.iterations == it_ref
    assert np.linalg.norm(res.x_star - x_ref) \
        <= 1e-10 * np.linalg.norm(x_ref)


def test_cab_fista_products_per_iteration(monkeypatch, counting_view):
    P = synth.make_instance(synth.GenSpec(n=120, d=60, k=6, seed=9))
    b_bad, _ = synth.corrupt_entries(P.b, 0.1, -3.0, 3.0, seed=5)
    ext = SimpleNamespace(A=robust.ExtendedDictionary(P.A), b=b_bad)
    x_ref, it_ref, extra = textbook_fista(
        ext, 1e-2 * float(np.max(np.abs(ext.A.T @ b_bad))),
        _FISTA_CONFIG.tol, _FISTA_CONFIG.max_iter)
    plain = robust.cab_solve(P.A, b_bad, "fista", _FISTA_CONFIG)
    counts = []
    init = robust.ExtendedDictionary.__init__

    def counting_init(self, A, identity_scale=1.0):
        init(self, A, identity_scale)
        self.A, count = counting_view(self.A)
        counts.append(count)

    monkeypatch.setattr(robust.ExtendedDictionary, "__init__",
                        counting_init)
    x, e, res = robust.cab_solve(P.A, b_bad, "fista", _FISTA_CONFIG)
    assert len(counts) == 1
    assert res.converged and res.iterations >= 50
    assert counts[0][0] <= 2 * res.iterations + extra + _FISTA_SETUP_PRODUCTS
    assert np.array_equal(x, plain[0]) and np.array_equal(e, plain[1])
    assert res.iterations == it_ref
    assert np.linalg.norm(res.x_star - x_ref) \
        <= 1e-10 * np.linalg.norm(x_ref)


@pytest.mark.invariant
def test_fista_step_invariants():
    for seed in range(1400, 1510):
        spec = synth.GenSpec(n=40, d=20, k=1 + seed % 5, seed=seed,
                             noise_sigma=0.02)
        P = synth.make_instance(spec)
        lam = 0.05 * float(np.max(np.abs(P.A.T @ P.b)))
        log = []
        fista_solve(P, SolverConfig(lam=lam, tol=1e-7, max_iter=2000),
                    observer=lambda st, y, la: log.append((st, y, la)))
        Ls = [st.L for st, _, _ in log]
        assert all(a <= b for a, b in zip(Ls, Ls[1:]))
        for st, y, la in log:
            assert st.t_cur ** 2 - st.t_cur <= st.t_prev ** 2
            F = objective(st.x_cur, P, la)
            assert F <= quad_model(st.x_cur, y, st.L, la, P) \
                + 1e-9 * max(1.0, abs(F))


@pytest.mark.invariant
def test_returned_solutions_are_shrinkage_fixed_points():
    for seed in range(1600, 1612):
        spec = synth.GenSpec(n=40, d=20, k=2, seed=seed)
        P = synth.make_instance(spec)
        lam = 0.05 * float(np.max(np.abs(P.A.T @ P.b)))
        L = spectral_norm_sq(P.A) * 1.01
        for solver in (
                lambda: ist_solve(P, ContinuationSchedule(lam, 0.5, lam),
                                  SolverConfig(lam=lam, tol=1e-9,
                                               max_iter=20000)),
                lambda: fista_solve(P, SolverConfig(lam=lam, tol=1e-9,
                                                    max_iter=20000))):
            r = solver()
            assert r.converged
            assert kkt_residual(r.x_star, P, lam) <= 1e-8 * lam
            g = P.A.T @ (P.A @ r.x_star - P.b)
            step = soft_threshold(r.x_star - g / L, lam / L)
            assert np.linalg.norm(step - r.x_star) \
                <= 1e-6 * max(1.0, np.linalg.norm(r.x_star))


@pytest.mark.invariant
def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(77)
    for _ in range(100):
        A = rng.standard_normal((5, 8))
        b = rng.standard_normal(5)
        P = ProblemInstance(A, b)
        x = rng.standard_normal(8)
        g = A.T @ (A @ x - b)
        h = 1e-6
        for j in range(8):
            e = np.zeros(8)
            e[j] = h
            fd = (objective(x + e, P, 0.0) - objective(x - e, P, 0.0)) / (2 * h)
            assert fd == pytest.approx(g[j], rel=1e-6, abs=1e-8)


def test_default_schedule_shape():
    rng = np.random.default_rng(9)
    A = rng.standard_normal((10, 20))
    P = ProblemInstance(A, rng.standard_normal(10))
    lam = 0.01 * float(np.max(np.abs(A.T @ P.b)))
    sch = default_schedule(A.T @ P.b, lam)
    assert sch.lambda_start == pytest.approx(
        0.9 * float(np.max(np.abs(A.T @ P.b))))
    assert sch.lambda_target == lam and sch.beta == 0.5
