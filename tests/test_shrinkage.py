"""Tests for the shrinkage solvers."""

from types import SimpleNamespace

import numpy as np
import pytest

from ell1 import gradient_projection, homotopy, robust, shrinkage, synth
from ell1.bench import trial_seed
from ell1.exceptions import NumericalBreakdownError
from ell1.model import (ProblemInstance, SolverConfig, StoppingRule,
                        kkt_from_correlation, kkt_residual, objective)
from ell1.numerics import soft_threshold, spectral_norm_sq
from ell1.operators import as_operator
from ell1.shrinkage import (bb_alpha, default_schedule, fista_solve,
                            fista_t_next, ist_solve)


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


# --- default_schedule ------------------------------------------------------


def test_schedule_validation():
    with pytest.raises(ValueError):
        default_schedule(np.ones(3), 0.0)
    with pytest.raises(ValueError):
        default_schedule(np.ones(3), 0.5, beta=1.0)
    with pytest.raises(ValueError):
        default_schedule(np.ones(3), 0.5, beta=0.0)


def test_schedule_pads_to_five_stages():
    # halving takes the start 0.9 to 0.2 in four stages: padded to five
    stages = default_schedule(np.array([0.5, -1.0]), 0.2)
    assert len(stages) == 5
    assert stages[0] == 0.9 and stages[-1] == 0.2
    assert stages[2] == pytest.approx(0.9 * (0.2 / 0.9) ** 0.5)
    assert all(a > b for a, b in zip(stages, stages[1:]))


def test_schedule_natural_geometric_run():
    stages = default_schedule(np.array([1000.0 / 0.9]), 1.0)
    assert stages[0] == 0.9 * (1000.0 / 0.9) and stages[-1] == 1.0
    assert all(a > b for a, b in zip(stages, stages[1:]))
    for prev, cur in zip(stages, stages[1:]):
        assert cur == max(0.5 * prev, 1.0)


def test_schedule_flat_when_start_equals_target():
    # a target at or above the start is a single stage
    assert default_schedule(np.array([0.3]), 0.3) == [0.3]
    assert default_schedule(np.array([0.3]), 0.5) == [0.5]


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


# --- backtracking ----------------------------------------------------------


class _CountingOperator:
    """The dense operator of A, counting the products the search takes."""

    def __init__(self, A):
        self._D = as_operator(A)
        self.products = 0

    def apply(self, w):
        self.products += 1
        return self._D.apply(w)


def backtrack_L(y, L_prev, eta, lam, P):
    """fista's backtracking search from y, with the residual and gradient
    at y computed afresh; returns (L, x_next, trials taken)."""
    r_y = P.A @ y - P.b
    g_y = P.A.T @ r_y
    D = _CountingOperator(P.A)
    x_next, r_next = np.empty_like(y), np.empty_like(r_y)
    L, _, _ = shrinkage._Accel(D, y.size, r_y.size, L_prev)._search(
        y, r_y, g_y, lam, L_prev, eta, x_next, r_next)
    return L, x_next, D.products


def curvature(x_next, y, P):
    """||A (x_next - y)||^2 / ||x_next - y||^2, 0 for a zero step."""
    delta = x_next - y
    dd = float(delta @ delta)
    Ad = P.A @ delta
    return float(Ad @ Ad) / dd if dd > 0.0 else 0.0


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
    L, x_next, trials = backtrack_L(rng.standard_normal(15), L0, 2.0, 0.1, P)
    assert L == L0 and trials == 1  # already a majorizer: no growth step


def test_backtrack_scalar_case():
    P = ProblemInstance(np.array([[2.0]]), np.array([2.0]))
    L, _, trials = backtrack_L(np.array([0.0]), 1.0, 2.0, 0.0, P)
    assert L == 4.0  # first power of 2 at or above the squared norm
    assert trials == 3


def test_backtrack_postcondition_majorizes():
    rng = np.random.default_rng(14)
    for _ in range(30):
        A = rng.standard_normal((8, 12))
        P = ProblemInstance(A, rng.standard_normal(8))
        y = rng.standard_normal(12)
        lam = float(rng.uniform(0.01, 1.0))
        L, x_next, _ = backtrack_L(y, 0.5, 1.5, lam, P)
        F = objective(x_next, P, lam)
        assert F <= quad_model(x_next, y, L, lam, P) + 1e-9
        assert curvature(x_next, y, P) <= L


def test_backtrack_nonfinite_gradient_breaks_down():
    P = ProblemInstance(np.array([[1.0]]), np.array([1.0]))
    with pytest.raises(NumericalBreakdownError):
        backtrack_L(np.array([np.nan]), 1.0, 2.0, 0.1, P)


# --- ist_solve -------------------------------------------------------------


def test_ist_orthonormal_closed_form():
    rng = np.random.default_rng(3)
    Q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    b = rng.standard_normal(8)
    lam = 0.3
    P = ProblemInstance(Q, b)
    r = ist_solve(P, SolverConfig(lam=lam, tol=1e-8))
    assert r.converged
    assert np.max(np.abs(r.x_star - soft_threshold(Q.T @ b, lam))) <= 1e-6


def test_ist_zero_rhs():
    P = ProblemInstance(np.eye(4), np.zeros(4))
    r = ist_solve(P, SolverConfig(lam=0.1))
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
        homotopy.homotopy_solve(P, SolverConfig(lam=lam)).x_star, P, lam)
    r = ist_solve(P, SolverConfig(lam=lam, tol=1e-7, max_iter=20000))
    assert r.converged
    assert abs(objective(r.x_star, P, lam) - F_ref) <= 1e-5 * abs(F_ref)


def test_ist_budget_cap():
    rng = np.random.default_rng(19)
    A = rng.standard_normal((20, 40))
    A /= np.linalg.norm(A, axis=0)
    P = ProblemInstance(A, rng.standard_normal(20))
    r = ist_solve(P, SolverConfig(lam=0.05, max_iter=3))
    assert not r.converged and r.iterations == 3


def test_ist_honors_stopping_rule():
    # a relative rule compares iterates of the last stage, whose weight is
    # lam; a loose one stops the run at the second step of that stage
    rng = np.random.default_rng(21)
    A = rng.standard_normal((20, 40))
    A /= np.linalg.norm(A, axis=0)
    P = ProblemInstance(A, rng.standard_normal(20))
    lam = 0.1 * float(np.max(np.abs(A.T @ P.b)))
    rule = StoppingRule(kind="relative-objective", threshold=0.5)
    weights = []
    r = ist_solve(P, SolverConfig(lam=lam, stopping=rule),
                  observer=lambda e: weights.append(e.weight))
    assert r.converged and len(weights) == r.iterations
    assert weights[-2:] == [lam, lam] and weights[-3] > lam
    assert r.iterations < ist_solve(P, SolverConfig(lam=lam)).iterations


@pytest.mark.parametrize("kind, threshold", [
    ("kkt-residual", 1e-2), ("relative-objective", 1e-3),
    ("relative-estimate", 1e-3)])
@pytest.mark.parametrize("solver", [ist_solve, fista_solve])
def test_rule_reads_the_target_weight(solver, kind, threshold):
    # an early continuation stage must not meet the rule for the target
    P = synth.make_instance(synth.GenSpec(n=200, d=100, k=8, seed=11))
    lam = 1e-3 * float(np.max(np.abs(P.A.T @ P.b)))
    if kind == "kkt-residual":
        threshold *= lam
    res = solver(P, SolverConfig(
        lam=lam, stopping=StoppingRule(kind=kind, threshold=threshold)))
    assert res.converged
    assert kkt_residual(res.x_star, P, lam) <= lam
    if kind == "kkt-residual":
        assert kkt_residual(res.x_star, P, lam) <= threshold


@pytest.mark.invariant
def test_ist_objective_strictly_decreases_at_fixed_lambda():
    # every step lowers the objective at its stage's weight; verified on
    # exact pairwise differences, which stay meaningful after the
    # objectives themselves agree to machine precision
    for seed in range(1200, 1310):
        spec = synth.GenSpec(n=40, d=20, k=1 + seed % 5, seed=seed,
                             noise_sigma=0.02)
        P = synth.make_instance(spec)
        lam = 0.05 * float(np.max(np.abs(P.A.T @ P.b)))
        steps = []
        ist_solve(P, SolverConfig(lam=lam, tol=1e-8, max_iter=3000),
                  observer=lambda e: steps.append((e.x, e.weight)))
        assert steps[-1][1] == lam
        prev = np.zeros(P.n)
        for cur, la in steps:
            Ap = P.A @ prev
            Ac = P.A @ cur
            dF = shrinkage.objective_delta(prev, cur, Ap, Ac,
                                           P.A.T @ (Ap - P.b), la)
            assert dF < 0.0
            prev = cur


@pytest.mark.parametrize("solve, decay", [
    (gradient_projection.gpsr_solve, gradient_projection._DECAY),
    (ist_solve, 0.5)], ids=["gpsr", "ist"])
@pytest.mark.parametrize("seed", range(1400, 1404))
def test_continuation_stage_ends_at_its_rule(solve, decay, seed):
    # a middle stage ends at the first iterate whose kkt residual at the
    # stage weight is at most 0.1 of that weight, the last stage at
    # tol * lam; a stage its warm start already meets takes no step
    P = synth.make_instance(synth.GenSpec(n=40, d=20, k=1 + seed % 5,
                                          seed=seed, noise_sigma=0.01))
    D = as_operator(P.A)
    Atb = D.adjoint(P.b)
    lam = 1e-3 * float(np.max(np.abs(Atb)))
    cfg = SolverConfig(lam=lam, tol=1e-8, max_iter=20000)
    stages = default_schedule(Atb, lam, decay)
    path = [(np.zeros(P.n), 0)]  # the start point, then every step

    def record(e):
        if e.iteration:  # gpsr records its start point as iteration 0
            path.append((e.x, stages.index(e.weight)))

    res = solve(P, cfg, observer=record)
    assert len(stages) >= 5 and res.iterations == len(path) - 1

    def kkt(x, i):
        return kkt_from_correlation(x, D.adjoint(P.b - D.apply(x)),
                                    stages[i])

    def stage_tol(i):
        last = i == len(stages) - 1
        return cfg.tol * lam if last else shrinkage._STAGE_TOL * stages[i]

    # gpsr carries its residual, so its kkt residuals differ from these
    # recomputed ones in the last few bits
    slack = 1e-9
    for (x, i), (_, j) in zip(path, path[1:]):
        assert i <= j
        for k in range(i, j):  # every stage x ended or skipped
            assert kkt(x, k) <= (1.0 + slack) * stage_tol(k)
        assert kkt(x, j) > (1.0 - slack) * stage_tol(j)
    x, i = path[-1]
    assert res.converged and i == len(stages) - 1
    assert kkt(x, i) <= (1.0 + slack) * cfg.tol * lam


# --- ist_solve against the plain formulas ----------------------------------


def textbook_ist(P, config):
    """ist_solve's iteration from the plain formulas on fresh arrays:
    numerics' checked soft_threshold, objective_delta, bb_alpha and the
    full KKT residual for the stage tests. P needs only A and b. Returns
    (x, iterations, converged, search trials over the run)."""
    D, b = as_operator(P.A), P.b
    d, n = D.shape
    Atb = D.adjoint(b)
    lam = config.resolved_lambda(Atb)
    it = trials = 0
    alpha = 1.0
    x, Ax, g = np.zeros(n), np.zeros(d), -Atb
    for lam_s in default_schedule(Atb, lam):
        stage_tol = (config.tol * lam if lam_s == lam
                     else shrinkage._STAGE_TOL * lam_s)
        while (it < config.max_iter
               and kkt_from_correlation(x, -g, lam_s) > stage_tol):
            for _ in range(shrinkage._MAX_DOUBLINGS):
                trials += 1
                cand = soft_threshold(x - g / alpha, lam_s / alpha)
                Acand = D.apply(cand)
                dF = shrinkage.objective_delta(x, cand, Ax, Acand, g, lam_s)
                if dF < 0.0:
                    break
                alpha = min(alpha * 2.0, shrinkage._ALPHA_MAX)
            else:
                break
            it += 1
            g_new = D.adjoint(Acand - b)
            alpha = bb_alpha(cand - x, g_new - g)
            x, Ax, g = cand, Acand, g_new
    converged = kkt_from_correlation(x, -g, lam) <= config.tol * lam
    return x, it, converged, trials


@pytest.mark.parametrize("case", ["dense", "cab", "align"])
def test_ist_is_bitwise_the_plain_formulas(case, solved_on):
    # the step runs in place on preallocated rows; the answer, the step
    # count and the flag must be those of the plain formulas, bit for bit
    P, cfg, res = solved_on(case, "ist")
    x, it, converged, _ = textbook_ist(P, cfg)
    assert res.converged and res.iterations >= 20
    assert (res.iterations, res.converged) == (it, converged)
    assert res.x_star.tobytes() == x.tobytes()
    if case == "align":  # the residual must not be reused as the gradient
        r = np.ones(P.b.size)
        assert as_operator(P.A).adjoint(r) is r


def test_ist_products_per_step(counting_view):
    # one product per search trial (A cand) and one per step (the
    # gradient A^T r), after set-up's one A^T b
    P = synth.make_instance(synth.GenSpec(n=120, d=60, k=12, seed=9,
                                          noise_sigma=0.01))
    cfg = SolverConfig(tol=1e-8, max_iter=5000)
    _, it, _, trials = textbook_ist(P, cfg)
    P.A, count = counting_view(P.A)
    res = ist_solve(P, cfg)
    assert res.converged and res.iterations == it and trials > it
    assert count[0] == 1 + trials + it


def test_ist_notes_a_stalled_stage():
    # at a tolerance below roundoff no step lowers the objective: the
    # search gives up after 50 halvings and the run says so
    P = synth.make_instance(synth.GenSpec(n=40, d=20, k=3, seed=0,
                                          noise_sigma=0.01))
    lam = 0.05 * float(np.max(np.abs(P.A.T @ P.b)))
    res = ist_solve(P, SolverConfig(lam=lam, tol=1e-17, max_iter=5000))
    assert not res.converged and res.iterations < 5000
    assert res.notes == ("stage stalled: no decrease in 50 step halvings "
                         "at lambda %g" % lam,)


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
        homotopy.homotopy_solve(P, SolverConfig(lam=lam)).x_star, P, lam)
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
    fixed = {"exact_L": True}
    # the path solver lands on the minimizer exactly, up to roundoff
    ref = homotopy.homotopy_solve(P, SolverConfig(lam=lam, max_iter=1000))
    assert ref.converged
    F_star = objective(ref.x_star, P, lam)
    events = []
    fista_solve(P, SolverConfig(lam=lam, tol=1e-15, max_iter=300,
                                options=fixed), events.append)
    L_f = spectral_norm_sq(A)
    dist0 = float(np.linalg.norm(ref.x_star)) ** 2
    for t in events:
        bound = 2.0 * L_f * dist0 / (t.iteration + 1) ** 2
        assert t.objective - F_star <= bound


def textbook_fista(P, lam_bar, tol, max_iter, eta=1.5, beta=0.5):
    """fista_solve's default iteration with A y and A^T (A y - b) taken
    afresh at every extrapolated point y, as backtrack_L above does, and
    each step's curvature q from a product with x_next - y. The next
    search starts at max(eta q, L / eta) when eta q <= L, else at L.
    The momentum restarts whenever it pointed uphill,
    (y - x_next) . (x_next - x) > 0. Returns (x, iterations, backtracking
    trials beyond the first of each step, summed over the run)."""
    A, b = P.A, P.b
    x = x_prev = np.zeros(A.shape[1])
    t_prev = t_cur = L = 1.0
    extra = 0
    lam = max(0.9 * float(np.max(np.abs(A.T @ b))), lam_bar)
    for it in range(1, max_iter + 1):
        y = x + ((t_prev - 1.0) / t_cur) * (x - x_prev)
        L_step, x_next, trials = backtrack_L(y, L, eta, lam, P)
        extra += trials - 1
        q = curvature(x_next, y, P)
        L = max(eta * q, L_step / eta) if eta * q <= L_step else L_step
        if float((y - x_next) @ (x_next - x)) > 0.0:
            x_prev = x = x_next
            t_prev = t_cur = 1.0
        else:
            x_prev, x = x, x_next
            t_prev, t_cur = t_cur, fista_t_next(t_cur)
        kkt = kkt_from_correlation(x, -(A.T @ (A @ x - b)), lam)
        if lam == lam_bar and kkt <= tol * lam_bar:
            break
        lam = max(beta * lam, lam_bar)
    return x, it, extra


# setup: one A^T b, for both the default lambda and the continuation start
_FISTA_SETUP_PRODUCTS = 1
_FISTA_CONFIG = SolverConfig(tol=1e-8, max_iter=3000)


def test_fista_products_per_iteration(counting_view):
    # fista meets tol 1e-8 on this instance in under 50 steps; the
    # tighter tol keeps the run long enough to measure a per-step rate
    cfg = SolverConfig(tol=1e-12, max_iter=3000)
    P = synth.make_instance(synth.GenSpec(n=120, d=60, k=12, seed=9))
    x_ref, it_ref, extra = textbook_fista(
        P, cfg.resolved_lambda(P.A.T @ P.b), cfg.tol, cfg.max_iter)
    plain = fista_solve(P, cfg)
    P.A, count = counting_view(P.A)
    res = fista_solve(P, cfg)
    assert res.converged and res.iterations >= 50
    assert count[0] <= 2 * res.iterations + extra + _FISTA_SETUP_PRODUCTS
    assert np.array_equal(res.x_star, plain.x_star)
    assert res.iterations == it_ref
    assert np.linalg.norm(res.x_star - x_ref) \
        <= 1e-10 * np.linalg.norm(x_ref)


def test_cab_fista_products_per_iteration(count_extended):
    P = synth.make_instance(synth.GenSpec(n=120, d=60, k=6, seed=9))
    b_bad, _ = synth.corrupt_entries(P.b, 0.1, -3.0, 3.0, seed=5)
    ext = SimpleNamespace(A=robust.ExtendedDictionary(P.A), b=b_bad)
    x_ref, it_ref, extra = textbook_fista(
        ext, 1e-2 * float(np.max(np.abs(ext.A.T @ b_bad))),
        _FISTA_CONFIG.tol, _FISTA_CONFIG.max_iter)
    plain = robust.cab_solve(P.A, b_bad, "fista", _FISTA_CONFIG)
    counts = count_extended()
    # its own array: a first query
    A = P.A.copy()
    x, e, res = robust.cab_solve(A, b_bad, "fista", _FISTA_CONFIG)
    assert len(counts) == 1
    assert res.converged and res.iterations >= 50
    assert counts[0][0] <= 2 * res.iterations + extra + _FISTA_SETUP_PRODUCTS
    assert np.array_equal(x, plain[0]) and np.array_equal(e, plain[1])
    assert res.iterations == it_ref
    assert np.linalg.norm(res.x_star - x_ref) \
        <= 1e-10 * np.linalg.norm(x_ref)
    # a repeat query on that array takes the same products to the answer
    x, e, again = robust.cab_solve(A, b_bad, "fista", _FISTA_CONFIG)
    assert len(counts) == 2 and counts[1][0] == counts[0][0]
    assert np.array_equal(x, plain[0]) and np.array_equal(e, plain[1])
    assert again.iterations == it_ref


def test_fista_restart_converges_on_a_bouquet_query():
    # a corrupted query against a coherent bouquet dictionary, as in the
    # face-recognition use case: without restart the momentum runs out
    # this budget. A search whose L only grows took 769 steps here
    A, labels = synth.gen_bouquet_dict(150, 300, 15, 0.6, 2)
    rng = np.random.default_rng(9)
    g = int(rng.integers(15))
    active = rng.choice(np.flatnonzero(labels == g), size=3, replace=False)
    x0 = np.zeros(300)
    x0[active] = rng.uniform(0.5, 1.5, 3) * rng.choice([-1.0, 1.0], 3)
    b = A @ x0
    scale = float(np.max(np.abs(b)))
    b_bad, _ = synth.corrupt_entries(b, 0.2, -scale, scale, seed=12)
    x, _, res = robust.cab_solve(A, b_bad, "fista",
                                 SolverConfig(tol=1e-8, max_iter=4000))
    assert res.converged and res.iterations <= 384
    energy = [np.linalg.norm(x[labels == k]) for k in range(15)]
    assert int(np.argmax(energy)) == g


def test_fista_restarts_exactly_when_momentum_points_uphill():
    # a restart shows as t_prev = t = 1, and it comes exactly after the
    # steps with (y - x) . (x - x_prev) > 0
    P = synth.make_instance(synth.GenSpec(n=40, d=20, k=3, seed=1403,
                                          noise_sigma=0.02))
    lam = 0.05 * float(np.max(np.abs(P.A.T @ P.b)))
    log = []
    res = fista_solve(P, SolverConfig(lam=lam, tol=1e-10, max_iter=2000),
                      observer=log.append)
    assert res.converged
    x_prev = np.zeros(P.n)
    restarts = 0
    for e in log:
        restarted = e.state["t_prev"] == e.state["t"] == 1.0
        uphill = float((e.state["y"] - e.x) @ (e.x - x_prev)) > 0.0
        assert restarted == uphill
        restarts += restarted and e.iteration > 1
        x_prev = e.x
    assert restarts >= 1


def check_fista_steps(P, log):
    """Per-step invariants of fista's events on P. Returns how many times
    the accepted L fell from one step to the next."""
    falls = 0
    L_prev = None
    for e in log:
        st, la = e.state, e.weight
        assert st["t"] ** 2 - st["t"] <= st["t_prev"] ** 2
        F = objective(e.x, P, la)
        assert F <= quad_model(e.x, st["y"], st["L"], la, P) \
            + 1e-9 * max(1.0, abs(F))
        # the accepted L covers the step's curvature, and the search never
        # starts more than a factor ETA below the previous step's L
        assert curvature(e.x, st["y"], P) <= st["L"]
        if L_prev is not None:
            assert st["L"] >= L_prev / shrinkage.ETA
            falls += st["L"] < L_prev
        L_prev = st["L"]
    return falls


@pytest.mark.invariant
def test_fista_step_invariants():
    for seed in range(1400, 1510):
        spec = synth.GenSpec(n=40, d=20, k=1 + seed % 5, seed=seed,
                             noise_sigma=0.02)
        P = synth.make_instance(spec)
        lam = 0.05 * float(np.max(np.abs(P.A.T @ P.b)))
        log = []
        fista_solve(P, SolverConfig(lam=lam, tol=1e-7, max_iter=2000),
                    observer=log.append)
        check_fista_steps(P, log)


def test_fista_step_invariants_on_bouquet_queries():
    # the corruption-extended system cab_solve hands fista. Here L falls
    # often, and ends far below ||[A, I]||^2 (about 114): these queries
    # end near L = 6 to 7.5
    A, _ = synth.gen_bouquet_dict(150, 300, 15, 0.6, 3)
    cfg = SolverConfig(tol=1e-8, max_iter=4000)
    for q in range(3):
        rng = np.random.default_rng(40 + q)
        active = rng.choice(300, size=3, replace=False)
        b = A[:, active] @ rng.uniform(0.5, 1.5, 3)
        scale = float(np.max(np.abs(b)))
        b_bad, _ = synth.corrupt_entries(b, 0.2, -scale, scale, seed=q)
        P = robust._cab_problem(A, b_bad, cfg)
        log = []
        assert fista_solve(P, cfg, observer=log.append).converged
        assert check_fista_steps(P, log) >= 50
        assert log[-1].state["L"] < 0.2 * P.A.norm_sq()


def test_fista_exact_L_pins_every_step():
    # criterion 3's bound takes L = ||A||^2: with exact_L every step of
    # its runs, down to roundoff, is taken at that L and no other
    opts = {"exact_L": True}
    for t in range(3):
        P = synth.make_instance(synth.GenSpec(
            n=100, d=50, k=8, seed=trial_seed(4000, t)))
        lam = 1e-2 * float(np.max(np.abs(P.A.T @ P.b)))
        log = []
        fista_solve(P, SolverConfig(lam=lam, tol=1e-16, max_iter=500,
                                    options=opts), observer=log.append)
        assert len(log) == 500
        L_exact = as_operator(P.A).norm_sq() * (1.0 + 1e-9)
        assert all(e.state["L"] == L_exact for e in log)


@pytest.mark.invariant
def test_returned_solutions_are_shrinkage_fixed_points():
    for seed in range(1600, 1612):
        spec = synth.GenSpec(n=40, d=20, k=2, seed=seed)
        P = synth.make_instance(spec)
        lam = 0.05 * float(np.max(np.abs(P.A.T @ P.b)))
        L = spectral_norm_sq(P.A) * 1.01
        for solver in (
                lambda: ist_solve(P, SolverConfig(lam=lam, tol=1e-9,
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
    stages = default_schedule(A.T @ P.b, lam)
    assert stages[0] == 0.9 * float(np.max(np.abs(A.T @ P.b)))
    assert stages[-1] == lam
    for prev, cur in zip(stages, stages[1:]):
        assert cur == max(0.5 * prev, lam)
