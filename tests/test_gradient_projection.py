"""Tests for the gradient projection and log-barrier solvers."""

import functools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ell1 import bench, gradient_projection, synth
from ell1.bench import SOLVER_NAMES, SOLVERS
from ell1.exceptions import NumericalBreakdownError
from ell1.gradient_projection import (gpsr_direction, gpsr_solve,
                                      gpsr_step_size, tnipm_solve)
from ell1.homotopy import homotopy_solve
from ell1.model import (ProblemInstance, SolverConfig, StoppingRule,
                        kkt_from_correlation, kkt_residual, objective,
                        support_size)
from ell1.numerics import PcgResult, pcg_solve, soft_threshold
from ell1.operators import as_operator
from ell1.shrinkage import _STAGE_TOL, default_schedule


def observed(name, P, config):
    """The named solver's result on P and its events, collected by an
    observer."""
    events = []
    return getattr(bench, name + "_solve")(P, config, events.append), events


def split_objective(z, A, b, lam):
    n = z.shape[0] // 2
    r = A @ (z[:n] - z[n:]) - b
    return 0.5 * float(r @ r) + lam * float(np.sum(z))


def split_gradient(z, A, b, lam):
    n = z.shape[0] // 2
    gx = A.T @ (A @ (z[:n] - z[n:]) - b)
    return np.concatenate([gx + lam, lam - gx])


# --- gpsr_direction --------------------------------------------------------


def test_direction_keeps_entries_off_the_bound():
    np.testing.assert_array_equal(
        gpsr_direction(np.array([0.0, 1.0]), np.array([-1.0, 2.0])),
        [-1.0, 2.0])


def test_direction_blocks_ascent_at_the_bound():
    np.testing.assert_array_equal(
        gpsr_direction(np.array([0.0, 0.0]), np.array([1.0, 1.0])),
        [0.0, 0.0])


def test_direction_mixed_case():
    np.testing.assert_array_equal(
        gpsr_direction(np.array([2.0, 0.0]), np.array([3.0, -4.0])),
        [3.0, -4.0])


def test_split_iterate_rejects_negative_entries():
    with pytest.raises(ValueError):
        gpsr_direction(np.array([1.0, -0.1]), np.zeros(2))
    with pytest.raises(ValueError):
        gpsr_direction(np.array([1.0, 2.0, 3.0]), np.zeros(3))


def test_direction_length_mismatch_raises():
    with pytest.raises(ValueError):
        gpsr_direction(np.zeros(4), np.zeros(2))


# --- gpsr_step_size --------------------------------------------------------


def test_step_size_single_active_coordinate():
    # column [1, 1] gives curvature exactly 2 for g = [1, 0]
    A = np.array([[1.0], [1.0]])
    assert gpsr_step_size(np.array([1.0, 0.0]), A) == 0.5


def test_step_size_caps_flat_curvature():
    # equal split parts cancel, so the quadratic form along g vanishes
    A = np.array([[1.0], [1.0]])
    assert gpsr_step_size(np.array([1.0, 1.0]), A) == 1e8


def test_step_size_rejects_zero_direction():
    with pytest.raises(ValueError):
        gpsr_step_size(np.zeros(4), np.eye(2))


def test_step_size_matches_dense_line_search():
    rng = np.random.default_rng(31)
    for _ in range(20):
        A = rng.standard_normal((6, 4))
        b = rng.standard_normal(6)
        lam = 0.3
        z = np.abs(rng.standard_normal(8)) * (rng.random(8) > 0.4)
        grad = split_gradient(z, A, b, lam)
        g = gpsr_direction(z, grad)
        if float(g @ g) == 0.0:
            continue
        alpha = gpsr_step_size(g, A)
        grid = np.linspace(0.0, 2.0 * alpha, 2001)
        vals = [split_objective(z - a * g, A, b, lam) for a in grid]
        best = grid[int(np.argmin(vals))]
        assert abs(best - alpha) <= grid[1] - grid[0] + 1e-15


# --- gpsr_solve ------------------------------------------------------------


def test_gpsr_orthonormal_closed_form():
    rng = np.random.default_rng(77)
    Q, _ = np.linalg.qr(rng.standard_normal((30, 30)))
    b = rng.standard_normal(30)
    P = ProblemInstance(Q, b)
    res = gpsr_solve(P, SolverConfig(lam=0.3, tol=1e-8, max_iter=5000))
    assert res.converged
    np.testing.assert_allclose(res.x_star, soft_threshold(Q.T @ b, 0.3),
                               atol=1e-6)


def test_gpsr_zero_data():
    P = ProblemInstance(np.eye(3), np.zeros(3))
    res = gpsr_solve(P, SolverConfig(lam=1.0))
    assert res.converged and res.iterations == 0
    np.testing.assert_array_equal(res.x_star, np.zeros(3))


def test_gpsr_matches_homotopy_at_small_lambda():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((100, 200)) / np.sqrt(100)
    x_true = np.zeros(200)
    idx = rng.choice(200, 10, replace=False)
    x_true[idx] = rng.standard_normal(10)
    P = ProblemInstance(A, A @ x_true)
    lam = 1e-3 * float(np.max(np.abs(A.T @ P.b)))
    ref = homotopy_solve(P, SolverConfig(lam=lam, tol=1e-10, max_iter=5000))
    res = gpsr_solve(P, SolverConfig(lam=lam, tol=1e-7, max_iter=50000))
    assert res.converged
    F_ref = objective(ref.x_star, P, lam)
    assert abs(objective(res.x_star, P, lam) - F_ref) <= 1e-6 * abs(F_ref)


def test_gpsr_budget_returns_best_iterate():
    spec = synth.GenSpec(n=60, d=30, k=5, seed=10)
    P = synth.make_instance(spec)
    events = []
    res = gpsr_solve(P, SolverConfig(tol=1e-12, max_iter=3), events.append)
    assert not res.converged and res.iterations == 3
    assert len(events) == 4


def textbook_gpsr(P, config):
    """gpsr_solve's iteration from the plain formulas on fresh arrays,
    with the full KKT residual for the stage tests. P needs only A and b.
    Returns (x, iterations, converged)."""
    D, b = as_operator(P.A), P.b
    n = D.shape[1]
    Atb = D.adjoint(b)
    lam = config.resolved_lambda(Atb)
    z, x, r, grad_x = np.zeros(2 * n), np.zeros(n), -b, -Atb
    it, alpha = 0, None
    for lam_s in default_schedule(Atb, lam, gradient_projection._DECAY):
        stage_tol = (config.tol * lam if lam_s == lam
                     else _STAGE_TOL * lam_s)
        while (it < config.max_iter
               and kkt_from_correlation(x, -grad_x, lam_s) > stage_tol):
            grad = np.concatenate([grad_x + lam_s, lam_s - grad_x])
            if alpha is None:
                alpha = gpsr_step_size(gpsr_direction(z, grad), D)
            delta = np.maximum(z - grad * alpha, 0.0) - z
            dd = float(delta @ delta)
            if dd == 0.0:
                break
            Adx = D.apply(delta[:n] - delta[n:])
            gamma = float(Adx @ Adx)
            step = min(-float(grad @ delta) / gamma, 1.0) if gamma else 1.0
            it += 1
            z = z + step * delta
            x = z[:n] - z[n:]
            r = D.apply(x) - b if it % 64 == 0 else r + step * Adx
            grad_x = D.adjoint(r)
            alpha = gradient_projection._bb_step(dd, gamma)
    converged = kkt_from_correlation(x, -grad_x, lam) <= config.tol * lam
    return x, it, converged


@pytest.mark.parametrize("case", ["dense", "cab", "align"])
def test_gpsr_is_bitwise_the_plain_formulas(case, solved_on):
    # the step runs in place on buffers allocated once per solve; the
    # answer, the step count and the flag must be those of the plain
    # formulas, bit for bit, also when r is the gradient (the projector)
    P, cfg, res = solved_on(case, "gpsr")
    x, it, converged = textbook_gpsr(P, cfg)
    assert res.converged
    # the projector's problems take some 20 steps, the others > 64, so
    # a residual refresh too
    assert res.iterations >= (18 if case == "align" else 64)
    assert (res.iterations, res.converged) == (it, converged)
    assert res.x_star.tobytes() == x.tobytes()


def test_gpsr_products_per_step(counting_view):
    # set-up's A^T b and the first step length's product, then 2 per
    # step (A dx, A^T r) and 1 per 64-step residual refresh (A x)
    P = synth.make_instance(synth.GenSpec(n=120, d=60, k=12, seed=9,
                                          noise_sigma=0.01))
    cfg = SolverConfig(tol=1e-10, max_iter=300)
    P.A, count = counting_view(P.A)
    res = gpsr_solve(P, cfg)
    assert res.iterations == 300
    assert count[0] == 2 + 2 * 300 + 300 // 64


def test_gpsr_rejects_nonpositive_lambda():
    P = ProblemInstance(np.eye(2), np.ones(2))
    with pytest.raises(ValueError):
        gpsr_solve(P, SolverConfig(lam=0.0))


def test_gpsr_honors_stopping_rule():
    # a relative rule compares iterates of the last stage, whose weight is
    # lam; a loose one stops the run at the second step of that stage
    rng = np.random.default_rng(12)
    A = rng.standard_normal((20, 40)) / np.sqrt(20)
    P = ProblemInstance(A, rng.standard_normal(20))
    lam = 0.1 * float(np.max(np.abs(A.T @ P.b)))
    rule = StoppingRule(kind="relative-objective", threshold=0.5)
    weights = []
    res = gpsr_solve(P, SolverConfig(lam=lam, stopping=rule),
                     observer=lambda e: weights.append(e.weight))
    assert res.converged and len(weights) == res.iterations + 1
    assert weights[-2:] == [lam, lam] and weights[-3] > lam
    assert res.iterations < gpsr_solve(P, SolverConfig(lam=lam)).iterations


@pytest.mark.parametrize("kind, threshold", [
    ("kkt-residual", 1e-2), ("relative-objective", 1e-3),
    ("relative-estimate", 1e-3)])
def test_gpsr_stopping_rule_reads_the_target_weight(kind, threshold):
    # an early continuation stage must not meet the rule for the target
    P = synth.make_instance(synth.GenSpec(n=200, d=100, k=8, seed=11))
    lam = 1e-3 * float(np.max(np.abs(P.A.T @ P.b)))
    if kind == "kkt-residual":
        threshold *= lam
    weights = []
    res = gpsr_solve(P, SolverConfig(
        lam=lam, stopping=StoppingRule(kind=kind, threshold=threshold)),
        observer=lambda e: weights.append(e.weight))
    assert res.converged and weights[-1] == lam
    if kind == "kkt-residual":
        assert kkt_residual(res.x_star, P, lam) <= threshold


@pytest.mark.parametrize("name", ["gpsr", "tnipm", "ist", "fista", "homotopy",
                                  "dalm", "pdipa", "palm"])
@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.integers(-27, 27),
       st.sampled_from([1e-1, 1e-2, 1e-3]))
@example(0, -26, 1e-3)  # where a tie window in absolute units broke homotopy
def test_scale_covariant(name, seed, log2_scale, rel_lam):
    # b -> s b with lam -> s lam for s = 2^k in [7.5e-9, 1.3e8]: every
    # product and comparison scales exactly, so a units-dependent constant
    # is the only thing that can move the answer or the step count (dalm,
    # pdipa and palm read no weight)
    spec = synth.GenSpec(n=40, d=20, k=1 + seed % 5, seed=seed,
                         noise_sigma=0.01)
    P = synth.make_instance(spec)
    lam = rel_lam * float(np.max(np.abs(P.A.T @ P.b)))
    s = 2.0 ** log2_scale
    cfg = SolverConfig(lam=lam, tol=1e-6, max_iter=5000)
    ref, ref_events = observed(name, P, cfg)
    Ps = ProblemInstance(P.A, s * P.b)
    res, res_events = observed(name, Ps, replace(cfg, lam=s * lam))
    assert res.iterations == ref.iterations
    assert res.converged == ref.converged
    np.testing.assert_array_equal(res.x_star, s * ref.x_star)
    assert ([support_size(e.x) for e in res_events]
            == [support_size(e.x) for e in ref_events])
    for run, prob, weight in ((ref, P, lam), (res, Ps, s * lam)):
        if not run.converged:
            continue
        if SOLVERS[name].form == "equality":
            assert (np.linalg.norm(prob.b - prob.A @ run.x_star)
                    <= 10 * cfg.tol * np.linalg.norm(prob.b))
        else:
            assert (kkt_residual(run.x_star, prob, weight)
                    <= 10 * cfg.tol * weight)


@pytest.mark.parametrize("name", [name for name in SOLVER_NAMES
                                  if SOLVERS[name].form == "penalized"])
@pytest.mark.parametrize("factor", [1.0, 2.0])
def test_zero_is_returned_at_a_weight_above_the_threshold(name, factor):
    # at lam >= ||A^T b||_inf, x = 0 is the optimum and meets the kkt test
    P = synth.make_instance(synth.GenSpec(n=200, d=100, k=8, seed=11))
    lam = factor * float(np.max(np.abs(P.A.T @ P.b)))
    res, events = observed(name, P, SolverConfig(lam=lam))
    assert res.converged and res.iterations == 0
    assert np.array_equal(res.x_star, np.zeros(P.n))
    assert ([(e.iteration, e.objective, e.residual_norm, support_size(e.x))
             for e in events]
            == [(0, 0.5 * float(np.linalg.norm(P.b)) ** 2,
                 float(np.linalg.norm(P.b)), 0)])


# --- tnipm_solve -----------------------------------------------------------


def test_tnipm_orthonormal_closed_form():
    rng = np.random.default_rng(78)
    Q, _ = np.linalg.qr(rng.standard_normal((30, 30)))
    b = rng.standard_normal(30)
    P = ProblemInstance(Q, b)
    res = tnipm_solve(P, SolverConfig(lam=0.3, tol=1e-8, max_iter=500))
    assert res.converged
    np.testing.assert_allclose(res.x_star, soft_threshold(Q.T @ b, 0.3),
                               atol=1e-6)


def test_tnipm_interior_start_takes_a_clean_first_step():
    spec = synth.GenSpec(n=30, d=15, k=3, seed=21)
    P = synth.make_instance(spec)
    seen = []
    tnipm_solve(P, SolverConfig(max_iter=2), observer=seen.append)
    assert [e.iteration for e in seen] == [0, 1, 2]
    first = seen[1].state
    assert np.all(np.abs(first["x_bar"]) < first["u"])
    assert (np.all(np.isfinite(first["x_bar"]))
            and np.all(np.isfinite(first["u"])))


def test_tnipm_matches_gpsr():
    rng = np.random.default_rng(6)
    A = rng.standard_normal((100, 200)) / np.sqrt(100)
    x_true = np.zeros(200)
    idx = rng.choice(200, 10, replace=False)
    x_true[idx] = rng.standard_normal(10)
    P = ProblemInstance(A, A @ x_true)
    lam = 1e-2 * float(np.max(np.abs(A.T @ P.b)))
    cfg = SolverConfig(lam=lam, tol=1e-7, max_iter=50000)
    F_gp = objective(gpsr_solve(P, cfg).x_star, P, lam)
    res = tnipm_solve(P, SolverConfig(lam=lam, tol=1e-7, max_iter=500))
    assert res.converged
    assert abs(objective(res.x_star, P, lam) - F_gp) <= 1e-5 * abs(F_gp)


def test_tnipm_zero_data():
    P = ProblemInstance(np.eye(3), np.zeros(3))
    res = tnipm_solve(P, SolverConfig(lam=1.0))
    assert res.converged and res.iterations == 0


def test_tnipm_budget_and_truncation():
    spec = synth.GenSpec(n=60, d=30, k=5, seed=11)
    P = synth.make_instance(spec)
    res = tnipm_solve(P, SolverConfig(tol=1e-12, max_iter=2))
    assert not res.converged and res.iterations == 2
    top = float(np.max(np.abs(res.x_star)))
    small = np.abs(res.x_star) <= 1e-7 * top
    assert np.all(res.x_star[small] == 0.0)


def test_tnipm_broken_inner_solve_raises(monkeypatch):
    # a poisoned Newton direction must surface as a numerical error, not
    # leave the barrier domain silently
    spec = synth.GenSpec(n=30, d=15, k=3, seed=22)
    P = synth.make_instance(spec)

    def bad_pcg(op, rhs, precond=None, tol=1e-8, max_iter=None):
        return PcgResult(np.full(rhs.shape[0], np.nan), True, 0, 0.0)

    monkeypatch.setattr("ell1.gradient_projection.pcg_solve", bad_pcg)
    with pytest.raises(NumericalBreakdownError):
        tnipm_solve(P, SolverConfig(max_iter=10))


def test_tnipm_solves_its_newton_systems_inexactly(monkeypatch):
    # PCG to relative residual 0.1 from the scale-free start takes 286
    # steps on this instance; solves to 1e-4 from u = 1, t = 1/lam took
    # 1,041
    steps = []

    def counting_pcg(*args, **kwargs):
        sol = pcg_solve(*args, **kwargs)
        steps.append(sol.iterations)
        return sol

    monkeypatch.setattr("ell1.gradient_projection.pcg_solve", counting_pcg)
    P = synth.make_instance(synth.GenSpec(n=200, d=100, k=8, seed=11))
    res = tnipm_solve(P, SolverConfig())
    assert res.converged
    assert sum(steps) <= 400


def test_tnipm_notes_each_capped_inner_solve(monkeypatch):
    def capped_pcg(*args, **kwargs):
        return pcg_solve(*args, **kwargs)._replace(converged=False)

    monkeypatch.setattr("ell1.gradient_projection.pcg_solve", capped_pcg)
    P = synth.make_instance(synth.GenSpec(n=30, d=15, k=3, seed=22))
    res = tnipm_solve(P, SolverConfig(max_iter=3))
    assert not res.converged and res.iterations == 3
    assert res.notes == ("iteration budget exhausted",
                         "pcg hit its iteration cap 3 times")


def test_gpsr_stops_at_a_fixed_point_of_the_projection():
    # a tolerance below roundoff: the projected step rounds to zero before
    # the kkt test can pass, and the run ends there, unconverged
    rng = np.random.default_rng(2)
    P = ProblemInstance(rng.standard_normal((6, 6)), rng.standard_normal(6))
    lam = 0.1 * float(np.max(np.abs(P.A.T @ P.b)))
    res = gpsr_solve(P, SolverConfig(lam=lam, tol=1e-17, max_iter=20000))
    assert not res.converged and res.iterations < 20000
    assert res.notes == ("zero projected step at lambda %g" % lam,)


def test_tnipm_keeps_a_nearly_solved_iterate_when_the_search_fails():
    # the benchmark's gauss-clean instance trial_seed(2004, 1, 8): the gap
    # test has held for long when, at t = 1.1e19, the line search finds no
    # decrease; that must not throw the iterate away. The optimum has an
    # entry at 4e-8 of its largest, which truncation zeroes, so the kkt
    # test never holds here
    s = synth.trial_seed(2004, 1, 8)
    A = synth.gen_gaussian_dict(200, 500, s)
    x0 = np.sqrt(20) * synth.gen_sparse_signal(500, 20, s)
    P = ProblemInstance(A, A @ x0)
    lam = 1e-4 * float(np.max(np.abs(A.T @ P.b)))
    res = tnipm_solve(P, SolverConfig(lam=lam, tol=1e-6, max_iter=5000))
    assert res.iterations < 5000
    assert np.linalg.norm(res.x_star - x0) <= 1e-3 * np.linalg.norm(x0)
    assert res.converged == (kkt_residual(res.x_star, P, lam)
                             <= 1e-6 * lam)


# --- invariants ------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def gpsr_run(seed):
    """Problem, target weight, [(z, stage weight)] of the start point and
    every step, and result."""
    spec = synth.GenSpec(n=40, d=20, k=1 + seed % 5, seed=seed,
                         noise_sigma=0.01)
    P = synth.make_instance(spec)
    lam = 1e-2 * float(np.max(np.abs(P.A.T @ P.b)))
    iterates = []
    res = gpsr_solve(P, SolverConfig(lam=lam, tol=1e-7, max_iter=20000),
                     observer=lambda e: iterates.append((e.state["z"],
                                                         e.weight)))
    return P, lam, iterates, res


@functools.lru_cache(maxsize=None)
def tnipm_run(seed):
    spec = synth.GenSpec(n=40, d=20, k=1 + seed % 5, seed=seed,
                         noise_sigma=0.01)
    P = synth.make_instance(spec)
    lam = 1e-2 * float(np.max(np.abs(P.A.T @ P.b)))
    iterates = []
    res = tnipm_solve(P, SolverConfig(lam=lam, tol=1e-7, max_iter=500),
                      observer=lambda e: iterates.append(e.state))
    return P, lam, iterates, res


def split_change(z_prev, z_next, A, b, lam):
    """Q(z_next) - Q(z_prev) of the split objective at weight lam.

    Evaluated as an exact quadratic difference, so its sign stays
    meaningful after consecutive objectives agree to machine precision.
    """
    n = z_prev.shape[0] // 2
    dx = (z_next[:n] - z_next[n:]) - (z_prev[:n] - z_prev[n:])
    Adx = A @ dx
    grad = split_gradient(z_prev, A, b, lam)
    return float(grad @ (z_next - z_prev)) + 0.5 * float(Adx @ Adx)


@pytest.mark.invariant
def test_gpsr_iterates_feasible_and_objective_non_increasing():
    # continuation: each step is monotone at its own stage weight, and the
    # target objective is non-increasing through the final stage. An early
    # stage may raise the target objective on its way down.
    total = 0
    for seed in range(1800, 1910):
        P, lam, iterates, res = gpsr_run(seed)
        assert res.converged
        weights = [lam_s for _, lam_s in iterates[1:]]
        assert all(a >= b for a, b in zip(weights, weights[1:]))
        assert weights[-1] == lam
        zs = [z for z, _ in iterates]
        assert np.array_equal(zs[0], np.zeros(2 * P.n))
        for z in zs:
            assert np.all(z >= 0.0)
        for z_prev, z_next, lam_s in zip(zs, zs[1:], weights):
            Q_here = split_objective(z_prev, P.A, P.b, lam_s)
            assert (split_change(z_prev, z_next, P.A, P.b, lam_s)
                    <= 1e-15 * (1.0 + abs(Q_here)))
            total += 1
        # the iterate the final stage starts from, then its own steps
        Q_final = [split_objective(z, P.A, P.b, lam)
                   for z in zs[weights.index(lam):]]
        for Q_prev, Q_next in zip(Q_final, Q_final[1:]):
            assert Q_next <= Q_prev + 1e-15 * (1.0 + abs(Q_prev))
        assert (split_objective(zs[-1], P.A, P.b, lam)
                < split_objective(zs[0], P.A, P.b, lam))
    assert total >= 100


@pytest.mark.invariant
def test_direction_never_opposes_the_gradient():
    total = 0
    for seed in range(1800, 1910):
        P, _, iterates, _ = gpsr_run(seed)
        for z, lam_s in iterates[1:]:
            grad = split_gradient(z, P.A, P.b, lam_s)
            g = gpsr_direction(z, grad)
            assert float(g @ grad) >= 0.0
            total += 1
    assert total >= 100


@pytest.mark.invariant
def test_tnipm_stays_strictly_interior():
    total = 0
    for seed in range(2100, 2155):
        _, _, iterates, res = tnipm_run(seed)
        assert res.converged
        assert len(iterates) >= 1
        t_seen = []
        for st in iterates:
            assert np.all(np.abs(st["x_bar"]) < st["u"])
            t_seen.append(st["t"])
            total += 1
        assert all(a <= b for a, b in zip(t_seen, t_seen[1:]))
    assert total >= 100


@pytest.mark.invariant
def test_both_solvers_meet_the_kkt_contract():
    cases = 0
    for seed in range(2200, 2255):
        spec = synth.GenSpec(n=50, d=25, k=1 + seed % 4, seed=seed)
        P = synth.make_instance(spec)
        lam = 1e-2 * float(np.max(np.abs(P.A.T @ P.b)))
        cfg = SolverConfig(lam=lam, tol=1e-6, max_iter=20000)
        for solver in (gpsr_solve, tnipm_solve):
            res = solver(P, cfg)
            assert res.converged
            assert kkt_residual(res.x_star, P, lam) <= 10 * cfg.tol * lam
            cases += 1
    assert cases >= 100
