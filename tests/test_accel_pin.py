"""Bitwise pin of the in-place accelerated step (shrinkage._Accel).

The reference below is the allocating step it replaced: _backtrack,
_accel_step and alm._inner_solve verbatim, driven by the bodies of
fista_solve, palm_solve and align_palm_solve's multiplier loop as they
read before the step moved into buffers. fista, palm and align_palm must
give the same answers, iteration counts, converged flags and observer
events, bit for bit: the buffers may move the speed, not the float
operations.
"""

import numpy as np
import pytest

from ell1 import robust, shrinkage, synth
from ell1.alm import (_INNER_CAP, _STALL_FLOOR, _STALL_STEPS, MU0_SCALE, RHO,
                      palm_solve)
from ell1.exceptions import NumericalBreakdownError
from ell1.model import (Monitor, ProblemInstance, SolverConfig, _kkt_screened,
                        kkt_from_correlation)
from ell1.numerics import soft_threshold
from ell1.operators import as_operator
from ell1.shrinkage import (_MAX_BACKTRACK, BETA, ETA, L0, fista_solve,
                            fista_t_next)

# --- reference: the allocating step, verbatim ------------------------------


def _backtrack(y, L_prev, eta, lam, D, g_y, r_y):
    """Grow L by eta until the quadratic model majorizes F at the prox point.

    For the quadratic loss the model at L majorizes F at x_next exactly
    when ||A delta||^2 <= L ||delta||^2, delta = x_next - y, so the test
    reads no objective value and needs no slack, and a zero step passes.
    Each trial takes one product with the operator D, D delta, which
    carries the residual over from r_y = A y - b: A delta stays accurate
    to its own size, where r_next - r_y would be the difference of two
    residuals, each rounded at the size of b. Returns (L, x_next, delta,
    r_next, q, trials): r_next = r_y + A delta, q = ||A delta||^2 /
    ||delta||^2 (0 for a zero step) and the number of L values tried.
    """
    L = L_prev
    for trials in range(1, _MAX_BACKTRACK + 2):
        x_next = soft_threshold(y - g_y / L, lam / L)
        delta = x_next - y
        Adelta = D.apply(delta)
        AdAd = float(Adelta @ Adelta)
        dd = float(delta @ delta)
        if AdAd <= L * dd:
            return (L, x_next, delta, r_y + Adelta,
                    AdAd / dd if dd > 0.0 else 0.0, trials)
        L *= eta
    raise NumericalBreakdownError("backtracking exceeded 100 growth steps")


def _accel_step(D, lam, x, r, g, dx, dr, dg, t_prev, t, L, L_floor):
    """One accelerated prox-gradient step on 1/2 ||D x - b||^2 + lam ||x||_1.

    r = D x - b and g = D^T r are the residual and gradient at x, and dx,
    dr and dg their changes over the last step. The step extrapolates all
    three by the weight c = (t_prev - 1) / t (not at all when c is 0),
    runs _backtrack from L, and starts the next search at
    max(min(ETA q, L_step), L_step / ETA, L_floor). It takes the adjoint
    g_next = D^T r_next, and restarts the momentum (t_prev = t = 1) when
    (y - x_next) . (x_next - x) > 0, that is when it pointed uphill
    (O'Donoghue and Candes, 2015). dr and dg are formed only when the
    next weight is nonzero. Returns (x_next, r_next, g_next, dx, dr, dg,
    t_prev, t, L, L_step, y, trials, restarted).
    """
    c = (t_prev - 1.0) / t
    if c:
        y = x + c * dx
        r_y = r + c * dr
        # an adjoint that returns its argument makes the gradient r itself
        g_y = r_y if g is r else g + c * dg
    else:
        y, r_y, g_y = x, r, g
    L_step, x_next, delta, r_next, q, trials = _backtrack(
        y, L, ETA, lam, D, g_y, r_y)
    L = max(min(ETA * q, L_step), L_step / ETA, L_floor)
    g_next = D.adjoint(r_next)
    # with no momentum y is x, so the step is delta and cannot point uphill
    dx = x_next - x if c else delta
    restarted = c > 0.0 and float(delta @ dx) < 0.0
    if restarted:
        t_prev = t = 1.0
    else:
        t_prev, t = t, fista_t_next(t)
    if t_prev > 1.0:
        dr = r_next - r
        dg = dr if g_next is r_next else g_next - g
    return (x_next, r_next, g_next, dx, dr, dg, t_prev, t, L, L_step, y,
            trials, restarted)


def _inner_solve(D, lam, x, r, L, tol, budget):
    """Restarted accelerated prox-gradient on 1/2 ||D x - b||^2 + lam ||x||_1.

    Runs shrinkage._accel_step from x, whose residual D x - b is r, with
    fresh momentum and the search starting at L, until a step dx has
    ||dx|| <= tol ||x|| for the new x, or for _INNER_CAP steps or the
    budget left. Takes D^T r once to start. Returns (x, r, L, steps,
    trials, restarts): r is carried to the new x, L is where the next
    search starts. palm_solve and robust.align_palm_solve run their inner
    solves here.
    """
    g = D.adjoint(r)
    t_prev = t = 1.0
    dx = dr = dg = None
    trials = restarts = 0
    for steps in range(1, min(_INNER_CAP, budget) + 1):
        (x, r, g, dx, dr, dg, t_prev, t, L, _, _, tried,
         restarted) = _accel_step(D, lam, x, r, g, dx, dr, dg, t_prev, t,
                                  L, 0.0)
        trials += tried
        restarts += restarted
        if float(dx @ dx) <= tol * tol * float(x @ x):
            break
    return x, r, L, steps, trials, restarts


def ref_fista(P, config, observer=None):
    D, b = as_operator(P.A), P.b
    n = P.n
    mon = Monitor(config, b, P.ground_truth, observer)
    Atb = D.adjoint(b)
    lam_bar = config.resolved_lambda(Atb)
    x = np.zeros(n)
    Atb_max = float(np.max(np.abs(Atb)))
    if Atb_max <= lam_bar:  # x = 0 is optimal
        return mon.trivial(n, lam_bar)
    if not lam_bar > 0:
        raise ValueError("lambda must be positive")

    L, L_floor = L0, 0.0
    lam = max(0.9 * Atb_max, lam_bar)
    if config.opt("exact_L", False):
        L = L_floor = D.norm_sq() * (1.0 + 1e-9)
        lam = lam_bar
    r, g = -b, -Atb
    dx = dr = dg = None
    t_prev = t_cur = 1.0
    kkt_tol = config.tol * lam_bar
    F_next = None
    converged = False
    it = 0
    while it < config.max_iter:
        it += 1
        (x, r, g, dx, dr, dg, t_prev, t_cur, L, L_step, y, _,
         _) = _accel_step(D, lam, x, r, g, dx, dr, dg, t_prev, t_cur, L,
                          L_floor)
        if mon.watched:
            F_next = 0.5 * float(r @ r) + lam * float(np.abs(x).sum())
            mon.record(it, F_next, float(np.linalg.norm(r)), x, lam, y=y,
                       t_prev=t_prev, t=t_cur, L=L_step)
        if lam == lam_bar and (
                _kkt_screened(x, g, lam, kkt_tol) <= kkt_tol
                or mon.rule_met(
                    x, F_next, lambda: kkt_from_correlation(x, -g, lam))):
            converged = True
            break
        lam = max(BETA * lam, lam_bar)
    return mon.result(x, it, converged)


def ref_palm(P, config, observer=None):
    D, b = as_operator(P.A), P.b
    n = P.n
    mon = Monitor(config, b, P.ground_truth, observer)
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return mon.trivial(n)
    mu = mu0 = MU0_SCALE * P.d / float(np.sum(np.abs(b)))
    L = L0
    x = np.zeros(n)
    Ax, y = np.zeros(P.d), np.zeros(P.d)
    mon.record(0, 0.0, b_norm, x, mu=mu, inner_steps=0, trials=0,
               restarts=0)
    it = 0
    converged = False
    best_res, stalled = b_norm, 0
    floor = _STALL_FLOOR * np.finfo(np.float64).eps * b_norm
    while it < config.max_iter:
        r = Ax - (b + y / mu)
        x, _, L, steps, trials, restarts = _inner_solve(
            D, 1.0 / mu, x, r, L, 1e-2 * mu0 / mu, config.max_iter - it)
        it += steps
        Ax = D.apply(x)
        r = b - Ax
        res_norm = float(np.linalg.norm(r))
        y = y + mu * r
        if not (np.isfinite(res_norm) and np.all(np.isfinite(y))):
            raise NumericalBreakdownError(
                "multiplier or residual became non-finite at mu = %g" % mu)
        l1 = float(np.sum(np.abs(x)))
        mon.record(it, l1, res_norm, x, mu=mu, inner_steps=steps,
                   trials=trials, restarts=restarts)
        rel = res_norm / b_norm
        if rel <= config.tol or mon.rule_met(x, l1, rel):
            converged = True
            break
        stalled = 0 if res_norm < best_res else stalled + 1
        best_res = min(best_res, res_norm)
        if stalled == _STALL_STEPS and best_res > floor:
            raise NumericalBreakdownError(
                "residual stalled at %g: b is outside range(A)" % best_res)
        mu *= RHO
    if not converged and it >= config.max_iter:
        mon.notes.append("inner-iteration budget exhausted")
    return mon.result(x, it, converged)


def ref_align_palm(prob, config):
    def multiplier_loop(P, c, _):
        tol_abs = config.tol * float(np.linalg.norm(prob.b))
        e, y, r = np.zeros(prob.d), np.zeros(prob.d), -c
        mu = mu0 = MU0_SCALE * prob.d / float(np.sum(np.abs(c)))
        L = L0
        it = 0
        while it < config.max_iter:
            e, r, L, steps, _, _ = _inner_solve(
                P, 1.0 / mu, e, r, L, 1e-2 * mu0 / mu, config.max_iter - it)
            it += steps
            fit = r + y / mu
            if float(np.linalg.norm(fit)) <= tol_abs:
                break
            y = -mu * r
            mu *= RHO
            r = fit - y / mu
        return e

    return robust._reduced_align_solve(prob, None, multiplier_loop)


# --- the pins --------------------------------------------------------------


def same_bits(a, b):
    """Equal as float64 bytes: -0.0 and +0.0 differ, NaNs must match."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_run(res, ref, events, ref_events, keys):
    assert same_bits(res.x_star, ref.x_star)
    assert res.iterations == ref.iterations
    assert res.converged == ref.converged
    assert res.notes == ref.notes
    assert len(events) == len(ref_events) > 1
    for e, f in zip(events, ref_events):
        assert e.iteration == f.iteration
        assert same_bits(e.objective, f.objective)
        assert same_bits(e.residual_norm, f.residual_norm)
        assert same_bits(e.x, f.x)
        assert e.weight == f.weight
        assert sorted(e.state) == sorted(keys)
        for k in keys:
            assert same_bits(e.state[k], f.state[k]), k


def dense_instance():
    P = synth.make_instance(synth.GenSpec(n=120, d=60, k=8, seed=11))
    g = np.random.default_rng(11).standard_normal(P.d)
    return ProblemInstance(P.A, P.b + 1e-3 * g)


def cab_instance():
    # a corrupted query against a coherent bouquet dictionary: the
    # momentum restarts there, and the operator is the implicit [A, I]
    A, labels = synth.gen_bouquet_dict(60, 100, 10, 0.6, 3)
    rng = np.random.default_rng(3)
    members = np.flatnonzero(labels == int(rng.integers(10)))
    x0 = np.zeros(100)
    x0[rng.choice(members, size=3, replace=False)] = rng.uniform(0.5, 1.5, 3)
    b = A @ x0
    b_bad, _ = synth.corrupt_entries(b, 0.2, -1.0, 1.0, seed=3)
    return robust._cab_problem(A, b_bad, SolverConfig())


FISTA_KEYS = ("y", "t_prev", "t", "L")
PALM_KEYS = ("mu", "inner_steps", "trials", "restarts")


@pytest.mark.parametrize("make", [dense_instance, cab_instance])
@pytest.mark.parametrize("options", [{}, {"exact_L": True}])
def test_fista_is_bitwise_the_allocating_step(make, options):
    P = make()
    cfg = SolverConfig(tol=1e-8, max_iter=3000, options=options)
    events, ref_events = [], []
    res = fista_solve(P, cfg, events.append)
    ref = ref_fista(P, cfg, ref_events.append)
    assert res.converged
    assert_same_run(res, ref, events, ref_events, FISTA_KEYS)
    # unwatched, the run takes the same steps to the same answer
    plain = fista_solve(P, cfg)
    assert same_bits(plain.x_star, ref.x_star)
    assert plain.iterations == ref.iterations


def test_fista_restarts_are_pinned():
    P = cab_instance()
    events = []
    fista_solve(P, SolverConfig(tol=1e-8, max_iter=3000), events.append)
    # a restart sets both momentum weights back to 1 mid-run
    assert any(e.state["t"] == 1.0 for e in events[1:])


def exact_instance():
    """A dense instance with b in range(A), for the equality form."""
    return synth.make_instance(synth.GenSpec(n=120, d=60, k=8, seed=11))


@pytest.mark.parametrize("make", [exact_instance, cab_instance])
def test_palm_is_bitwise_the_allocating_step(make):
    P = make()
    cfg = SolverConfig(tol=1e-8, max_iter=20000)
    events, ref_events = [], []
    res = palm_solve(P, cfg, events.append)
    ref = ref_palm(P, cfg, ref_events.append)
    assert res.converged
    assert sum(e.state["restarts"] for e in events) > 0
    assert_same_run(res, ref, events, ref_events, PALM_KEYS)


def test_palm_at_its_budget_is_bitwise_the_allocating_step():
    # the budget cuts an inner solve short; the workspace must stop there
    P = exact_instance()
    cfg = SolverConfig(tol=1e-30, max_iter=333)
    events, ref_events = [], []
    res = palm_solve(P, cfg, events.append)
    ref = ref_palm(P, cfg, ref_events.append)
    assert res.iterations == 333 and not res.converged
    assert_same_run(res, ref, events, ref_events, PALM_KEYS)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_align_palm_is_bitwise_the_allocating_step(seed, monkeypatch):
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((120, 11))
    b = B @ rng.standard_normal(11)
    b_bad, _ = synth.corrupt_entries(b, 0.1, -3.0, 3.0, seed=seed + 500)
    prob = robust.AlignmentProblem(B, b_bad)
    cfg = SolverConfig(tol=1e-8, max_iter=4000)
    # the projector's adjoint returns its argument: the step must take
    # the path where the gradient is the residual itself
    made = []

    class Watched(shrinkage._Accel):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(robust, "_Accel", Watched)
    w, e = robust.align_palm_solve(prob, cfg)
    assert len(made) == 1 and made[0].g is made[0].r
    w_ref, e_ref = ref_align_palm(prob, cfg)
    assert same_bits(w, w_ref) and same_bits(e, e_ref)

