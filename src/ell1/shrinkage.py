"""Shrinkage-based first-order solvers.

ist_solve runs iterative soft thresholding with spectral (Barzilai-Borwein)
step lengths and warm-started continuation over a decreasing lambda
schedule, solving each middle stage only to 0.1 of its weight, as
gpsr_solve does. fista_solve adds momentum extrapolation with the
accelerated t-sequence and a backtracking Lipschitz search, giving the
O(1/k^2) objective decay, and restarts the momentum whenever it points
uphill (O'Donoghue and Candes, 2015). Its search accepts L once
||A delta||^2 <= L ||delta||^2 for the step delta, which for the quadratic
loss is exactly the majorization of Beck and Teboulle (2009), and lets L
fall again to the curvature the steps measure (Scheinberg, Goldfarb and
Bai, 2014). palm's inner solves take the same step, _accel_step.
"""

import math

import numpy as np

from ell1.exceptions import NumericalBreakdownError
from ell1.model import Monitor, _kkt_screened, kkt_from_correlation
from ell1.numerics import soft_threshold
from ell1.operators import as_operator

_ALPHA_MIN = 1e-30
_ALPHA_MAX = 1e30
_MAX_DOUBLINGS = 50   # step halvings (alpha doublings) before declaring a stall
_MAX_BACKTRACK = 100
L0 = 1.0              # fista's starting Lipschitz estimate
ETA = 1.5             # fista's backtracking growth factor for L
BETA = 0.5            # fista's per-iteration lambda decay under continuation
_STAGE_TOL = 0.1      # kkt residual / weight ending a middle ist or gpsr stage


def bb_alpha(s, g):
    """Spectral step scale (s'g)/(s's), clamped to [1e-30, 1e30].

    For a gradient step on a quadratic with Hessian H and g the gradient
    difference, this is the Rayleigh quotient s'Hs/s's.
    """
    s = np.asarray(s, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    ss = float(s @ s)
    ratio = float(s @ g) / ss if ss > 0.0 else 0.0
    return min(max(ratio, _ALPHA_MIN), _ALPHA_MAX)


def default_schedule(Atb, lam, beta=0.5):
    """Stage weights from 0.9 ||A^T b||_inf down by beta, from Atb = A^T b.

    The list descends and ends exactly at lam. At least five stages are
    used whenever there is room to descend; cold starts at small lambda
    are noticeably slower.
    """
    if not lam > 0:
        raise ValueError("lambda must be positive")
    if not 0 < beta < 1:
        raise ValueError("beta must lie in (0, 1)")
    start = max(0.9 * float(np.max(np.abs(Atb))), lam)
    if start == lam:
        return [lam]
    vals = [start]
    while vals[-1] > lam:
        vals.append(max(vals[-1] * beta, lam))
    if len(vals) < 5:
        ratio = (lam / start) ** 0.25
        vals = [start * ratio ** i for i in range(5)]
        vals[-1] = lam
    return vals


def objective_delta(x, cand, Ax, Acand, g, lam):
    """F(cand) - F(x) evaluated as a difference.

    g'(cand-x) + 1/2 ||A(cand-x)||^2 + lam sum(|cand_i|-|x_i|). Every term
    scales with the step, so the sign stays trustworthy long after the two
    objectives agree to machine precision, which is what lets descent steps
    be recognized all the way down to tight tolerances.
    """
    delta = cand - x
    Adelta = Acand - Ax
    return (float(g @ delta) + 0.5 * float(Adelta @ Adelta)
            + lam * float(np.sum(np.abs(cand) - np.abs(x))))


def ist_solve(P, config, observer=None):
    """Soft-threshold iterations over default_schedule's stage weights.

    A middle stage ends at a KKT residual of 0.1 times its weight, as in
    gpsr_solve, the last one at config.tol * lam; config.max_iter caps the
    steps of all stages. Each step must strictly decrease the stage
    objective; a rejected step doubles alpha (halving the step) up to 50
    times before the stage is declared stalled.
    Every accepted step gives one event; its weight is the stage
    weight and its state is empty. config.stopping sees only the last
    stage, whose weight is config's. The stage test computes the full KKT
    residual only when max|A^T r| - lam_s does not already exceed the
    stage tolerance, as gpsr_solve's does.
    """
    D, b = as_operator(P.A), P.b
    n = P.n
    mon = Monitor(config, b, P.ground_truth, observer)
    Atb = D.adjoint(b)
    lam = config.resolved_lambda(Atb)
    if float(np.max(np.abs(Atb))) <= lam:  # x = 0 is optimal
        return mon.trivial(n, lam)
    if not lam > 0:
        raise ValueError("lambda must be positive")

    it = 0
    alpha = 1.0
    x = np.zeros(n)
    Ax = np.zeros(P.d)
    g = -Atb
    for lam_s in default_schedule(Atb, lam):
        stage_tol = config.tol * lam if lam_s == lam else _STAGE_TOL * lam_s
        while (it < config.max_iter
               and _kkt_screened(x, g, lam_s, stage_tol) > stage_tol):
            for _ in range(_MAX_DOUBLINGS):
                cand = soft_threshold(x - g / alpha, lam_s / alpha)
                Acand = D.apply(cand)
                dF = objective_delta(x, cand, Ax, Acand, g, lam_s)
                if dF < 0.0:
                    break
                alpha = min(alpha * 2.0, _ALPHA_MAX)
            else:  # stalled: no step decreases the stage objective
                break
            it += 1
            g_new = D.adjoint(Acand - b)
            alpha = bb_alpha(cand - x, g_new - g)
            x, Ax, g = cand, Acand, g_new
            if mon.watched:
                resid = b - Ax
                F_cur = (0.5 * float(resid @ resid)
                         + lam_s * float(np.abs(x).sum()))
                mon.record(it, F_cur, float(np.linalg.norm(resid)), x, lam_s)
                if lam_s == lam and mon.rule_met(
                        x, F_cur, lambda: kkt_from_correlation(x, -g, lam)):
                    return mon.result(x, it, True)
    converged = kkt_from_correlation(x, -g, lam) <= config.tol * lam
    return mon.result(x, it, converged)


def fista_t_next(t):
    """Next momentum weight: (1 + sqrt(4 t^2 + 1)) / 2.

    In exact arithmetic the recurrence gives t'^2 - t' = t^2; roundoff can
    land a half-ulp on the wrong side, so the result is nudged down (at
    most a couple of ulps) until t'^2 - t' <= t^2 holds exactly.
    """
    if not t >= 1.0:
        raise ValueError("t must be at least 1")
    t_next = 0.5 * (1.0 + math.sqrt(4.0 * t * t + 1.0))
    while t_next * t_next - t_next > t * t:
        t_next = math.nextafter(t_next, 1.0)
    return t_next


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


def fista_solve(P, config, observer=None):
    """Accelerated shrinkage with per-iteration lambda continuation.

    Every step is _accel_step: its search starts from L = L0 (1.0), grows
    L by ETA (1.5) until ||A delta||^2 <= L ||delta||^2, and lets it fall
    by at most ETA per step towards the curvature the steps measure; the
    momentum restarts whenever it points uphill. Continuation shrinks
    lambda by BETA (0.5) per iteration. The one option (config.options)
    is exact_L (False), the fixed problem the convergence bound assumes:
    L is the measured squared spectral norm times 1 + 1e-9, the floor of
    every search, so every step takes that L at its first trial, and
    lambda is config's weight from the first step. Every step
    gives one event; its weight is the step's continuation weight and its
    state holds y (the extrapolated point the step started from), t_prev,
    t (the momentum weights after the step, both 1 after a restart) and
    L (the step's accepted L). config.stopping is checked only once
    lambda has reached config's weight, with the KKT residual at that
    weight in its kkt slot. The KKT residual is computed only at that
    weight: for the tolerance test when max|A^T r| - lam does not already
    exceed it, and for config.stopping when a rule is set.

    Each iteration takes 2 dictionary products, plus 1 per extra search
    trial: A delta and g = A^T (A x - b). Set-up takes A^T b, plus the
    spectral norm when exact_L is set.
    """
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
        # tiny inflation keeps the majorization valid under roundoff; no
        # search starts below it, so L stays there
        L = L_floor = D.norm_sq() * (1.0 + 1e-9)
        lam = lam_bar

    # residual A x - b and gradient A^T (A x - b) at x, and their last changes
    r, g = -b, -Atb
    dx = dr = dg = None
    t_prev = t_cur = 1.0
    kkt_tol = config.tol * lam_bar
    F_next = None  # built only when watched
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
