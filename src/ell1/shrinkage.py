"""Shrinkage-based first-order solvers.

ist_solve runs iterative soft thresholding with spectral (Barzilai-Borwein)
step lengths and warm-started continuation over a decreasing lambda
schedule. fista_solve adds momentum extrapolation with the accelerated
t-sequence and a backtracking Lipschitz search, giving the O(1/k^2)
objective decay.
"""

from dataclasses import dataclass

import numpy as np

from ell1.exceptions import NumericalBreakdownError
from ell1.model import Monitor, kkt_from_correlation
from ell1.numerics import soft_threshold, spectral_norm_sq

_ALPHA_MIN = 1e-30
_ALPHA_MAX = 1e30
_MAX_DOUBLINGS = 50   # step halvings (alpha doublings) before declaring a stall
_MAX_BACKTRACK = 100
L0 = 1.0              # fista's starting Lipschitz estimate
ETA = 1.5             # fista's backtracking growth factor for L
BETA = 0.5            # fista's per-iteration lambda decay under continuation


@dataclass(frozen=True)
class ContinuationSchedule:
    """Decreasing lambda schedule for warm-started solves."""

    lambda_start: float
    beta: float
    lambda_target: float

    def __post_init__(self):
        if not self.lambda_target > 0:
            raise ValueError("lambda_target must be positive")
        if self.lambda_start < self.lambda_target:
            raise ValueError("lambda_start must be >= lambda_target")
        if not 0 < self.beta < 1:
            raise ValueError("beta must lie in (0, 1)")

    def stages(self):
        """Lambda values, descending, ending exactly at lambda_target.

        At least five stages are used whenever there is room to descend;
        cold starts at small lambda are noticeably slower.
        """
        if self.lambda_start == self.lambda_target:
            return [self.lambda_target]
        vals = [self.lambda_start]
        while vals[-1] > self.lambda_target:
            vals.append(max(vals[-1] * self.beta, self.lambda_target))
        if len(vals) < 5:
            ratio = (self.lambda_target / self.lambda_start) ** 0.25
            vals = [self.lambda_start * ratio ** i for i in range(5)]
            vals[-1] = self.lambda_target
        return vals


@dataclass
class FistaState:
    """Momentum solver state after one accepted step."""

    x_prev: np.ndarray
    x_cur: np.ndarray
    t_prev: float
    t_cur: float
    L: float


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


def default_schedule(Atb, lam_target, beta=0.5):
    """Schedule 0.9 ||A^T b||_inf -> lam_target by beta, from Atb = A^T b."""
    start = 0.9 * float(np.max(np.abs(Atb)))
    return ContinuationSchedule(max(start, lam_target), beta, lam_target)


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


def ist_solve(P, schedule, config, observer=None):
    """Soft-threshold iterations over the continuation schedule.

    Each inner step must strictly decrease the stage objective; a rejected
    step doubles alpha (halving the step) up to 50 times before the stage
    is declared stalled. observer, when given, receives
    (x, lambda, objective_change) after every accepted step. Honors
    config.stopping when set. schedule=None runs default_schedule down
    to config's weight.
    """
    A, b = P.A, P.b
    n = P.n
    mon = Monitor(config, b, P.ground_truth)
    Atb = A.T @ b
    if schedule is None:
        schedule = default_schedule(Atb, config.resolved_lambda(Atb))
    lam_target = schedule.lambda_target
    if float(np.max(np.abs(Atb))) == 0.0:
        return mon.trivial(n, penalized=True)

    it = 0
    converged = False
    alpha = 1.0
    x = np.zeros(n)
    Ax = np.zeros(P.d)
    g = -Atb
    for lam in schedule.stages():
        final_stage = lam == lam_target
        kkt = kkt_from_correlation(x, -g, lam)
        if kkt <= config.tol * lam:
            if final_stage:
                converged = True
            continue
        stalled = False
        while it < config.max_iter:
            accepted = False
            for _ in range(_MAX_DOUBLINGS):
                cand = soft_threshold(x - g / alpha, lam / alpha)
                Acand = A @ cand
                dF = objective_delta(x, cand, Ax, Acand, g, lam)
                if dF < 0.0:
                    accepted = True
                    break
                alpha = min(alpha * 2.0, _ALPHA_MAX)
            if not accepted:
                stalled = True
                break
            it += 1
            g_new = A.T @ (Acand - b)
            alpha = bb_alpha(cand - x, g_new - g)
            x, Ax, g = cand, Acand, g_new
            resid = b - Ax
            F_cur = 0.5 * float(resid @ resid) + lam * float(np.sum(np.abs(x)))
            mon.record(it, F_cur, float(np.linalg.norm(resid)), x)
            if observer is not None:
                observer(x.copy(), lam, dF)
            kkt = kkt_from_correlation(x, -g, lam)
            # the rule sees every iterate, stage ends included
            rule_met = mon.rule_met(x, F_cur, kkt)
            if kkt <= config.tol * lam:
                if final_stage:
                    converged = True
                break
            if rule_met:
                return mon.result(x, it, True)
        if stalled and final_stage and kkt <= config.tol * lam:
            converged = True
        if stalled and not final_stage:
            continue
        if it >= config.max_iter and not converged:
            break
    return mon.result(x, it, converged)


def fista_t_next(t):
    """Next momentum weight: (1 + sqrt(4 t^2 + 1)) / 2.

    In exact arithmetic the recurrence gives t'^2 - t' = t^2; roundoff can
    land a half-ulp on the wrong side, so the result is nudged down (at
    most a couple of ulps) until t'^2 - t' <= t^2 holds exactly.
    """
    if not t >= 1.0:
        raise ValueError("t must be at least 1")
    t_next = 0.5 * (1.0 + np.sqrt(4.0 * t * t + 1.0))
    while t_next * t_next - t_next > t * t:
        t_next = np.nextafter(t_next, 1.0)
    return t_next


def _backtrack(y, L_prev, eta, lam, P, g_y, f_y):
    """Grow L by eta until the quadratic model majorizes F at the prox point.

    Each trial takes one product, A x_next.
    """
    A, b = P.A, P.b
    L = L_prev
    for _ in range(_MAX_BACKTRACK + 1):
        x_next = soft_threshold(y - g_y / L, lam / L)
        r_next = A @ x_next - b
        l1 = lam * float(np.sum(np.abs(x_next)))
        F_next = 0.5 * float(r_next @ r_next) + l1
        delta = x_next - y
        Q = f_y + float(g_y @ delta) + 0.5 * L * float(delta @ delta) + l1
        if F_next <= Q + 1e-12 * max(1.0, abs(Q)):  # slack for exact ties
            return L, x_next, r_next, F_next
        L *= eta
    raise NumericalBreakdownError("backtracking exceeded 100 growth steps")


def backtrack_L(y, L_prev, eta, lam, P):
    """Smallest L = eta^j * L_prev whose quadratic model upper-bounds F at
    the corresponding prox point; returns (L, x_next)."""
    if not L_prev > 0:
        raise ValueError("L_prev must be positive")
    if not eta > 1:
        raise ValueError("eta must exceed 1")
    y = np.asarray(y, dtype=np.float64)
    r_y = P.A @ y - P.b
    g_y = P.A.T @ r_y
    L, x_next, _, _ = _backtrack(y, L_prev, eta, lam, P, g_y,
                                 0.5 * float(r_y @ r_y))
    return L, x_next


def fista_solve(P, config, observer=None):
    """Accelerated shrinkage with per-iteration lambda continuation.

    Backtracking starts from L = L0 (1.0) and grows it by ETA (1.5);
    continuation shrinks lambda by BETA (0.5) per iteration. Options
    (config.options): continuation (True), exact_L (False: use
    backtracking; True: fix L to the measured squared spectral norm, as
    the convergence-bound analysis assumes). observer, when given,
    receives (FistaState, y, lambda) after every step. Honors
    config.stopping when set.

    Each iteration takes 2 dictionary products, plus 1 per extra
    backtracking trial: A x_next, and g = A^T (A x_next - b), which the
    kkt test needs and the next iteration reuses. The extrapolated point
    y = x + c (x - x_prev) needs none, because its residual and gradient
    are the same combination of the carried ones for x and x_prev. Set-up
    takes A^T b, plus the spectral norm when exact_L is set.
    """
    A, b = P.A, P.b
    n = P.n
    mon = Monitor(config, b, P.ground_truth)
    Atb = A.T @ b
    lam_bar = config.resolved_lambda(Atb)
    x = np.zeros(n)
    Atb_max = float(np.max(np.abs(Atb)))
    if Atb_max == 0.0:
        return mon.trivial(n, penalized=True)
    if not lam_bar > 0:
        raise ValueError("lambda must be positive")

    L = L0
    exact_L = config.opt("exact_L", False)
    if exact_L:
        # tiny inflation keeps the majorization valid under roundoff
        sn = A.norm_sq() if hasattr(A, "norm_sq") else spectral_norm_sq(A)
        L = sn * (1.0 + 1e-9)
    lam = max(0.9 * Atb_max, lam_bar) \
        if config.opt("continuation", True) else lam_bar

    # residual A x - b and gradient A^T (A x - b) at x and at x_prev
    x_prev = x.copy()
    r_x = r_prev = -b
    g_x = g_prev = -Atb
    t_prev = t_cur = 1.0
    converged = False
    it = 0
    while it < config.max_iter:
        it += 1
        c = (t_prev - 1.0) / t_cur
        y = x + c * (x - x_prev)
        r_y = r_x + c * (r_x - r_prev)
        g_y = g_x + c * (g_x - g_prev)
        if exact_L:
            x_next = soft_threshold(y - g_y / L, lam / L)
            r_next = A @ x_next - b
            F_next = (0.5 * float(r_next @ r_next)
                      + lam * float(np.sum(np.abs(x_next))))
        else:
            L, x_next, r_next, F_next = _backtrack(y, L, ETA, lam, P, g_y,
                                                   0.5 * float(r_y @ r_y))
        x_prev, x = x, x_next
        r_prev, r_x = r_x, r_next
        g_prev, g_x = g_x, A.T @ r_next
        t_prev, t_cur = t_cur, fista_t_next(t_cur)
        mon.record(it, F_next, float(np.linalg.norm(r_next)), x)
        kkt = kkt_from_correlation(x, -g_x, lam)
        if observer is not None:
            observer(FistaState(x_prev.copy(), x.copy(), t_prev, t_cur, L),
                     y, lam)
        # the rule sees every iterate, so it is asked first
        if (mon.rule_met(x, F_next, kkt)
                or (lam == lam_bar and kkt <= config.tol * lam_bar)):
            converged = True
            break
        lam = max(BETA * lam, lam_bar)
    return mon.result(x, it, converged)
