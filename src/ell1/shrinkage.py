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
Bai, 2014). palm's inner solves take the same step, _Accel.step, in
buffers allocated once per solve: numpy calls, not products, set its time.
ist_solve steps in place too, on rows allocated once per solve.
"""

import math

import numpy as np

from ell1 import _accel
from ell1.exceptions import NumericalBreakdownError
from ell1.model import Monitor, _kkt_screened, kkt_from_correlation
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
    ss = float(s.dot(s))
    ratio = float(s.dot(g)) / ss if ss > 0.0 else 0.0
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
    return (float(g.dot(delta)) + 0.5 * float(Adelta.dot(Adelta))
            + lam * float(np.sum(np.abs(cand) - np.abs(x))))


def ist_solve(P, config, observer=None):
    """Soft-threshold iterations over default_schedule's stage weights.

    A middle stage ends at a KKT residual of 0.1 times its weight, as in
    gpsr_solve, the last one at config.tol * lam; config.max_iter caps the
    steps of all stages. Each step must strictly decrease the stage
    objective; a rejected step doubles alpha (halving the step) up to 50
    times before the stage is declared stalled, with a note, and the next
    stage starts. Every accepted step gives one event; its weight is the
    stage weight and its state is empty. config.stopping sees only the
    last stage, whose weight is config's. The stage test computes the
    full KKT residual only when max|A^T r| - lam_s does not already
    exceed the stage tolerance, as gpsr_solve's does.

    Each search trial takes one product, A cand, and each step one more,
    g = A^T (A x - b). The steps run in place: the iterate and the
    candidate keep [x | A x | |x|] in one row each, so one subtraction
    gives the change [delta | A delta | |cand| - |x|] that
    objective_delta's three terms and bb_alpha read, an accepted trial
    swaps the rows, and the residual alternates between two buffers, as
    D^T may return its argument (the aligners' projector), which then is
    g. The float operations and their order are the plain formulas', so
    are the answers.
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

    d = P.d
    # the iterate's and the candidate's rows [x | A x | |x|], and their
    # change, each as (row, x, A x, |x|)
    cur, nxt, chg = [(row, row[:n], row[n:n + d], row[n + d:])
                     for row in np.zeros((3, 2 * n + d))]
    u, dg = np.empty((2, n))  # prox argument, gradient change
    res = np.empty((2, d))    # A x - b, the two alternating
    _, delta, Adelta, dabs = chg
    it = 0
    alpha = 1.0
    g = -Atb
    for lam_s in default_schedule(Atb, lam):
        stage_tol = config.tol * lam if lam_s == lam else _STAGE_TOL * lam_s
        while (it < config.max_iter
               and _kkt_screened(cur[1], g, lam_s, stage_tol) > stage_tol):
            for _ in range(_MAX_DOUBLINGS):
                np.divide(g, alpha, out=u)
                np.subtract(cur[1], u, out=u)
                # the shrinkage leaves |cand| in the candidate's row too
                _accel.soft_threshold(u, lam_s / alpha, nxt[1], nxt[3])
                nxt[2][...] = D.apply(nxt[1])
                np.subtract(nxt[0], cur[0], out=chg[0])
                # objective_delta's terms, read off the change row
                dF = (float(g.dot(delta)) + 0.5 * float(Adelta.dot(Adelta))
                      + lam_s * float(np.add.reduce(dabs)))
                if dF < 0.0:
                    break
                alpha = min(alpha * 2.0, _ALPHA_MAX)
            else:  # stalled: no step decreases the stage objective
                mon.notes.append("stage stalled: no decrease in %d step "
                                 "halvings at lambda %g"
                                 % (_MAX_DOUBLINGS, lam_s))
                break
            it += 1
            # not g's buffer: D^T may return its argument (the projector)
            r = res[it % 2]
            np.subtract(nxt[2], b, out=r)
            g_new = D.adjoint(r)
            alpha = bb_alpha(delta, np.subtract(g_new, g, out=dg))
            cur, nxt, g = nxt, cur, g_new
            if mon.watched:
                x = cur[1]
                F_cur = (0.5 * float(r.dot(r))
                         + lam_s * float(np.add.reduce(cur[3])))
                mon.record(it, F_cur, float(np.linalg.norm(r)), x, lam_s)
                if lam_s == lam and mon.rule_met(
                        x, F_cur, lambda: kkt_from_correlation(x, -g, lam)):
                    return mon.result(x.copy(), it, True)
    converged = kkt_from_correlation(cur[1], -g, lam) <= config.tol * lam
    if not converged and it >= config.max_iter:
        mon.notes.append("iteration budget exhausted")
    return mon.result(cur[1].copy(), it, converged)


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


class _Accel:
    """Accelerated prox-gradient steps on 1/2 ||D x - b||^2 + lam ||x||_1,
    in place, for fista_solve and palm's inner solves (solve).

    The buffers are allocated once per solve and keep the state across
    palm's outer steps. x, r = D x - b and g = D^T r sit side by side in
    one row and their last changes in another, so extrapolating all three
    is 2 ufunc calls and their changes 1; g is r itself when D's adjoint
    returns its argument (the aligners' projector). Why: besides its two
    products, a step's time goes to numpy calls and their glue, which
    the buffers and a direct call of the _accel shrinkage kernel cut.
    The float operations and their order are the plain formulas', so
    are the answers. step
    restarts the momentum (t_prev = t = 1) when it pointed uphill,
    (y - x_next) . (x_next - x) > 0 (O'Donoghue and Candes, 2015).
    """

    def __init__(self, D, n, d, L):
        """x = 0, search starting at L; the caller writes r before start."""
        self.D, self.L, self._n, self._d = D, L, n, d
        # two state rows (current and next), their change, the point y
        self._rows = np.zeros((4, 2 * n + d))
        self._u, self._delta = np.empty((2, n))  # prox argument, step
        self._shared = None
        self.x, self.r = self._rows[0, :n], self._rows[0, n:n + d]

    def start(self, g=None):
        """Fresh momentum at x, whose residual the caller has written into
        r; g is its gradient, D^T r (one product) when None."""
        if g is None:
            g = self.D.adjoint(self.r)
        if self._shared is None:  # the first start fixes the layout
            self._shared = shared = g is self.r
            n, d = self._n, self._d
            rows = self._rows[:, :n + d if shared else None]
            self._cur, self._nxt, self._chg, self._ext = [
                (row, row[:n], r, r if shared else row[n + d:])
                for row, r in zip(rows, rows[:, n:n + d])]
        if not self._shared:
            self._cur[3][...] = g
        self.t_prev = self.t = 1.0
        _, self.x, self.r, self.g = self._cur

    def _search(self, y, r_y, g_y, lam, L, eta, x_next, r_next):
        """Grow L by eta until ||A delta||^2 <= L ||delta||^2 for
        delta = x_next - y, x_next the prox point at L: for the quadratic
        loss, exactly when the model at y majorizes F there, so no slack
        is needed and a zero step passes. Each trial takes one product,
        A delta, which carries r_next = r_y + A delta accurate to the
        step's size. Writes x_next and r_next; returns (L, q, trials),
        q = ||A delta||^2 / ||delta||^2 (0 for a zero step)."""
        u, delta = self._u, self._delta
        for trials in range(1, _MAX_BACKTRACK + 2):
            np.divide(g_y, L, out=u)
            np.subtract(y, u, out=u)
            _accel.soft_threshold(u, lam / L, x_next)
            np.subtract(x_next, y, out=delta)
            Adelta = self.D.apply(delta)
            AdAd = float(Adelta.dot(Adelta))
            dd = float(delta.dot(delta))
            if AdAd <= L * dd:
                np.add(r_y, Adelta, out=r_next)
                return L, AdAd / dd if dd > 0.0 else 0.0, trials
            L *= eta
        raise NumericalBreakdownError("backtracking exceeded 100 growth steps")

    def step(self, lam, L_floor):
        """One step at weight lam from y = x + c dx, c = (t_prev - 1) / t;
        the next search starts at max(min(ETA q, L_step), L_step / ETA,
        L_floor). Sets x, r, g, dx, y, L_step (the accepted L), L, t_prev
        and t; returns (trials, restarted)."""
        cur, nxt = self._cur, self._nxt
        t = self.t
        c = (self.t_prev - 1.0) / t
        if c:
            ext = self._ext
            np.multiply(c, self._chg[0], out=ext[0])
            np.add(cur[0], ext[0], out=ext[0])
            _, y, r_y, g_y = ext
        else:
            _, y, r_y, g_y = cur
        L_step, q, trials = self._search(y, r_y, g_y, lam, self.L, ETA,
                                         nxt[1], nxt[2])
        self.L = max(min(ETA * q, L_step), L_step / ETA, L_floor)
        g_next = self.D.adjoint(nxt[2])
        if not self._shared:
            nxt[3][...] = g_next
        dx = self._delta  # from a start y is x, and dr, dg go unread
        if t > 1.0:  # [dx | dr | dg] for the next extrapolation
            np.subtract(nxt[0], cur[0], out=self._chg[0])
            dx = self._chg[1]
        restarted = c > 0.0 and float(self._delta.dot(dx)) < 0.0
        self.t_prev, self.t = ((1.0, 1.0) if restarted
                               else (t, fista_t_next(t)))
        self.dx, self.y, self.L_step = dx, y, L_step
        self._cur, self._nxt = nxt, cur
        _, self.x, self.r, self.g = nxt
        return trials, restarted

    def solve(self, lam, tol, steps):
        """Restarted inner solve: start, then step until ||dx|| <= tol ||x||
        for the new x, or for steps steps. Returns (steps taken, search
        trials, restarts)."""
        self.start()
        trials = restarts = 0
        for taken in range(1, steps + 1):
            tried, restarted = self.step(lam, 0.0)
            trials += tried
            restarts += restarted
            dx, x = self.dx, self.x
            if float(dx.dot(dx)) <= tol * tol * float(x.dot(x)):
                break
        return taken, trials, restarts


def fista_solve(P, config, observer=None):
    """Accelerated shrinkage with per-iteration lambda continuation.

    Every step is _Accel.step: its search starts from L = L0 (1.0), grows
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

    # residual A x - b and gradient A^T (A x - b) at x = 0
    acc = _Accel(D, n, b.size, L)
    np.negative(b, out=acc.r)
    acc.start(-Atb)
    kkt_tol = config.tol * lam_bar
    F_next = None  # built only when watched
    converged = False
    it = 0
    while it < config.max_iter:
        it += 1
        acc.step(lam, L_floor)
        x, r, g = acc.x, acc.r, acc.g
        if mon.watched:
            F_next = 0.5 * float(r @ r) + lam * float(np.abs(x).sum())
            mon.record(it, F_next, float(np.linalg.norm(r)), x, lam,
                       y=acc.y, t_prev=acc.t_prev, t=acc.t, L=acc.L_step)
        if lam == lam_bar and (
                _kkt_screened(x, g, lam, kkt_tol) <= kkt_tol
                or mon.rule_met(
                    x, F_next, lambda: kkt_from_correlation(x, -g, lam))):
            converged = True
            break
        lam = max(BETA * lam, lam_bar)
    if not converged:
        mon.notes.append("iteration budget exhausted")
    return mon.result(acc.x.copy(), it, converged)
