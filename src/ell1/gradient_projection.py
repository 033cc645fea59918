"""Gradient projection and log-barrier solvers on bound-constrained forms.

gpsr_solve rewrites the penalized least-squares objective over the
nonnegative split z = [positive part; negative part] and runs monotone
GPSR-BB (Figueiredo, Nowak and Wright, 2007): a projected step of
Barzilai-Borwein length, then the exact minimizer along the segment it
spans, at 2 dictionary products per step, in place on buffers allocated
once per solve. A warm-started continuation lowers the weight to its
target in stages. tnipm_solve instead follows the
central path of the constrained form |x_i| <= u_i, taking damped Newton
steps whose reduced linear systems are solved inexactly by diagonally
preconditioned conjugate gradients.
"""

import numpy as np

from ell1.exceptions import NumericalBreakdownError
from ell1.model import Monitor, _kkt_screened, kkt_from_correlation
from ell1.numerics import BoxBarrier, pcg_solve, truncate_small
from ell1.operators import as_operator
from ell1.shrinkage import _STAGE_TOL, default_schedule

_ALPHA_CAP = 1e8
_DECAY = 0.2           # gpsr's stage-to-stage weight factor
_CURV_FLOOR = 1e-14    # relative curvature below this counts as flat
_REFRESH_EVERY = 64    # full residual recompute cadence (drift control)
PCG_TOL = 0.1          # tnipm's PCG relative residual (l1_ls's cap)


def gpsr_direction(z, grad):
    """Masked gradient used as the projected descent direction.

    A component that sits on its bound (z_i = 0) keeps its gradient entry
    only when that entry is negative; moving against a nonnegative entry
    would leave the feasible set, so it is zeroed instead.
    """
    z = np.ascontiguousarray(z, dtype=np.float64)
    g = np.ascontiguousarray(grad, dtype=np.float64)
    if z.ndim != 1 or z.shape[0] % 2:
        raise ValueError("z must be a vector of even length 2n")
    if np.any(z < 0):
        raise ValueError("split iterate must be componentwise nonnegative")
    if g.shape != z.shape:
        raise ValueError("z and grad must have equal length")
    return np.where((z > 0.0) | (g < 0.0), g, 0.0)


def _bb_step(ss, curvature):
    """ss / curvature, or the cap 1e8 where curvature <= 1e-14 ss (flat)."""
    return ss / curvature if curvature > _CURV_FLOOR * ss else _ALPHA_CAP


def gpsr_step_size(g, A):
    """Exact minimizer of the split quadratic along -g, capped when flat.

    A is a matrix or a dictionary operator. The split Hessian is never
    formed. With g = [g_plus; g_minus] its quadratic form collapses to
    ||A (g_plus - g_minus)||^2, one product. Curvature at or below 1e-14
    relative to ||g||^2 returns the cap 1e8.
    """
    g = np.ascontiguousarray(g, dtype=np.float64)
    if g.ndim != 1 or g.shape[0] % 2:
        raise ValueError("g must be a vector of even length 2n")
    gg = float(g @ g)
    if gg == 0.0:
        raise ValueError("g must be nonzero")
    n = g.shape[0] // 2
    Av = as_operator(A).apply(g[:n] - g[n:])
    return _bb_step(gg, float(Av @ Av))


def gpsr_solve(P, config, observer=None):
    """GPSR-BB on the nonnegative split, under warm-started continuation.

    Stage weights fall from 0.9 ||A^T b||_inf by 0.2 to lam, config's
    weight. A middle stage ends at a KKT residual of 0.1 times its weight,
    the last one at config.tol * lam; config.max_iter caps the steps of
    all stages. A step projects z - alpha grad onto z >= 0, moves to the
    exact minimizer on the segment to that point and sets the next alpha
    by Barzilai-Borwein: 2 products, no backtracking. The start point and
    every step give one event each; its weight is the stage weight and its
    state holds z. config.stopping sees only the last stage, whose weight
    is lam.

    The stage test runs before every step: the full KKT residual is
    computed only when max|A^T r| - lam_s does not already exceed the
    stage tolerance, and for config.stopping only when a rule is set. The
    step runs in place, with the float operations of the plain formulas:
    the split gradient, the projected step (then scaled by the step
    length), its change in x and the residual live in buffers allocated
    once per solve, and a step takes 2 products plus 1 every 64 steps,
    when the residual is recomputed from x.
    """
    D, b = as_operator(P.A), P.b
    n = P.n
    Atb = D.adjoint(b)
    lam = config.resolved_lambda(Atb)
    mon = Monitor(config, b, P.ground_truth, observer)
    if float(np.max(np.abs(Atb))) <= lam:  # x = 0 is optimal
        return mon.trivial(n, lam)
    if not lam > 0:
        raise ValueError("lambda must be positive")

    stages = default_schedule(Atb, lam, _DECAY)
    z = np.zeros(2 * n)
    x = np.zeros(n)
    r = -b.copy()          # A x - b
    grad_x = -Atb
    grad = np.empty(2 * n)   # split gradient [grad_x + lam_s; lam_s - grad_x]
    delta = np.empty(2 * n)  # projected step, then step * delta
    dx = np.empty(n)         # its change in x, delta[:n] - delta[n:]
    mon.record(0, 0.5 * float(b @ b), float(np.linalg.norm(b)), x, stages[0],
               z=z)
    it, alpha = 0, None
    for lam_s in stages:
        stage_tol = config.tol * lam if lam_s == lam else _STAGE_TOL * lam_s
        while (it < config.max_iter
               and _kkt_screened(x, grad_x, lam_s, stage_tol) > stage_tol):
            np.add(grad_x, lam_s, out=grad[:n])
            np.subtract(lam_s, grad_x, out=grad[n:])
            if alpha is None:
                alpha = gpsr_step_size(gpsr_direction(z, grad), D)
            # delta = max(z - alpha grad, 0) - z
            np.multiply(grad, alpha, out=delta)
            np.subtract(z, delta, out=delta)
            np.maximum(delta, 0.0, out=delta)
            delta -= z
            dd = float(delta.dot(delta))
            if dd == 0.0:  # a fixed point of the projection
                mon.notes.append("zero projected step at lambda %g" % lam_s)
                break
            Adx = D.apply(np.subtract(delta[:n], delta[n:], out=dx))
            gamma = float(Adx.dot(Adx))
            step = min(-float(grad.dot(delta)) / gamma, 1.0) if gamma else 1.0
            it += 1
            z += np.multiply(step, delta, out=delta)
            np.subtract(z[:n], z[n:], out=x)
            # r may be grad_x (D^T returning its argument): neither is
            # read again before grad_x is taken afresh
            if it % _REFRESH_EVERY == 0:
                np.subtract(D.apply(x), b, out=r)
            else:
                r += np.multiply(step, Adx, out=Adx)
            grad_x = D.adjoint(r)
            alpha = _bb_step(dd, gamma)
            if mon.watched:
                rr = float(r @ r)
                F_cur = 0.5 * rr + lam_s * float(np.abs(x).sum())
                mon.record(it, F_cur, float(np.sqrt(rr)), x, lam_s, z=z)
                if lam_s == lam and mon.rule_met(
                        x, F_cur,
                        lambda: kkt_from_correlation(x, -grad_x, lam)):
                    return mon.result(x, it, True)
    converged = kkt_from_correlation(x, -grad_x, lam) <= config.tol * lam
    if not converged and it >= config.max_iter:
        mon.notes.append("iteration budget exhausted")
    return mon.result(x, it, converged)


def tnipm_solve(P, config, observer=None):
    """Truncated-Newton log-barrier solve of the |x_i| <= u_i form.

    As in l1_ls (Kim et al., 2007), Newton steps on the weighted barrier
    objective eliminate the bound block exactly and solve the n-by-n rest
    roughly: PCG, preconditioned by its diagonal, stops at relative
    residual PCG_TOL (0.1) or after n steps, and backtracking keeps each
    step a descent step. x = 0 is returned after 0 iterations if it meets
    the kkt tolerance; else the start is u = F(0) / (lam n), t = 2n / gap0,
    with gap0 the duality gap of x = 0 at b min(1, lam / ||A^T b||_inf).
    t grows tenfold whenever the Newton decrement certifies a center.
    Once the central-path gap 2n/t is within tol of F(x), the truncated
    iterate is returned if it meets the kkt tolerance. A line search
    finding no interior decrease raises NumericalBreakdownError, unless
    the gap test held where it started: then t has outgrown roundoff, and
    that iterate is returned with converged=False and a note. Each
    iteration reports and tests its start point, truncated, before
    stepping, so the first event is the start of the solve and the last
    one the returned estimate; an event's state holds x_bar (the
    untruncated barrier point), u (|x_bar_i| < u_i) and t, the barrier
    weight of the step taken from it. Honors config.stopping.
    """
    D, b = as_operator(P.A), P.b
    n = P.n
    Atb = D.adjoint(b)
    lam = config.resolved_lambda(Atb)
    mon = Monitor(config, b, P.ground_truth, observer)
    Atb_inf = float(np.max(np.abs(Atb)))
    if Atb_inf - lam <= config.tol * lam:  # x = 0 meets the kkt test
        return mon.trivial(n, lam)
    if not lam > 0:
        raise ValueError("lambda must be positive")

    col_sq = D.column_norms_sq()
    F0 = 0.5 * float(b @ b)
    x = np.zeros(n)
    u = np.full(n, F0 / (lam * n))
    t = 2.0 * n / ((1.0 - lam / Atb_inf) ** 2 * F0)
    it = 0
    converged = False
    pcg_capped = 0
    while True:
        r = D.apply(x) - b
        Ar = D.adjoint(r)
        obj = 0.5 * float(r @ r) + lam * float(np.sum(np.abs(x)))
        if mon.watched:
            mon.record(it, obj, float(np.linalg.norm(r)), truncate_small(x),
                       lam, x_bar=x, u=u, t=t)
            if mon.rule_met(x, obj,
                            lambda: kkt_from_correlation(x, -Ar, lam)):
                converged = True
                break
        gap_met = 2.0 * n / t <= config.tol * obj
        if gap_met:
            xt = truncate_small(x)
            ct = D.adjoint(b - D.apply(xt))
            if kkt_from_correlation(xt, ct, lam) <= config.tol * lam:
                converged = True
                break
        if it == config.max_iter:
            mon.notes.append("iteration budget exhausted")
            break
        bar = BoxBarrier(x, u, t, lam)
        g_x = t * Ar + bar.g_bar
        d_red = bar.d_red
        op = lambda v: t * D.adjoint(D.apply(v)) + d_red * v
        sol = pcg_solve(op, bar.reduced_rhs(g_x), precond=t * col_sq + d_red,
                        tol=PCG_TOL)
        if not sol.converged:
            pcg_capped += 1
        dx = sol.x
        du = bar.bound_step(dx)
        decrement_sq = -(float(g_x @ dx) + float(bar.g_u @ du))
        Adx = D.apply(dx)
        step = bar.backtrack(r, dx, du, decrement_sq, lambda s: r + s * Adx)
        if step is None and gap_met:
            # the barrier weight has outgrown roundoff: the iterate is as
            # good as this search gets, so return it unconverged
            mon.notes.append("barrier line search exhausted at t = %g" % t)
            break
        if step is None:
            raise NumericalBreakdownError(
                "barrier line search exhausted without an interior "
                "decrease")
        _, x, u = step
        it += 1
        t = bar.next_weight(decrement_sq)
    if pcg_capped:
        mon.notes.append("pcg hit its iteration cap %d times" % pcg_capped)
    return mon.result(truncate_small(x), it, converged)
