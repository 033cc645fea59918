"""Gradient projection and log-barrier solvers on bound-constrained forms.

gpsr_solve rewrites the penalized least-squares objective over the
nonnegative split z = [positive part; negative part] and runs monotone
GPSR-BB (Figueiredo, Nowak and Wright, 2007): a projected step of
Barzilai-Borwein length, then the exact minimizer along the segment it
spans, at 2 dictionary products per step. A warm-started continuation
lowers the weight to its target in stages. tnipm_solve instead follows the
central path of the constrained form |x_i| <= u_i, taking damped Newton
steps whose reduced linear systems are solved inexactly by diagonally
preconditioned conjugate gradients.
"""

from dataclasses import dataclass

import numpy as np

from ell1.exceptions import NumericalBreakdownError
from ell1.model import Monitor, kkt_from_correlation
from ell1.numerics import BoxBarrier, pcg_solve, truncate_small
from ell1.shrinkage import default_schedule

_ALPHA_CAP = 1e8
_DECAY = 0.2           # gpsr's stage-to-stage weight factor
_STAGE_TOL = 0.1       # kkt residual, relative to its weight, ending a stage
_CURV_FLOOR = 1e-14    # relative curvature below this counts as flat
_REFRESH_EVERY = 64    # full residual recompute cadence (drift control)
PCG_TOL = 1e-4         # relative residual at which tnipm's PCG stops


@dataclass
class SplitIterate:
    """Nonnegative split z = [x_plus; x_minus] of length 2n."""

    z: np.ndarray

    def __post_init__(self):
        self.z = np.ascontiguousarray(self.z, dtype=np.float64)
        if self.z.ndim != 1 or self.z.shape[0] % 2:
            raise ValueError("z must be a vector of even length 2n")
        if np.any(self.z < 0):
            raise ValueError("split iterate must be componentwise nonnegative")

    @property
    def n(self):
        return self.z.shape[0] // 2

    def recombined(self):
        """The signed vector x = z_plus - z_minus."""
        return self.z[:self.n] - self.z[self.n:]


@dataclass
class BarrierIterate:
    """Interior point (x, u, t) with |x_i| < u_i strictly and t > 0."""

    x: np.ndarray
    u: np.ndarray
    t: float

    def __post_init__(self):
        self.x = np.ascontiguousarray(self.x, dtype=np.float64)
        self.u = np.ascontiguousarray(self.u, dtype=np.float64)
        if self.x.shape != self.u.shape or self.x.ndim != 1:
            raise ValueError("x and u must be vectors of equal length")
        if not np.all(np.abs(self.x) < self.u):
            raise ValueError("barrier iterate must satisfy |x_i| < u_i")
        if not self.t > 0:
            raise ValueError("t must be positive")


def gpsr_direction(z, grad):
    """Masked gradient used as the projected descent direction.

    A component that sits on its bound (z_i = 0) keeps its gradient entry
    only when that entry is negative; moving against a nonnegative entry
    would leave the feasible set, so it is zeroed instead.
    """
    zv = (z if isinstance(z, SplitIterate) else SplitIterate(z)).z
    g = np.ascontiguousarray(grad, dtype=np.float64)
    if g.shape != zv.shape:
        raise ValueError("z and grad must have equal length")
    return np.where((zv > 0.0) | (g < 0.0), g, 0.0)


def _bb_step(ss, curvature):
    """ss / curvature, or the cap 1e8 where curvature <= 1e-14 ss (flat)."""
    return ss / curvature if curvature > _CURV_FLOOR * ss else _ALPHA_CAP


def gpsr_step_size(g, A):
    """Exact minimizer of the split quadratic along -g, capped when flat.

    The split Hessian is never formed. With g = [g_plus; g_minus] its
    quadratic form collapses to ||A (g_plus - g_minus)||^2, one matvec.
    Curvature at or below 1e-14 relative to ||g||^2 returns the cap 1e8.
    """
    g = np.ascontiguousarray(g, dtype=np.float64)
    if g.ndim != 1 or g.shape[0] % 2:
        raise ValueError("g must be a vector of even length 2n")
    gg = float(g @ g)
    if gg == 0.0:
        raise ValueError("g must be nonzero")
    n = g.shape[0] // 2
    Av = A @ (g[:n] - g[n:])
    return _bb_step(gg, float(Av @ Av))


def gpsr_solve(P, lam, config, observer=None):
    """GPSR-BB on the nonnegative split, under warm-started continuation.

    Stage weights fall from 0.9 ||A^T b||_inf by 0.2 to lam. A middle
    stage ends at a KKT residual of 0.1 times its weight, the last one at
    config.tol * lam; config.max_iter caps the steps of all stages. A step
    projects z - alpha grad onto z >= 0, moves to the exact minimizer on
    the segment to that point and sets the next alpha by Barzilai-Borwein:
    2 products, no backtracking. lam=None resolves the default weight.
    observer receives (SplitIterate, stage weight) after every step;
    config.stopping sees only the last stage, whose weight is lam.
    """
    A, b = P.A, P.b
    n = P.n
    Atb = A.T @ b
    lam = config.resolved_lambda(Atb) if lam is None else lam
    if not lam > 0:
        raise ValueError("lambda must be positive")
    mon = Monitor(config, b, P.ground_truth)
    if float(np.max(np.abs(Atb))) == 0.0:
        return mon.trivial(n, penalized=True)

    z = np.zeros(2 * n)
    x = np.zeros(n)
    r = -b.copy()          # A x - b
    grad_x = -Atb
    mon.record(0, 0.5 * float(b @ b), float(np.linalg.norm(b)), x)
    it, alpha = 0, None
    for lam_s in default_schedule(Atb, lam, _DECAY).stages():
        stage_tol = config.tol * lam if lam_s == lam else _STAGE_TOL * lam_s
        while (it < config.max_iter
               and kkt_from_correlation(x, -grad_x, lam_s) > stage_tol):
            grad = np.concatenate([grad_x + lam_s, lam_s - grad_x])
            if alpha is None:
                alpha = gpsr_step_size(gpsr_direction(z, grad), A)
            delta = np.maximum(z - alpha * grad, 0.0) - z
            dd = float(delta @ delta)
            if dd == 0.0:  # a fixed point of the projection
                mon.notes.append("zero projected step at lambda %g" % lam_s)
                break
            Adx = A @ (delta[:n] - delta[n:])
            gamma = float(Adx @ Adx)
            step = min(-float(grad @ delta) / gamma, 1.0) if gamma else 1.0
            it += 1
            z = z + step * delta
            x = z[:n] - z[n:]
            if it % _REFRESH_EVERY == 0:
                r = A @ x - b
            else:
                r = r + step * Adx
            grad_x = A.T @ r
            alpha = _bb_step(dd, gamma)
            rr = float(r @ r)
            F_cur = 0.5 * rr + lam_s * float(np.sum(np.abs(x)))
            mon.record(it, F_cur, float(np.sqrt(rr)), x)
            if observer is not None:
                observer(SplitIterate(z.copy()), lam_s)
            if lam_s == lam and mon.rule_met(
                    x, F_cur, lambda: kkt_from_correlation(x, -grad_x, lam)):
                return mon.result(x, it, True)
    converged = kkt_from_correlation(x, -grad_x, lam) <= config.tol * lam
    return mon.result(x, it, converged)


def tnipm_solve(P, lam, config, observer=None):
    """Truncated-Newton log-barrier solve of the |x_i| <= u_i form.

    Newton steps on the weighted barrier objective eliminate the bound
    block exactly, leaving an n-by-n positive definite system solved by
    conjugate gradients with the diagonal of the reduced Hessian as
    preconditioner. The barrier weight starts at 1/lambda and grows
    tenfold whenever the Newton decrement certifies the current center;
    iteration stops when the gap estimate 2n/t is below tol relative to
    the objective and the truncated iterate meets the kkt tolerance.
    Backtracking that cannot find a decreasing interior step raises
    NumericalBreakdownError. PCG stops at relative residual PCG_TOL
    (1e-4) or after as many steps as the dimension. observer receives
    the BarrierIterate after every accepted step. Honors config.stopping.
    """
    A, b = P.A, P.b
    n = P.n
    Atb = A.T @ b
    lam = config.resolved_lambda(Atb) if lam is None else lam
    if not lam > 0:
        raise ValueError("lambda must be positive")
    mon = Monitor(config, b, P.ground_truth)
    if float(np.max(np.abs(Atb))) == 0.0:
        return mon.trivial(n, penalized=True)

    col_sq = np.sum(A * A, axis=0)
    x = np.zeros(n)
    u = np.ones(n)
    t = 1.0 / lam
    it = 0
    converged = False
    pcg_capped = 0
    while it < config.max_iter:
        r = A @ x - b
        Ar = A.T @ r
        obj = 0.5 * float(r @ r) + lam * float(np.sum(np.abs(x)))
        mon.record(it, obj, float(np.linalg.norm(r)), truncate_small(x))
        if mon.rule_met(x, obj, lambda: kkt_from_correlation(x, -Ar, lam)):
            converged = True
            x = truncate_small(x)
            break
        if 2.0 * n / t <= config.tol * (1.0 + obj):
            xt = truncate_small(x)
            ct = A.T @ (b - A @ xt)
            if kkt_from_correlation(xt, ct, lam) <= config.tol * lam:
                converged = True
                x = xt
                break
        bar = BoxBarrier(x, u, t, lam)
        g_x = t * Ar + bar.g_bar
        d_red = bar.d_red
        op = lambda v: t * (A.T @ (A @ v)) + d_red * v
        sol = pcg_solve(op, bar.reduced_rhs(g_x), precond=t * col_sq + d_red,
                        tol=PCG_TOL)
        if not sol.converged:
            pcg_capped += 1
        dx = sol.x
        du = bar.bound_step(dx)
        decrement_sq = -(float(g_x @ dx) + float(bar.g_u @ du))
        Adx = A @ dx
        step = bar.backtrack(r, dx, du, decrement_sq, lambda s: r + s * Adx)
        if step is None:
            raise NumericalBreakdownError(
                "barrier line search exhausted without an interior "
                "decrease")
        _, x, u = step
        it += 1
        if observer is not None:
            observer(BarrierIterate(x.copy(), u.copy(), t))
        t = bar.next_weight(decrement_sq)
    x = truncate_small(x)
    if not converged:
        rt = A @ x - b
        objt = 0.5 * float(rt @ rt) + lam * float(np.sum(np.abs(x)))
        if (2.0 * n / t <= config.tol * (1.0 + objt)
                and kkt_from_correlation(x, A.T @ -rt, lam)
                <= config.tol * lam):
            converged = True
    if pcg_capped:
        mon.notes.append("pcg hit its iteration cap %d times" % pcg_capped)
    return mon.result(x, it, converged)
