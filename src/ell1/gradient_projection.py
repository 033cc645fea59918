"""Gradient projection and log-barrier solvers on bound-constrained forms.

gpsr_solve rewrites the penalized least-squares objective over the
nonnegative split z = [positive part; negative part], then runs projected
steepest descent with the exact single-variable step and a halving
backtrack. tnipm_solve instead follows the central path of the constrained
form |x_i| <= u_i, taking damped Newton steps whose reduced linear systems
are solved inexactly by diagonally preconditioned conjugate gradients.
"""

from dataclasses import dataclass

import numpy as np

from ell1.exceptions import NumericalBreakdownError
from ell1.model import Monitor, kkt_from_correlation
from ell1.numerics import _MAX_HALVINGS, BoxBarrier, pcg_solve, truncate_small

_ALPHA_CAP = 1e8
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


def _split_vector(z):
    if isinstance(z, SplitIterate):
        return z.z
    z = np.ascontiguousarray(z, dtype=np.float64)
    if z.ndim != 1 or z.shape[0] % 2:
        raise ValueError("z must be a vector of even length 2n")
    return z


def gpsr_direction(z, grad):
    """Masked gradient used as the projected descent direction.

    A component that sits on its bound (z_i = 0) keeps its gradient entry
    only when that entry is negative; moving against a nonnegative entry
    would leave the feasible set, so it is zeroed instead.
    """
    zv = _split_vector(z)
    g = np.ascontiguousarray(grad, dtype=np.float64)
    if g.shape != zv.shape:
        raise ValueError("z and grad must have equal length")
    return np.where((zv > 0.0) | (g < 0.0), g, 0.0)


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
    curvature = float(Av @ Av)
    if curvature <= _CURV_FLOOR * gg:
        return _ALPHA_CAP
    return gg / curvature


def gpsr_solve(P, lam, config, observer=None):
    """Projected steepest descent on the nonnegative split.

    Each iteration steps along the masked negative gradient with the
    exact 1-D step size, projects onto z >= 0, and halves the step up to
    50 times until the split objective decreases. lam=None resolves the
    default weight from config. observer, when given, receives the
    SplitIterate after every accepted step. Honors config.stopping.
    """
    A, b = P.A, P.b
    n = P.n
    if lam is None:
        lam = config.resolved_lambda(P)
    if not lam > 0:
        raise ValueError("lambda must be positive")
    mon = Monitor(config, b, P.ground_truth)
    Atb = A.T @ b
    if float(np.max(np.abs(Atb))) == 0.0:
        return mon.trivial(n, penalized=True)

    z = np.zeros(2 * n)
    x = np.zeros(n)
    r = -b.copy()          # A x - b
    grad_x = -Atb
    mon.record(0, 0.5 * float(b @ b), float(np.linalg.norm(b)), x)
    it = 0
    converged = False
    while it < config.max_iter:
        kkt = kkt_from_correlation(x, -grad_x, lam)
        if kkt <= config.tol * lam:
            converged = True
            break
        grad = np.concatenate([grad_x + lam, lam - grad_x])
        g = gpsr_direction(z, grad)
        if float(g @ g) == 0.0:
            # first-order point of the split program; kkt said otherwise
            mon.notes.append("zero projected gradient before kkt tolerance")
            break
        alpha = gpsr_step_size(g, A)
        accepted = False
        for _ in range(_MAX_HALVINGS + 1):
            cand = np.maximum(z - alpha * g, 0.0)
            x_cand = cand[:n] - cand[n:]
            Adx = A @ (x_cand - x)
            # exact quadratic difference: trustworthy sign at tiny steps
            dQ = (float(grad @ (cand - z)) + 0.5 * float(Adx @ Adx))
            if dQ < 0.0:
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            mon.notes.append("projection backtracking stalled")
            converged = kkt <= config.tol * lam
            break
        it += 1
        z, x = cand, x_cand
        if it % _REFRESH_EVERY == 0:
            r = A @ x - b
        else:
            r = r + Adx
        grad_x = A.T @ r
        F_cur = 0.5 * float(r @ r) + lam * float(np.sum(np.abs(x)))
        mon.record(it, F_cur, float(np.linalg.norm(r)), x)
        if observer is not None:
            observer(SplitIterate(z.copy()))
        if mon.rule_met(x, F_cur,
                        lambda: kkt_from_correlation(x, -grad_x, lam)):
            return mon.result(x, it, True)
    if not converged:
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
    if lam is None:
        lam = config.resolved_lambda(P)
    if not lam > 0:
        raise ValueError("lambda must be positive")
    mon = Monitor(config, b, P.ground_truth)
    if float(np.max(np.abs(A.T @ b))) == 0.0:
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
