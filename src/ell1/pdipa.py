"""Primal-dual interior-point solver for equality-constrained l1 recovery.

The signed problem min ||x||_1 s.t. A x = b becomes a standard-form LP by
splitting x into nonnegative parts: minimize 1'v subject to [A, -A] v = b,
v >= 0. A damped Newton step on the perturbed complementarity conditions is
taken each iteration; eliminating the slack block reduces the linear algebra
to one d x d Cholesky solve of the weighted normal matrix.
"""

import numpy as np

from ell1 import numerics
from ell1.exceptions import IllConditionedError, NotPositiveDefiniteError
from ell1.model import Monitor
from ell1.operators import as_operator

_SIGMA = 0.1      # centering: target a tenth of the current duality measure
_FEAS_TOL = 1e-8
_GAP_TOL = 1e-6


def _factor_with_jitter(M):
    try:
        return numerics.chol_factor(M)
    except NotPositiveDefiniteError:
        jitter = 1e-12 * max(np.trace(M) / M.shape[0], 1.0)
        bumped = M + jitter * np.eye(M.shape[0])
        try:
            return numerics.chol_factor(bumped)
        except NotPositiveDefiniteError as exc:
            raise IllConditionedError("weighted normal matrix is singular") from exc


def _eliminate(x, z, rp, rd, rc, apply_ext, adjoint_ext, M):
    """Solve the three-block Newton system by eliminating dz then dx."""
    w = x / z
    rhs = rp - apply_ext(rc / z - w * rd)
    dy = _factor_with_jitter(M).solve(rhs)
    dz = rd - adjoint_ext(dy)
    dx = rc / z - w * dz
    return dx, dy, dz


def pdipa_solve(P, config, observer=None):
    """Interior-point solve of min ||x||_1 s.t. A x = b.

    Returns the recombined signed estimate. Each iteration records and
    tests its start point before stepping, so the first event is the start
    of the solve and the last one the returned estimate; the
    observer's event state holds v (the split primal, length 2n, > 0), y,
    z (> 0) and mu = v'z / (2n). The stopping-rule kkt slot carries the
    relative primal residual ||b - A x|| / ||b||.
    """
    D, b = as_operator(P.A), P.b
    d, n = D.shape
    mon = Monitor(config, b, P.ground_truth, observer)
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return mon.trivial(n)

    two_n = 2 * n
    c = np.ones(two_n)
    x = np.ones(two_n)
    y = np.zeros(d)
    z = np.ones(two_n)
    mu = float(x @ z) / two_n
    b_scale = max(1.0, b_norm)
    c_scale = 1.0 + np.sqrt(two_n)
    gap_tol = min(config.tol, _GAP_TOL)

    def apply_ext(u):
        return D.apply(u[:n] - u[n:])

    def adjoint_ext(v):
        Atv = D.adjoint(v)
        return np.concatenate([Atv, -Atv])

    converged = False
    it = 0
    while True:
        rp = b - apply_ext(x)
        rd = c - adjoint_ext(y) - z
        obj = float(c @ x)
        gap = obj - float(b @ y)
        rp_norm = float(np.linalg.norm(rp))
        x_signed = x[:n] - x[n:]
        mon.record(it, obj, rp_norm, x_signed, v=x, y=y, z=z, mu=mu)
        if ((rp_norm <= _FEAS_TOL * b_scale
                and np.linalg.norm(rd) <= _FEAS_TOL * c_scale
                and gap <= gap_tol * (1.0 + abs(obj)))
                or mon.rule_met(x_signed, obj, rp_norm / b_norm)):
            converged = True
            break
        if it == config.max_iter:
            break
        it += 1
        mu_hat = _SIGMA * mu
        rc = mu_hat - x * z
        w = x / z
        # [A,-A] folds onto one d x d block
        M = D.weighted_gram_dd(w[:n] + w[n:])
        try:
            dx, dy, dz = _eliminate(x, z, rp, rd, rc, apply_ext, adjoint_ext, M)
        except IllConditionedError:
            mon.notes.append("stopped on ill-conditioned normal matrix")
            break
        if not (np.all(np.isfinite(dx)) and np.all(np.isfinite(dy))
                and np.all(np.isfinite(dz))):
            mon.notes.append("stopped on non-finite step")
            break
        alpha_p = numerics.fraction_to_boundary(x, dx)
        alpha_d = numerics.fraction_to_boundary(z, dz)
        # keep the duality measure monotone: halve until it drops
        for _ in range(40):
            x_new = x + alpha_p * dx
            z_new = z + alpha_d * dz
            mu_new = float(x_new @ z_new) / two_n
            if mu_new < mu:
                break
            alpha_p *= 0.5
            alpha_d *= 0.5
        else:
            mon.notes.append("stopped on stalled duality measure")
            break
        x = x_new
        y = y + alpha_d * dy
        z = z_new
        mu = mu_new

    return mon.result(x[:n] - x[n:], it, converged)
