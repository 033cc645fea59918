"""Primal-dual interior-point solver for equality-constrained l1 recovery.

The signed problem min ||x||_1 s.t. A x = b becomes a standard-form LP by
splitting x into nonnegative parts: minimize 1'v subject to [A, -A] v = b,
v >= 0. Each iteration takes Mehrotra's predictor-corrector step (Mehrotra,
1992): an affine predictor aimed at mu = 0 sets the centering weight
sigma = min(mu_aff / mu, 1)^3 of a corrector that also cancels the
predictor's second-order term. Eliminating the slack block leaves one
d x d weighted normal matrix A diag(w) A^T, formed and factored once per
iteration and solved twice. The dictionary forms it as one symmetric
rank-n product B B^T with B = A diag(sqrt(w)), exactly symmetric, and
numerics.chol_factor factors its lower triangle with LAPACK potrf. With
the two residuals an iteration takes seven products: the Gram and six
with A. A corrector that cannot lower mu gives way to the plain
centering step.
"""

import numpy as np

from ell1 import numerics
from ell1.exceptions import IllConditionedError, NotPositiveDefiniteError
from ell1.model import Monitor
from ell1.operators import as_operator

_FEAS_TOL = 1e-8
_GAP_TOL = 1e-6
_STALLED = "stopped on stalled duality measure"


def _factor_with_jitter(M):
    """Solver for M x = r by Cholesky, of M plus a small multiple of I when
    M is numerically singular; that one refines its answer once against M,
    since its error would reappear in the primal residual of the step."""
    try:
        return numerics.chol_factor(M).solve
    except NotPositiveDefiniteError:
        # M is normalized by mu, so this floor is unit-free too
        jitter = 1e-12 * max(np.trace(M) / M.shape[0], 1.0)
        try:
            factor = numerics.chol_factor(M + jitter * np.eye(M.shape[0]))
        except NotPositiveDefiniteError as exc:
            raise IllConditionedError("weighted normal matrix is singular") from exc

    def refined(r):
        x = factor.solve(r)
        return x + factor.solve(r - M @ x)
    return refined


def _eliminate(z, w, rp, rd, rc, mu, solve, apply_ext, adjoint_ext):
    """Solve the three-block Newton system by eliminating dz then dv; w is
    v / z and solve inverts the normal matrix weighted by w / mu."""
    rhs = rp - apply_ext(rc / z - w * rd)
    dy = solve(rhs / mu)
    dz = rd - adjoint_ext(dy)
    dv = rc / z - w * dz
    return dv, dy, dz


def _damped_step(v, y, z, mu, dv, dy, dz):
    """The fraction-to-boundary step, halved until the duality measure
    drops: the new (v, y, z, mu), or None when 40 halvings do not do it."""
    alpha_p = numerics.fraction_to_boundary(v, dv)
    alpha_d = numerics.fraction_to_boundary(z, dz)
    for _ in range(40):
        v_new = v + alpha_p * dv
        z_new = z + alpha_d * dz
        mu_new = float(v_new @ z_new) / v.shape[0]
        if mu_new < mu:
            return v_new, y + alpha_d * dy, z_new, mu_new
        alpha_p *= 0.5
        alpha_d *= 0.5
    return None


def pdipa_solve(P, config, observer=None):
    """Interior-point solve of min ||x||_1 s.t. A x = b.

    Starts from v = (||b||_1 / d) 1, z = 1, y = 0 and stops when
    ||b - A x|| <= 1e-8 ||b||, ||1 - [A, -A]^T y - z|| <= 1e-8 sqrt(2n) and
    1'v - b'y <= min(tol, 1e-6) |1'v| all hold, so a run on s b, s a power
    of two, is bitwise the run on b with v scaled by s. Each iteration
    forms and factors one weighted Gram and solves with the factor twice,
    predictor and corrector.

    Returns the recombined signed estimate. Each iteration reports and
    tests its start point before stepping, so the first event is the start
    of the solve and the last one the returned estimate; the
    observer's event state holds v (the split primal, length 2n, > 0), y,
    z (> 0), mu = v'z / (2n) and sigma, the centering weight of the step
    that produced the iterate (None at the start). The stopping-rule kkt
    slot carries the relative primal residual ||b - A x|| / ||b||.
    """
    D, b = as_operator(P.A), P.b
    d, n = D.shape
    mon = Monitor(config, b, P.ground_truth, observer)
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return mon.trivial(n)

    two_n = 2 * n
    v = np.full(two_n, float(np.sum(np.abs(b))) / d)
    y = np.zeros(d)
    z = np.ones(two_n)
    mu = float(v @ z) / two_n
    sigma = None
    gap_tol = min(config.tol, _GAP_TOL)

    def apply_ext(u):
        return D.apply(u[:n] - u[n:])

    def adjoint_ext(r):
        Atr = D.adjoint(r)
        return np.concatenate([Atr, -Atr])

    converged = False
    it = 0
    while True:
        rp = b - apply_ext(v)
        rd = 1.0 - adjoint_ext(y) - z
        obj = float(np.sum(v))
        gap = obj - float(b @ y)
        rp_norm = float(np.linalg.norm(rp))
        x_signed = v[:n] - v[n:]
        mon.record(it, obj, rp_norm, x_signed, v=v, y=y, z=z, mu=mu,
                   sigma=sigma)
        if ((rp_norm <= _FEAS_TOL * b_norm
                and np.linalg.norm(rd) <= _FEAS_TOL * np.sqrt(two_n)
                and gap <= gap_tol * abs(obj))
                or mon.rule_met(x_signed, obj, rp_norm / b_norm)):
            converged = True
            break
        if it == config.max_iter:
            mon.notes.append("iteration budget exhausted")
            break
        if not mu > 0.0:
            mon.notes.append(_STALLED)
            break
        it += 1
        w = v / z
        try:
            # [A,-A] folds onto one d x d block
            solve = _factor_with_jitter(
                D.weighted_gram_dd((w[:n] + w[n:]) / mu))
        except IllConditionedError:
            mon.notes.append("stopped on ill-conditioned normal matrix")
            break
        # a step that overflows ends the run at the finiteness tests below
        with np.errstate(over="ignore", invalid="ignore"):
            # predictor: the affine step aimed at mu = 0
            dv, _, dz = _eliminate(z, w, rp, rd, -v * z, mu, solve,
                                   apply_ext, adjoint_ext)
            a_p = numerics.fraction_to_boundary(v, dv, 1.0)
            a_d = numerics.fraction_to_boundary(z, dz, 1.0)
            mu_aff = float((v + a_p * dv) @ (z + a_d * dz)) / two_n
            if not np.isfinite(mu_aff):
                mon.notes.append(_STALLED)
                break
            sigma = min(mu_aff / mu, 1.0) ** 3
            rc = sigma * mu - v * z
            # corrector: aim at sigma mu and cancel the predictor's dv dz
            step = _eliminate(z, w, rp, rd, rc - dv * dz, mu, solve,
                              apply_ext, adjoint_ext)
        if not all(np.all(np.isfinite(u)) for u in step):
            mon.notes.append("stopped on non-finite step")
            break
        new = _damped_step(v, y, z, mu, *step)
        if new is None:
            # with unequal primal and dual lengths the second-order term
            # can keep mu from falling; plain centering takes its place
            new = _damped_step(v, y, z, mu, *_eliminate(
                z, w, rp, rd, rc, mu, solve, apply_ext, adjoint_ext))
        if new is None:
            mon.notes.append(_STALLED)
            break
        v, y, z, mu = new

    return mon.result(v[:n] - v[n:], it, converged)
