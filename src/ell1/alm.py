"""Multiplier-method solvers for equality-constrained l1 minimization.

Both solvers target min ||x||_1 subject to A x = b. palm_solve attacks the
primal with an outer multiplier loop whose inner subproblems are inexact
accelerated shrinkage solves under a geometrically growing penalty.
dalm_solve runs the three-step dual iteration (box projection, row-Gram
least squares, multiplier update) with A A^T factored once per problem.
Rule of thumb: the dual solver wins when d is much smaller than n, the
primal one when the dictionary is tall.
"""

from dataclasses import dataclass

import numpy as np

from ell1.exceptions import (IllConditionedError, NotPositiveDefiniteError,
                             NumericalBreakdownError)
from ell1.model import Monitor
from ell1.numerics import (CholFactor, chol_factor, project_box_linf,
                           soft_threshold, spectral_norm_sq)

_INNER_CAP = 200       # inner shrinkage iterations per outer multiplier step
_Y_REFINE_TOL = 1e-10  # relative residual contract of the dual y-step
MU0 = 1.0              # starting penalty weight of the primal multiplier loops
RHO = 2.0              # their per-outer-iteration penalty growth factor
_STALL_STEPS = 10      # palm outer steps without a lower residual: infeasible
_STALL_FLOOR = 1e3     # residuals below this many eps ||b|| never stall


@dataclass
class AlmState:
    """Primal multiplier-loop state.

    tau is the penalty-free curvature bound (largest eigenvalue of A^T A,
    slightly inflated); the inner shrinkage step length is 1/tau and the
    penalty weight mu grows by the fixed factor rho every outer iteration.
    """

    x: np.ndarray
    y: np.ndarray
    mu: float
    rho: float
    tau: float

    def __post_init__(self):
        if not self.mu > 0 or not self.tau > 0:
            raise ValueError("mu and tau must be positive")
        if not self.rho > 1:
            raise ValueError("rho must exceed 1")


@dataclass
class DalmState:
    """Dual three-step iteration state.

    x doubles as the multiplier of the dual constraint z = A^T y and as
    the running primal estimate; z stays inside the unit l-inf ball by
    construction; gram_chol holds the once-computed factor of A A^T.
    """

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    beta: float
    gram_chol: CholFactor

    def __post_init__(self):
        if not self.beta > 0:
            raise ValueError("beta must be positive")
        if float(np.max(np.abs(self.z))) > 1.0:
            raise ValueError("z must lie in the unit l-inf ball")


def _inner_shrinkage(A, x, b_eff, shrink, tau, tol_rel, cap):
    """Accelerated proximal descent on tau/2-scaled penalty least squares.

    Minimizes shrink*tau*||x||_1/tau ... concretely: the l1 weight of the
    subproblem is shrink*tau and the gradient step length 1/tau. Stops on
    relative iterate change <= tol_rel or after cap steps. Returns the new
    iterate and the number of steps taken (at least one).
    """
    t_prev = 1.0
    x_prev = x
    y_vec = x
    steps = 0
    for _ in range(cap):
        grad = A.T @ (A @ y_vec - b_eff)
        x_new = soft_threshold(y_vec - grad / tau, shrink)
        steps += 1
        t_new = 0.5 * (1.0 + np.sqrt(4.0 * t_prev * t_prev + 1.0))
        y_vec = x_new + ((t_prev - 1.0) / t_new) * (x_new - x_prev)
        change = float(np.linalg.norm(x_new - x_prev))
        x_prev, t_prev = x_new, t_new
        if change <= tol_rel * max(1.0, float(np.linalg.norm(x_new))):
            break
    return x_prev, steps


def palm_solve(P, config, observer=None):
    """Primal multiplier loop with inexact shrinkage inner solves.

    Every outer iteration minimizes the penalized Lagrangian in x (at
    most 200 accelerated shrinkage steps, inner tolerance 1e-2/mu), then
    takes the multiplier ascent step y <- y + mu (b - A x) and grows
    mu <- rho mu, from mu = MU0 = 1 with rho = RHO = 2.
    Converges when ||b - A x|| <= config.tol ||b||; iterations counts
    inner steps, and config.max_iter caps that total. observer, when
    given, receives the AlmState after every outer iteration. The
    stopping-rule kkt slot carries the relative primal residual. A
    residual norm stuck above its minimum, and that above 1e3 eps ||b||,
    for _STALL_STEPS (10) outer steps (b outside the range of A), or a
    non-finite multiplier or residual, raises NumericalBreakdownError.
    """
    A, b = P.A, P.b
    n = P.n
    mon = Monitor(config, b, P.ground_truth)
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return mon.trivial(n, penalized=False)
    mu = MU0
    if hasattr(A, "norm_sq"):
        tau = 1.01 * A.norm_sq()
    else:
        tau = 1.01 * spectral_norm_sq(A)
    x = np.zeros(n)
    y = np.zeros(P.d)
    mon.record(0, 0.0, b_norm, x)
    it = 0
    converged = False
    best_res, stalled = b_norm, 0
    floor = _STALL_FLOOR * np.finfo(np.float64).eps * b_norm
    while it < config.max_iter:
        # inner problem: mu/2 ||A x - (b + y/mu)||^2 + ||x||_1, scaled by
        # 1/mu so the gradient step keeps the 1/tau length
        b_eff = b + y / mu
        x, steps = _inner_shrinkage(A, x, b_eff, 1.0 / (mu * tau), tau,
                                    1e-2 / mu, min(_INNER_CAP,
                                                   config.max_iter - it))
        it += steps
        r = b - A @ x
        res_norm = float(np.linalg.norm(r))
        y = y + mu * r
        if not (np.isfinite(res_norm) and np.all(np.isfinite(y))):
            raise NumericalBreakdownError(
                "multiplier or residual became non-finite at mu = %g" % mu)
        l1 = float(np.sum(np.abs(x)))
        mon.record(it, l1, res_norm, x)
        if observer is not None:
            observer(AlmState(x.copy(), y.copy(), mu, RHO, tau))
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


def _gram_factor(A):
    """Row Gram A A^T and its Cholesky factor."""
    gram = A.gram_dd() if hasattr(A, "gram_dd") else A @ A.T
    try:
        return gram, chol_factor(gram)
    except NotPositiveDefiniteError as exc:
        raise IllConditionedError(
            "row Gram A A^T is not positive definite; the dual solver "
            "needs full row rank") from exc


def dual_y_solve(state, gram, Az, Ax, b):
    """Least-squares multiplier step of the dual iteration.

    Solves beta G y = beta A z_next - (A x - b) through the cached factor
    of the row Gram G = A A^T, with one refinement pass. The caller passes
    the products Az = A z_next and Ax = A state.x, and the residual is
    measured against G itself, so the step takes no dictionary product.
    The result is certified to relative residual 1e-10, or
    IllConditionedError is raised; a non-finite residual fails the
    certificate.
    """
    rhs = Az - (Ax - b) / state.beta
    bound = _Y_REFINE_TOL * max(1.0, float(np.linalg.norm(rhs)))
    y = state.gram_chol.solve(rhs)
    resid = rhs - gram @ y
    res = float(np.linalg.norm(resid))
    if np.isfinite(res) and res > bound:
        y = y + state.gram_chol.solve(resid)
        res = float(np.linalg.norm(rhs - gram @ y))
    if not res <= bound:
        raise IllConditionedError(
            "dual least-squares step failed its residual contract")
    return y


def dalm_solve(P, config, observer=None):
    """Dual three-step iteration: project, least-squares, multiplier.

    Per iteration: z <- clamp(A^T y + x/beta) onto the unit l-inf ball,
    y from the row-Gram least-squares step, then x <- x - beta (z - A^T y).
    Each iteration takes three dictionary products, A z, A^T y and A x,
    plus one solve with the factor of A A^T; A^T y and A x carry over to
    the next iteration, and the y-step certificate uses the cached Gram.
    Setup takes three more: A A^T and the products of the zero start.
    beta defaults to 1 (option "beta").
    Converges when ||b - A x|| <= config.tol ||b|| and the duality gap
    against the box-scaled multiplier, ||x||_1 - b'y / max(1, ||A'y||_inf),
    is within config.tol of zero relative to max(1, ||x||_1); by weak
    duality that certifies the l1 value itself. observer, when given,
    receives (state, x_prev) after every iteration. The stopping-rule kkt
    slot carries the relative primal residual.
    """
    A, b = P.A, P.b
    n = P.n
    mon = Monitor(config, b, P.ground_truth)
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return mon.trivial(n, penalized=False)
    beta = float(config.opt("beta", 1.0))
    if not beta > 0:
        raise ValueError("beta must be positive")
    gram, chol = _gram_factor(A)
    state = DalmState(np.zeros(n), np.zeros(P.d), np.zeros(n), beta, chol)
    Aty = A.T @ state.y
    Ax = A @ state.x
    mon.record(0, 0.0, b_norm, state.x)
    it = 0
    converged = False
    while it < config.max_iter:
        z = project_box_linf(Aty + state.x / beta)
        Az = A @ z
        y = dual_y_solve(state, gram, Az, Ax, b)
        x_prev = state.x
        Aty = A.T @ y
        x = x_prev - beta * (z - Aty)
        # z is in the box by projection; skip DalmState's rescan of it
        state.x, state.y, state.z = x, y, z
        it += 1
        Ax = A @ x
        r = b - Ax
        res_norm = float(np.linalg.norm(r))
        l1 = float(np.sum(np.abs(x)))
        mon.record(it, l1, res_norm, x)
        if observer is not None:
            observer(DalmState(x, y, z, beta, chol), x_prev)
        rel = res_norm / b_norm
        # certified gap: y scaled into the dual box bounds the optimum
        # from below, so l1 minus the bound brackets the suboptimality
        scale = max(1.0, float(np.max(np.abs(Aty))))
        gap = l1 - float(b @ y) / scale
        if ((rel <= config.tol and gap <= config.tol * max(1.0, l1))
                or mon.rule_met(x, l1, rel)):
            converged = True
            break
    if not converged and it >= config.max_iter:
        mon.notes.append("iteration budget exhausted")
    return mon.result(state.x, it, converged)
