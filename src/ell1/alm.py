"""Multiplier-method solvers for equality-constrained l1 minimization.

Both solvers target min ||x||_1 subject to A x = b. palm_solve attacks the
primal with an outer multiplier loop under a penalty that grows
geometrically from mu0 = 1.25 d / ||b||_1. Its inner subproblems are
inexact accelerated prox-gradient solves on fista's step (the same
Lipschitz search and uphill restart), run by shrinkage._Accel.solve in
buffers that hold x and its residual across the outer steps.
dalm_solve runs the three-step dual iteration (box projection, row-Gram
least squares, multiplier update) on the orthonormalized rows
R^{-T} A, built once per problem from the factor A A^T = R^T R, so that
the least-squares step is a product and the loop never touches A: two
products with the basis per step, and one more every 64 steps to measure
the roundoff drift of the constraint. The basis sits in rows that start
on 64-byte lines (numerics.padded_rows), so the speed of its BLAS
products does not hang on the address numpy's allocator picks, and the
step runs in place in preallocated vectors.
Rule of thumb: the dual solver wins when d is much smaller than n, the
primal one when the dictionary is tall.
"""

import numpy as np

from ell1.exceptions import (IllConditionedError, NotPositiveDefiniteError,
                             NumericalBreakdownError)
from ell1.gradient_projection import _REFRESH_EVERY
from ell1.model import Monitor
from ell1.numerics import (_lower_solve, chol_factor, padded_rows,
                           project_box_linf)
from ell1.operators import as_operator
from ell1.shrinkage import L0, _Accel

_INNER_CAP = 200       # inner steps per outer step of the multiplier loops
MU0_SCALE = 1.25       # their starting penalty, in units of d / ||b||_1
RHO = 2.0              # their per-outer-iteration penalty growth factor
_STALL_STEPS = 10      # palm outer steps without a lower residual: infeasible
_STALL_FLOOR = 1e3     # residuals below this many eps ||b|| never stall


def palm_solve(P, config, observer=None):
    """Primal multiplier loop with inexact prox-gradient inner solves.

    Every outer iteration minimizes the penalized Lagrangian
    1/2 ||A x - b - y/mu||^2 + ||x||_1 / mu in x with an inner solve
    (shrinkage._Accel.solve) from the last x, to
    ||dx|| <= 1e-2 (mu0 / mu) ||x|| or _INNER_CAP (200) steps, each search
    starting where the last one ended (at shrinkage.L0 first), then takes
    y <- y + mu (b - A x) and grows mu by RHO (2) from
    mu0 = MU0_SCALE d / ||b||_1, so b -> s b gives s x in the same steps
    for s a power of 2. Converges when ||b - A x|| <= config.tol ||b||;
    iterations counts inner steps, capped by config.max_iter. The start
    point and every outer iteration give one event each; its state holds
    mu (mu0 at the start) and the inner solve's inner_steps, trials
    (search trials) and restarts (0 at the start). The stopping-rule kkt
    slot carries the relative primal residual. A residual norm stuck
    above its minimum, and that above 1e3 eps ||b||, for _STALL_STEPS
    (10) outer steps (b outside the range of A), or a non-finite
    multiplier or residual, raises NumericalBreakdownError. Products: 1
    per search trial and per inner step, 2 per outer step (A^T r, b - A x).
    """
    D, b = as_operator(P.A), P.b
    n = P.n
    mon = Monitor(config, b, P.ground_truth, observer)
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return mon.trivial(n)
    mu = mu0 = MU0_SCALE * P.d / float(np.sum(np.abs(b)))
    acc = _Accel(D, n, P.d, L0)
    x = acc.x
    Ax, y = np.zeros(P.d), np.zeros(P.d)
    mon.record(0, 0.0, b_norm, x, mu=mu, inner_steps=0, trials=0,
               restarts=0)
    it = 0
    converged = False
    best_res, stalled = b_norm, 0
    floor = _STALL_FLOOR * np.finfo(np.float64).eps * b_norm
    while it < config.max_iter:
        # inner problem: 1/2 ||A x - (b + y/mu)||^2 + ||x||_1 / mu
        np.subtract(Ax, b + y / mu, out=acc.r)
        steps, trials, restarts = acc.solve(
            1.0 / mu, 1e-2 * mu0 / mu, min(_INNER_CAP, config.max_iter - it))
        it += steps
        x = acc.x
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
    return mon.result(x.copy(), it, converged)


def _row_basis(D):
    """Factor R of the row Gram A A^T = R^T R and the rows Q^T = R^{-T} A.

    Q^T has orthonormal rows. It is taken through the adjoint of the
    operator D, as (A^T R^{-1})^T, so an implicit dictionary needs no
    dense form: two dictionary products, the Gram and A^T R^{-1}.
    The transposing copy writes Q^T into numerics.padded_rows: its first
    element and every row start on a 64-byte line, where numpy's
    allocator leaves the base address, and with it the speed of BLAS
    products, to chance. The values, and so the products, are those of
    the contiguous copy.
    """
    try:
        R = chol_factor(D.gram_dd()).R
    except NotPositiveDefiniteError as exc:
        raise IllConditionedError(
            "row Gram A A^T is not positive definite; the dual solver "
            "needs full row rank") from exc
    R_inv = _lower_solve(R.T, np.eye(R.shape[0]), 1)
    Qt = D.adjoint(R_inv).T
    out = padded_rows(*Qt.shape)
    out[...] = Qt
    return R, out


def dalm_solve(P, config, observer=None):
    """Dual three-step iteration: project, least-squares, multiplier.

    Per iteration: z <- clamp(A^T y + x/beta) onto the unit l-inf ball,
    y from the row-Gram least-squares step
    beta A A^T y = beta A z - (A x - b), then x <- x - beta (z - A^T y).
    Set-up factors A A^T = R^T R and builds the orthonormal rows
    Q^T = R^{-T} A and u = R^{-T} b, so that A x = b is Q^T x = u and,
    with v = R y, A^T y = Q v and the least-squares step is a product:
    v = Q^T z - (Q^T x - u)/beta, and b'y = u'v. Since Q^T Q = I, that
    step sets Q^T x = u, so the drift Q^T x - u is roundoff alone: it is
    measured (one product Q^T x) at iteration 1 and every _REFRESH_EVERY
    (64) steps, fed into the next v, and taken as zero in between. Each
    iteration takes two products with Q^T (Q^T z and Q v), plus one per
    refresh, which also gives the screened residual ||R^T (u - Q^T x)||
    from one d x d product with R^T; between refreshes the loop touches
    neither A, R nor the Gram. Set-up takes two dictionary products (the
    Gram and A^T R^{-1}) and a d x d triangular inverse; a non-finite Q^T
    or u raises IllConditionedError. Q^T sits in padded, 64-byte-aligned
    rows (_row_basis), and the step writes z, Aty and x into aligned
    preallocated vectors (x alternating with x_prev) with the float
    operations of the plain formulas in their order, so the layout moves
    the speed and not the answers.
    The penalty beta = ||b||_1 / d carries the units of x, so the
    iterates scale with b and the iteration count does not.
    Converges when ||b - A x|| <= config.tol ||b|| and the duality gap
    against the box-scaled multiplier, ||x||_1 - b'y / max(1, ||A'y||_inf),
    is within config.tol of zero relative to ||x||_1; by weak duality that
    certifies the l1 value itself. The screened residual only screens:
    an iteration that can end the solve (the gap test and the last
    measured residual pass, the budget is spent, or config.stopping is
    set) takes the product b - A x, and reports and tests that value.
    The start point and every iteration give one event each. An event's
    residual_norm is the last measured one, from a refresh or from
    b - A x, so the final event holds the true ||b - A x_star||. An
    event's state holds y (solved from v only when an observer is set),
    z (inside the unit l-inf ball), Aty, the A^T y = Q v the step used,
    and x_prev, the x the iteration started from (x itself at the start
    point). The stopping-rule kkt slot carries the relative primal
    residual. An unwatched iteration (no observer, no rule) makes no
    record or rule call, as in gpsr, ist and fista.
    """
    D, b = as_operator(P.A), P.b
    n = P.n
    mon = Monitor(config, b, P.ground_truth, observer)
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return mon.trivial(n)
    beta = float(np.sum(np.abs(b))) / P.d
    R, Qt = _row_basis(D)
    u = _lower_solve(R.T, b, 0)
    if not (np.all(np.isfinite(Qt)) and np.all(np.isfinite(u))):
        raise IllConditionedError(
            "orthonormal row basis R^{-T} A or R^{-T} b is not finite")
    # the step runs in place: x and x_prev swap buffers every step, and
    # w holds beta (z - Aty), then |x| and |Aty|
    x, x_prev, z, w, Aty = padded_rows(5, n)
    drift = -u  # Q^T x - u at x = 0
    res_norm = b_norm
    mon.record(0, 0.0, res_norm, x, y=np.zeros(P.d), z=z, x_prev=x, Aty=Aty)
    it = 0
    converged = False
    while it < config.max_iter:
        np.divide(x, beta, out=z)
        np.add(Aty, z, out=z)
        project_box_linf(z, out=z)
        v = Qt @ z
        if drift is not None:
            v -= drift / beta
        x_prev, x = x, x_prev
        np.matmul(Qt.T, v, out=Aty)
        np.subtract(z, Aty, out=w)
        np.multiply(beta, w, out=w)
        np.subtract(x_prev, w, out=x)
        it += 1
        # the step sets Q^T x = u up to roundoff, so the drift is measured
        # only every _REFRESH_EVERY steps and taken as zero in between
        if it == 1 or it % _REFRESH_EVERY == 0:
            drift = Qt @ x - u
            res_norm = float(np.linalg.norm(R.T @ drift))
        else:
            drift = None
        l1 = float(np.add.reduce(np.abs(x, out=w)))
        # certified gap: y scaled into the dual box bounds the optimum
        # from below, so l1 minus the bound brackets the suboptimality
        scale = max(1.0, float(np.maximum.reduce(np.abs(Aty, out=w))))
        gap_ok = l1 - float(u.dot(v)) / scale <= config.tol * l1
        done = gap_ok and res_norm / b_norm <= config.tol
        if done or it == config.max_iter or config.stopping is not None:
            res_norm = float(np.linalg.norm(b - D.apply(x)))
            done = gap_ok and res_norm / b_norm <= config.tol
        if mon.watched:
            y = _lower_solve(R.T, v, 1) if observer is not None else None
            mon.record(it, l1, res_norm, x, y=y, z=z, x_prev=x_prev, Aty=Aty)
            done = done or mon.rule_met(x, l1, res_norm / b_norm)
        if done:
            converged = True
            break
    if not converged and it >= config.max_iter:
        mon.notes.append("iteration budget exhausted")
    return mon.result(x, it, converged)
