"""Solution-path solver for the lambda-parameterized l1 problem.

Follows the piecewise-linear path of minimizers of
    F(x) = 1/2 ||b - A x||^2 + lambda ||x||_1
from lambda = ||A^T b||_inf down to a target value (0 reaches the
equality-constrained solution on recoverable instances). The active-set
Gram factor is maintained by rank-1 Cholesky updates, so each breakpoint
costs O(d^2 + d n).
"""

import numpy as np

from ell1 import numerics
from ell1.exceptions import DegenerateSupportError, NotPositiveDefiniteError
from ell1.model import Monitor, kkt_from_correlation
from ell1.operators import as_operator

_TIE = 1e-12          # gamma tie window relative to lambda; removal wins in it
_MIN_STEP_REL = 1e-10  # guards against zero-length re-add cycles


def _solve_direction(chol, D, support, sgn):
    """Direction on the support: (D_I^T D_I) d = sgn. Returns d, the factor
    it came from and v = D_I d. Falls back to a dense refactorization when
    the maintained factor has drifted; raises DegenerateSupportError when
    the Gram stays singular."""
    if not support:
        return np.zeros(0), chol, np.zeros(D.shape[0])
    d_I = chol.solve(sgn)
    v = D.apply_columns(support, d_I)
    gram_d = D.columns_dot(support, v)
    tol = 1e-6 * max(1.0, float(np.linalg.norm(sgn)))
    if np.linalg.norm(gram_d - sgn) <= tol:
        return d_I, chol, v
    # drifted or singular: dense refactorization
    G = _support_gram(D, support)
    try:
        fresh = numerics.chol_factor(G)
    except NotPositiveDefiniteError as exc:
        raise DegenerateSupportError("active-set Gram is singular") from exc
    d_I = fresh.solve(sgn)
    if np.linalg.norm(G @ d_I - sgn) > tol:
        raise DegenerateSupportError("active-set Gram solve failed")
    return d_I, fresh, D.apply_columns(support, d_I)


def _gammas(lam, c, x, d, w, support_mask):
    """Step lengths to the next add event (off support: |c - gamma w| hits
    lambda - gamma) and remove event (on support: x + gamma d crosses 0)."""
    off = ~support_mask
    gamma_plus, i_plus = np.inf, -1
    if np.any(off):
        idx = np.nonzero(off)[0]
        co, wo = c[idx], w[idx]
        with np.errstate(divide="ignore", invalid="ignore"):
            r1 = (lam - co) / (1.0 - wo)
            r2 = (lam + co) / (1.0 + wo)
        floor = _MIN_STEP_REL * max(lam, 1e-30)
        for ratios in (r1, r2):
            ok = np.isfinite(ratios) & (ratios > floor)
            if np.any(ok):
                j = int(np.argmin(np.where(ok, ratios, np.inf)))
                if ratios[j] < gamma_plus:
                    gamma_plus, i_plus = float(ratios[j]), int(idx[j])
    gamma_minus, i_minus = np.inf, -1
    sup = np.nonzero(support_mask)[0]
    if sup.size:
        with np.errstate(divide="ignore", invalid="ignore"):
            r = -x[sup] / d[sup]
        ok = np.isfinite(r) & (r > 0)
        if np.any(ok):
            j = int(np.argmin(np.where(ok, r, np.inf)))
            gamma_minus, i_minus = float(r[j]), int(sup[j])
    return gamma_plus, i_plus, gamma_minus, i_minus


def _support_gram(D, support):
    """The active-set Gram D_I^T D_I, one column per support entry."""
    G = np.empty((len(support), len(support)))
    for col, j in enumerate(support):
        G[:, col] = D.gram_column(support, j)
    return G


def _ridge_factor(D, support, notes):
    G = _support_gram(D, support)
    G[np.diag_indices_from(G)] += 1e-12 * max(np.trace(G), 1.0)
    if "ridge-regularized gram" not in notes:
        notes.append("ridge-regularized gram")
    return numerics.chol_factor(G)


def homotopy_solve(P, config, observer=None):
    """Run the path of instance P down to config's weight.

    Each loop pass handles one breakpoint and records it; budget
    exhaustion returns the best iterate unconverged. An event's weight is
    the path weight at its breakpoint and its state holds support (the
    active columns, in factor order), c (the correlations A^T (b - A x))
    and chol (the maintained factor of the active-set Gram).
    config.stopping is checked at every breakpoint, with the kkt residual
    at the target weight in its kkt slot. config.lam = 0 follows the path
    to the equality-constrained solution.
    """
    D = as_operator(P.A)
    b = P.b
    c = D.adjoint(b)
    target_lambda = config.resolved_lambda(c)
    _, n = D.shape
    mon = Monitor(config, b, P.ground_truth, observer)
    x = np.zeros(n)
    lam0 = float(np.max(np.abs(c))) if n else 0.0

    def record(it, lam, res_norm):
        obj = 0.5 * res_norm ** 2 + lam * float(np.sum(np.abs(x)))
        mon.record(it, obj, res_norm, x, lam, support=support, c=c,
                   chol=chol)
        return obj

    def residual():
        return b - D.apply_columns(support, x[support])

    if lam0 <= target_lambda or lam0 == 0.0:
        # zero is already optimal at the target
        return mon.trivial(n, target_lambda)

    lam = lam0
    j0 = int(np.argmax(np.abs(c)))
    support = [j0]
    chol = numerics.chol_append(numerics.CholFactor(np.zeros((0, 0))),
                                np.zeros(0), float(D.gram_column([j0], j0)[0]))
    mask = np.zeros(n, dtype=bool)
    mask[j0] = True
    converged = False
    it = 0
    finish_floor = max(target_lambda, 1e-12 * lam0)

    while it < config.max_iter:
        it += 1
        sgn = np.sign(c[support])
        try:
            d_I, chol, v = _solve_direction(chol, D, support, sgn)
        except DegenerateSupportError:
            chol = _ridge_factor(D, support, mon.notes)
            d_I = chol.solve(sgn)
            v = D.apply_columns(support, d_I)
        w = D.adjoint(v)
        dfull = np.zeros(n)
        dfull[support] = d_I
        g_plus, i_plus, g_minus, i_minus = _gammas(lam, c, x, dfull, w, mask)
        g_event = min(g_plus, g_minus)
        cap = lam - target_lambda

        if cap <= g_event:
            x[support] += cap * d_I
            lam = target_lambda
            r = residual()
            c = D.adjoint(r)
            record(it, lam, float(np.linalg.norm(r)))
            converged = True
            break

        remove = g_minus <= g_plus + _TIE * lam  # tie goes to removal
        gamma = g_minus if remove else g_plus
        x[support] += gamma * d_I
        if remove:
            pos = support.index(i_minus)
            x[i_minus] = 0.0
            support.pop(pos)
            mask[i_minus] = False
            chol = numerics.chol_delete(chol, pos)
        else:
            gcol = D.gram_column(support, i_plus)
            diag = float(D.gram_column([i_plus], i_plus)[0])
            try:
                chol = numerics.chol_append(chol, gcol, diag)
                support.append(i_plus)
            except NotPositiveDefiniteError:
                support.append(i_plus)
                chol = _ridge_factor(D, support, mon.notes)
            mask[i_plus] = True
        # fresh correlations each breakpoint: O(dn), same class as the step
        r = residual()
        c = D.adjoint(r)
        lam_step = lam - gamma
        lam_emp = float(np.max(np.abs(c)))
        # derived lambda must match the correlation max; repair any drift
        # (with an empty support the max sits strictly below the path value)
        if abs(lam_emp - lam_step) <= 1e-9 * max(lam_step, 1e-30) or not support:
            lam = lam_step
        else:
            lam = lam_emp
        obj = record(it, lam, float(np.linalg.norm(r)))
        if lam <= finish_floor or mon.rule_met(
                x, obj, lambda: kkt_from_correlation(x, c, target_lambda)):
            converged = True
            break

    return mon.result(x, it, converged)
