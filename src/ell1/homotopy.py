"""Solution-path solver for the lambda-parameterized l1 problem.

Follows the piecewise-linear path of minimizers of
    F(x) = 1/2 ||b - A x||^2 + lambda ||x||_1
from lambda = ||A^T b||_inf down to a target value (0 reaches the
equality-constrained solution on recoverable instances).

A breakpoint (Donoho and Tsaig, 2008) takes one adjoint w = A^T (D_I d_I)
and moves the correlations to c - gamma w; D_I d_I and two triangular
solves with the Gram factor of the active columns, kept in one block that
grows and shifts in place; and elementwise passes over c for the step
lengths. An add takes a Gram column and a third solve. Each step calls
the ufunc or LAPACK routine directly: numpy's Python-level wrappers cost
more than the arithmetic at these sizes. A fresh A^T r is taken every
_REFRESH (16) breakpoints to bound the drift of the update, and at every
breakpoint whose test can end the solve (the path reaching its floor, a
stopping rule, the last breakpoint of the budget), so each stop is
certified on fresh correlations. The residual r = b - D_I x_I is taken
only there, or at every breakpoint when the run is watched (an observer
or a stopping rule), whose objective and residual norm it feeds.
"""

import math

import numpy as np

from ell1 import numerics
from ell1.exceptions import NotPositiveDefiniteError
from ell1.model import Monitor, kkt_from_correlation
from ell1.operators import as_operator

_TIE = 1e-12          # gamma tie window relative to lambda; removal wins in it
_MIN_STEP_REL = 1e-10  # guards against zero-length re-add cycles
_REFRESH = 16         # breakpoints between fresh adjoints D^T r


class _ActiveSet:
    """The active columns D_I in factor order: their indices, their values
    in one F-ordered (d, cap) block whose capacity doubles when it fills,
    and chol, the Cholesky factor of their Gram D_I^T D_I. numpy lays a
    gather D[:, support] out in F order too, so a product with the block
    is the BLAS call a gather's product would be. add and remove change
    the three together; a Gram that is not positive definite is factored
    with a small ridge on its diagonal, noted once in notes.
    """

    def __init__(self, D, j0, notes):
        self._D = D
        self._notes = notes
        self._block = np.empty((D.shape[0], 16), order="F")
        self._idx = np.empty(16, dtype=np.intp)
        self.k = 0
        self.chol = numerics.CholFactor(np.zeros((0, 0)))
        self.add(j0)

    @property
    def support(self):
        return self._idx[:self.k]

    @property
    def cols(self):
        return self._block[:, :self.k]

    def add(self, j):
        """Append column j and extend the factor by its Gram column."""
        k = self.k
        if k == self._idx.shape[0]:
            block = np.empty((self._block.shape[0], 2 * k), order="F")
            block[:, :k] = self._block
            self._block = block
            self._idx = np.concatenate([self._idx, np.empty(k, np.intp)])
        self._block[:, k] = self._D.column(j)
        self._idx[k] = j
        self.k = k + 1
        g = self.cols.T @ self._block[:, k]
        try:
            self.chol = numerics.chol_append(self.chol, g[:-1], float(g[-1]))
        except NotPositiveDefiniteError:
            self._ridge()

    def remove(self, pos):
        """Drop the column at factor position pos, shifting the later
        ones left."""
        k = self.k
        self._block[:, pos:k - 1] = self._block[:, pos + 1:k]
        self._idx[pos:k - 1] = self._idx[pos + 1:k]
        self.k = k - 1
        self.chol = numerics.chol_delete(self.chol, pos)

    def direction(self, sgn):
        """(d_I, w): the solve of (D_I^T D_I) d_I = sgn and w = D^T (D_I d_I).

        When w on the support misses sgn, the maintained factor has
        drifted and the Gram is refactored densely; when that fails or its
        solve misses sgn too, the Gram is singular and gets the ridge.
        """
        if not self.k:
            return np.zeros(0), np.zeros(self._D.shape[1])
        d_I = self.chol.solve(sgn)
        w = self._D.adjoint(self.cols @ d_I)
        tol = 1e-6 * max(1.0, math.sqrt(sgn.dot(sgn)))
        miss = w[self.support] - sgn  # norms as sqrt(v . v), as numpy's
        if math.sqrt(miss.dot(miss)) <= tol:
            return d_I, w
        G = self.cols.T @ self.cols
        try:
            self.chol = numerics.chol_factor(G)
        except NotPositiveDefiniteError:
            solved = False
        else:
            d_I = self.chol.solve(sgn)
            solved = np.linalg.norm(G @ d_I - sgn) <= tol
        if not solved:
            self._ridge()
            d_I = self.chol.solve(sgn)
        return d_I, self._D.adjoint(self.cols @ d_I)

    def _ridge(self):
        G = self.cols.T @ self.cols
        G[np.diag_indices_from(G)] += 1e-12 * max(np.trace(G), 1.0)
        if "ridge-regularized gram" not in self._notes:
            self._notes.append("ridge-regularized gram")
        self.chol = numerics.chol_factor(G)


def _gammas(lam, c, w, x_I, d_I, support, ratio, den):
    """Step lengths to the next add event (off support: |c - gamma w| hits
    lambda - gamma) and remove event (on support: x_I + gamma d_I crosses
    0). The add ratios (lambda - c) / (1 - w) and (lambda + c) / (1 + w)
    fill the two rows of ratio, with den as scratch, so one flat argmin
    sends ties to lambda - c, then to the lower index. Ties between
    remove ratios go to the lower column index."""
    n = c.shape[0]
    floor = _MIN_STEP_REL * max(lam, 1e-30)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.subtract(lam, c, out=ratio[0])
        np.add(lam, c, out=ratio[1])
        np.subtract(1.0, w, out=den[0])
        np.add(1.0, w, out=den[1])
        np.divide(ratio, den, out=ratio)
        r = -x_I / d_I
    ratio[~(ratio > floor)] = math.inf
    ratio[0][support] = ratio[1][support] = math.inf
    j = int(ratio.argmin())
    gamma_plus = ratio.item(j)
    gamma_minus = float(np.minimum.reduce(r[r > 0], initial=math.inf))
    i_plus = j % n if gamma_plus < math.inf else -1
    i_minus = (-1 if gamma_minus == math.inf else int(np.minimum.reduce(
        support, initial=n, where=r == gamma_minus)))
    return gamma_plus, i_plus, gamma_minus, i_minus


def homotopy_solve(P, config, observer=None):
    """Run the path of instance P down to config's weight.

    Each loop pass handles one breakpoint and gives its event; budget
    exhaustion returns the best iterate unconverged. An event's weight is
    the path weight at its breakpoint and its state holds support (an
    intp array of the active columns, in factor order), c (the
    correlations A^T (b - A x), fresh at a refresh and at the last event,
    converged or not, updated to roundoff in between) and chol (the
    maintained factor of the active-set Gram).
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
    lam0 = float(np.maximum.reduce(np.abs(c))) if n else 0.0

    def record(it, lam, r):
        # only a watcher reads the objective, so only a watched run builds it
        if not mon.watched:
            return None
        res_norm = float(np.linalg.norm(r))
        obj = 0.5 * res_norm ** 2 + lam * float(np.sum(np.abs(x)))
        mon.record(it, obj, res_norm, x, lam, support=active.support, c=c,
                   chol=active.chol)
        return obj

    def residual():
        return b - active.cols @ x[active.support]

    def path_weight(lam_step):
        # derived lambda must match the correlation max; repair any drift
        # (with an empty support the max sits strictly below the path value)
        lam_emp = float(np.maximum.reduce(np.abs(c)))
        if (abs(lam_emp - lam_step) <= 1e-9 * max(lam_step, 1e-30)
                or not active.k):
            return lam_step
        return lam_emp

    if lam0 <= target_lambda or lam0 == 0.0:
        # zero is already optimal at the target
        return mon.trivial(n, target_lambda)

    lam = lam0
    j0 = int(np.abs(c).argmax())
    active = _ActiveSet(D, j0, mon.notes)
    ratio, den = np.empty((2, n)), np.empty((2, n))  # _gammas' buffers
    converged = False
    it = 0
    finish_floor = max(target_lambda, 1e-12 * lam0)

    while it < config.max_iter:
        it += 1
        support = active.support
        d_I, w = active.direction(np.sign(c[support]))
        g_plus, i_plus, g_minus, i_minus = _gammas(
            lam, c, w, x[support], d_I, support, ratio, den)
        g_event = min(g_plus, g_minus)
        cap = lam - target_lambda

        if cap <= g_event:
            x[support] += cap * d_I
            lam = target_lambda
            r = residual()
            c = D.adjoint(r)
            record(it, lam, r)
            converged = True
            break

        remove = g_minus <= g_plus + _TIE * lam  # tie goes to removal
        gamma = g_minus if remove else g_plus
        x[support] += gamma * d_I
        if remove:
            pos = int((support == i_minus).argmax())
            x[i_minus] = 0.0
            active.remove(pos)
        else:
            active.add(i_plus)
        # the step moved A x by gamma D_I d_I, so the correlations moved by
        # gamma w; a fresh D^T r every _REFRESH breakpoints bounds the drift,
        # and one at every breakpoint a stopping rule, the budget or the
        # floor can end certifies the stop; the residual is taken only for
        # a fresh D^T r or for a watcher
        lam_step = lam - gamma
        c = c - gamma * w
        lam = path_weight(lam_step)
        fresh = (it % _REFRESH == 0 or config.stopping is not None
                 or it == config.max_iter or lam <= finish_floor)
        r = residual() if fresh or mon.watched else None
        if fresh:
            c = D.adjoint(r)
            lam = path_weight(lam_step)
        obj = record(it, lam, r)
        if lam <= finish_floor or config.stopping is not None and mon.rule_met(
                x, obj, lambda: kkt_from_correlation(x, c, target_lambda)):
            converged = True
            break

    if not converged:
        mon.notes.append("iteration budget exhausted")
    return mon.result(x, it, converged)
