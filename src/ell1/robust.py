"""Corruption-aware solving: extended dictionaries and alignment problems.

ExtendedDictionary is the implicit horizontal stack [A, s I] that lets any
of the solver families absorb gross corruption into an identity block
without ever materializing the d x (n + d) matrix. cab_solve routes one
extended instance through a chosen backend and splits the answer into the
signal and corruption parts.

AlignmentProblem carries the tall-dictionary regression min over (w, e) of
1/2 ||b - B w - e||^2 + lambda ||e||_1, where only the error vector is
sparse. Three solvers attack that objective (log-barrier Newton,
regularization path in e with re-solved w, block soft-thresholding) and a
fourth runs the multiplier method on the equality-constrained form
min ||e||_1 subject to b = B w + e.
"""

from dataclasses import dataclass

import numpy as np

from ell1.alm import dalm_solve, palm_solve
from ell1.exceptions import (IllConditionedError, NotPositiveDefiniteError,
                             NumericalBreakdownError)
from ell1.gradient_projection import gpsr_solve
from ell1.homotopy import solve_path
from ell1.model import kkt_from_correlation
from ell1.numerics import (chol_factor, soft_threshold, spectral_norm_sq,
                           truncate_small)
from ell1.pdipa import pdipa_solve
from ell1.shrinkage import fista_solve, ist_solve

_MAX_HALVINGS = 50
_ARMIJO = 0.01


class _AdjointView:
    """Transpose-shaped face of an implicit operator (duck numpy matrix)."""

    __slots__ = ("_op",)

    def __init__(self, op):
        self._op = op

    @property
    def shape(self):
        d, w = self._op.shape
        return (w, d)

    @property
    def T(self):
        return self._op

    def __matmul__(self, r):
        return self._op.adjoint(np.asarray(r, dtype=np.float64))


class ExtendedDictionary:
    """Implicit stack [A, s I] of width n + d.

    Signal columns come from A, corruption columns are scaled identity
    basis vectors; every product is assembled from the two blocks, so the
    stacked matrix never exists in memory. Supports both the column-level
    protocol of the path solver and matmul-style products (including .T)
    for the first-order solvers, plus the structured row-Gram hooks the
    interior-point and multiplier solvers look for.
    """

    mode = "cab"

    def __init__(self, A, identity_scale=1.0):
        self.A = np.ascontiguousarray(A, dtype=np.float64)
        if self.A.ndim != 2:
            raise ValueError("dictionary must be a matrix")
        if not identity_scale > 0:
            raise ValueError("identity_scale must be positive")
        self.scale = float(identity_scale)
        self._norm_sq = None

    @property
    def shape(self):
        d, n = self.A.shape
        return (d, n + d)

    @property
    def T(self):
        return _AdjointView(self)

    def __matmul__(self, w):
        return self.apply(np.asarray(w, dtype=np.float64))

    def apply(self, w):
        d, n = self.A.shape
        return self.A @ w[:n] + self.scale * w[n:]

    def adjoint(self, r):
        return np.concatenate([self.A.T @ r, self.scale * r])

    def column(self, j):
        d, n = self.A.shape
        if j < n:
            return self.A[:, j].copy()
        out = np.zeros(d)
        out[j - n] = self.scale
        return out

    def apply_columns(self, idx, coeffs):
        d, n = self.A.shape
        idx = np.asarray(idx, dtype=np.intp)
        coeffs = np.asarray(coeffs, dtype=np.float64)
        out = np.zeros(d)
        left = idx < n
        if np.any(left):
            out += self.A[:, idx[left]] @ coeffs[left]
        right = ~left
        if np.any(right):
            out[idx[right] - n] += self.scale * coeffs[right]
        return out

    def columns_dot(self, idx, v):
        d, n = self.A.shape
        idx = np.asarray(idx, dtype=np.intp)
        out = np.empty(idx.shape[0])
        left = idx < n
        if np.any(left):
            out[left] = self.A[:, idx[left]].T @ v
        right = ~left
        if np.any(right):
            out[right] = self.scale * v[idx[right] - n]
        return out

    def gram_column(self, idx, j):
        return self.columns_dot(idx, self.column(j))

    def column_norms_sq(self):
        d, n = self.A.shape
        return np.concatenate([np.sum(self.A * self.A, axis=0),
                               np.full(d, self.scale ** 2)])

    def norm_sq(self):
        # rows of [A, sI] give A A^T + s^2 I, so the top eigenvalue shifts
        if self._norm_sq is None:
            self._norm_sq = spectral_norm_sq(self.A) + self.scale ** 2
        return self._norm_sq

    def weighted_gram_dd(self, w):
        d, n = self.A.shape
        M = (self.A * w[:n]) @ self.A.T
        M[np.diag_indices(d)] += self.scale ** 2 * w[n:]
        return M

    def gram_dd(self):
        d = self.A.shape[0]
        M = self.A @ self.A.T
        M[np.diag_indices(d)] += self.scale ** 2
        return M


class _OperatorProblem:
    """Problem shim whose dictionary is an implicit operator."""

    def __init__(self, op, b):
        self.A = op
        self.b = np.ascontiguousarray(b, dtype=np.float64)
        self.ground_truth = None
        self.noise_sigma = 0.0
        if self.b.shape != (op.shape[0],):
            raise ValueError("b must have length d")

    @property
    def d(self):
        return self.A.shape[0]

    @property
    def n(self):
        return self.A.shape[1]


_CAB_BACKENDS = ("pdipa", "homotopy", "gp", "ist", "fista", "palm", "dalm")


def cab_solve(A, b, solver, config):
    """Solve the corruption-extended system with the chosen backend.

    Builds the implicit [A, s I] dictionary and hands it to one of
    pdipa, homotopy, gp, ist, fista, palm, or dalm. The equality-form
    backends (pdipa, palm, dalm) minimize the l1 norm of the stacked
    vector subject to the extended system; the penalized backends use
    config.lam (model default when unset), with homotopy following its
    path down to that weight. Option "e_weight" (default 1) scales the
    corruption penalty relative to the signal penalty. Returns
    (x, e, record) where record is the backend's solver output on the
    stacked variable.
    """
    if solver not in _CAB_BACKENDS:
        raise ValueError("unknown cab backend %r (choose from %s)"
                         % (solver, ", ".join(_CAB_BACKENDS)))
    e_weight = float(config.opt("e_weight", 1.0))
    if not e_weight > 0:
        raise ValueError("e_weight must be positive")
    scale = 1.0 / e_weight
    ext = ExtendedDictionary(A, identity_scale=scale)
    prob = _OperatorProblem(ext, b)
    n = ext.A.shape[1]
    if solver == "pdipa":
        res = pdipa_solve(prob, config)
    elif solver == "homotopy":
        res, _ = solve_path(ext, prob.b, config.resolved_lambda(prob),
                            config)
    elif solver == "gp":
        res = gpsr_solve(prob, config.resolved_lambda(prob), config)
    elif solver == "ist":
        res = ist_solve(prob, None, config)
    elif solver == "fista":
        res = fista_solve(prob, config)
    elif solver == "palm":
        res = palm_solve(prob, config)
    else:
        res = dalm_solve(prob, config)
    w = res.x_star
    return w[:n], scale * w[n:], res


@dataclass
class AlignmentProblem:
    """Tall regression b ~ B w with sparse gross error e.

    B must have many more rows than columns; rank is checked by the
    solvers when they factor the column Gram.
    """

    B: np.ndarray
    b: np.ndarray
    ground_truth_w: np.ndarray = None
    ground_truth_e: np.ndarray = None

    def __post_init__(self):
        self.B = np.ascontiguousarray(self.B, dtype=np.float64)
        self.b = np.ascontiguousarray(self.b, dtype=np.float64)
        if self.B.ndim != 2:
            raise ValueError("B must be a matrix")
        if self.B.shape[0] <= self.B.shape[1]:
            raise ValueError("B must be tall: more rows than columns")
        if self.b.shape != (self.B.shape[0],):
            raise ValueError("b must have length d")

    @property
    def d(self):
        return self.B.shape[0]

    @property
    def m(self):
        return self.B.shape[1]


def _column_gram_factor(B):
    try:
        return chol_factor(B.T @ B)
    except NotPositiveDefiniteError as exc:
        raise IllConditionedError(
            "B must have full column rank") from exc


def _default_align_lambda(prob, gram):
    w0 = gram.solve(prob.B.T @ prob.b)
    lam0 = float(np.max(np.abs(prob.b - prob.B @ w0)))
    return 1e-2 * lam0


def align_gp_solve(prob, lam, config):
    """Log-barrier Newton solve of the alignment objective.

    Bounds the error block by -u <= e <= u, walks the central path in
    (w, e, u), and eliminates first the bound block and then the error
    block so each Newton step costs one m x m factorization. lam=None
    uses 1e-2 times the peak least-squares residual. On return w is
    re-solved exactly from the truncated e, so the normal-equations
    residual vanishes at machine precision. Returns (w, e).
    """
    B, b = prob.B, prob.b
    d, m = B.shape
    gram = _column_gram_factor(B)
    if lam is None:
        lam = _default_align_lambda(prob, gram)
    if not lam > 0:
        raise ValueError("lambda must be positive")

    def polished(e_raw):
        e_t = truncate_small(e_raw)
        return gram.solve(B.T @ (b - e_t)), e_t

    w = gram.solve(B.T @ b)
    e = np.zeros(d)
    u = np.ones(d) * max(1.0, float(np.max(np.abs(b))))
    t = 1.0 / lam
    for _ in range(config.max_iter):
        r = b - B @ w - e
        obj = 0.5 * float(r @ r) + lam * float(np.sum(np.abs(e)))
        if 2.0 * d / t <= config.tol * (1.0 + obj):
            w_t, e_t = polished(e)
            c = b - B @ w_t - e_t
            if kkt_from_correlation(e_t, c, lam) <= config.tol * lam:
                return w_t, e_t
        up = u + e
        um = u - e
        p = 1.0 / up
        q = 1.0 / um
        g_w = -t * (B.T @ r)
        g_e = -t * r + (q - p)
        g_u = t * lam - p - q
        pp = p * p
        qq = q * q
        diag_sum = pp + qq
        diag_diff = pp - qq
        d_red = 4.0 * pp * qq / diag_sum
        rhs_e = -g_e + diag_diff * (g_u / diag_sum)
        denom = t + d_red
        weight = t * d_red / denom
        try:
            step_fac = chol_factor(B.T @ (B * weight[:, None]))
        except NotPositiveDefiniteError as exc:
            raise IllConditionedError(
                "reduced alignment system lost definiteness") from exc
        dw = step_fac.solve(-g_w - t * (B.T @ (rhs_e / denom)))
        de = (rhs_e - t * (B @ dw)) / denom
        du = -(g_u + diag_diff * de) / diag_sum
        decrement_sq = -(float(g_w @ dw) + float(g_e @ de)
                         + float(g_u @ du))
        s = 1.0
        dup = du + de
        dum = du - de
        shrinking = dup < 0.0
        if np.any(shrinking):
            s = min(s, 0.99 * float(np.min(up[shrinking] / -dup[shrinking])))
        shrinking = dum < 0.0
        if np.any(shrinking):
            s = min(s, 0.99 * float(np.min(um[shrinking] / -dum[shrinking])))
        F_t = (t * (0.5 * float(r @ r) + lam * float(np.sum(u)))
               - float(np.sum(np.log(up))) - float(np.sum(np.log(um))))
        Bdw = B @ dw
        accepted = False
        for _ in range(_MAX_HALVINGS + 1):
            e_new = e + s * de
            u_new = u + s * du
            up_new = u_new + e_new
            um_new = u_new - e_new
            if (float(np.min(up_new)) > 0.0
                    and float(np.min(um_new)) > 0.0):
                r_new = r - s * Bdw - s * de
                F_new = (t * (0.5 * float(r_new @ r_new)
                              + lam * float(np.sum(u_new)))
                         - float(np.sum(np.log(up_new)))
                         - float(np.sum(np.log(um_new))))
                if F_new <= F_t - _ARMIJO * s * decrement_sq:
                    accepted = True
                    break
            s *= 0.5
        if not accepted:
            raise NumericalBreakdownError(
                "alignment barrier line search exhausted")
        w = w + s * dw
        e = e_new
        u = u_new
        if decrement_sq <= 0.25:
            t *= 10.0
    return polished(e)


def align_homotopy_solve(prob, config):
    """Path-following in the error block with w re-solved at every step.

    Starts from the least-squares fit (e = 0, weight at the peak residual)
    and walks the weight down, moving only the active error coordinates
    along their sign direction between events; after each step w is
    re-solved from the normal equations and the active set rebuilt, which
    is what lets fresh coordinates enter despite the identity block
    updating only its own support. A block-coordinate cleanup at the
    target weight (config.lam, default 1e-2 of the peak residual) tightens
    the answer to the joint optimum. Returns (w, e).
    """
    B, b = prob.B, prob.b
    d = prob.d
    gram = _column_gram_factor(B)

    def w_solve(err):
        return gram.solve(B.T @ (b - err))

    w = w_solve(np.zeros(d))
    c = b - B @ w
    lam0 = float(np.max(np.abs(c)))
    target = config.lam if config.lam is not None else 1e-2 * lam0
    e = np.zeros(d)
    if lam0 <= target or lam0 == 0.0:
        return w, e
    lam = lam0
    for _ in range(config.max_iter):
        if lam <= target:
            break
        active = (np.abs(c) >= lam * (1.0 - 1e-9)) | (e != 0.0)
        step_dir = np.where(np.abs(c) > 0, np.sign(c), np.sign(e))
        gamma = lam - target
        inactive = ~active
        if np.any(inactive):
            gamma = min(gamma,
                        float(np.min(lam - np.abs(c[inactive]))))
        closing = active & (e * step_dir < 0.0)
        if np.any(closing):
            gamma = min(gamma,
                        float(np.min(-e[closing] / step_dir[closing])))
        gamma = max(gamma, 1e-12 * lam0)  # anti-stall floor
        e = e + np.where(active, gamma * step_dir, 0.0)
        lam = lam - gamma
        w = w_solve(e)
        c = b - B @ w - e
    # block-coordinate cleanup at the target weight
    lam = target
    for _ in range(config.max_iter):
        e = soft_threshold(b - B @ w, lam)
        w = w_solve(e)
        c = b - B @ w - e
        if kkt_from_correlation(e, c, lam) <= config.tol * lam:
            break
    return w, e


def ist_block_step(B, b, w, e, lam, alpha):
    """One block soft-threshold sweep on the alignment objective.

    Both blocks take the gradient step of length 1/alpha; only the error
    block is thresholded, the coefficient block passes through unchanged.
    Returns (w_next, e_next).
    """
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    r = b - B @ w - e
    return _block_step(w, e, r, B.T @ r, lam, alpha)


def _block_step(w, e, r, Btr, lam, alpha):
    """ist_block_step from the residual r = b - B w - e and Btr = B^T r."""
    w_next = w + Btr / alpha
    e_next = soft_threshold(e + r / alpha, lam / alpha)
    return w_next, e_next


def align_ist_solve(prob, lam, config):
    """Plain block soft-thresholding on the alignment objective.

    Fixed step 1/alpha with alpha just above the curvature bound
    ||B||^2 + 1 of the stacked system. Stops when the coefficient block
    satisfies the normal equations to config.tol and the error block
    meets the kkt tolerance at lam; the iteration cap returns the current
    iterate otherwise. lam=None uses 1e-2 times the peak least-squares
    residual. Returns (w, e).

    Each iteration takes 2 products with B: the residual r = b - B w - e
    and B^T r of the new iterate serve both its convergence test and the
    next block step.
    """
    B, b = prob.B, prob.b
    gram = _column_gram_factor(B)
    if lam is None:
        lam = _default_align_lambda(prob, gram)
    if not lam > 0:
        raise ValueError("lambda must be positive")
    alpha = 1.01 * (spectral_norm_sq(B) + 1.0)
    w = np.zeros(prob.m)
    e = np.zeros(prob.d)
    r = b - B @ w - e
    Btr = B.T @ r
    for _ in range(config.max_iter):
        w, e = _block_step(w, e, r, Btr, lam, alpha)
        r = b - B @ w - e
        Btr = B.T @ r
        if (float(np.max(np.abs(Btr))) <= config.tol
                and kkt_from_correlation(e, r, lam) <= config.tol * lam):
            break
    return w, e


def align_palm_solve(prob, config):
    """Multiplier method for the exact-fit form: min ||e||_1, b = B w + e.

    Alternates the two closed-form block updates of the penalized
    Lagrangian (w from the cached normal equations, e by shrinkage with
    threshold 1/mu), then steps the multiplier and grows mu geometrically
    (options "mu0" and "rho", defaults 1 and 2). Converges when the fit
    residual drops below config.tol * ||b||. Returns (w, e) with
    b - B w - e at the constraint tolerance.
    """
    B, b = prob.B, prob.b
    gram = _column_gram_factor(B)
    mu = float(config.opt("mu0", 1.0))
    rho = float(config.opt("rho", 2.0))
    if not mu > 0 or not rho > 1:
        raise ValueError("mu0 must be positive and rho must exceed 1")
    b_norm = float(np.linalg.norm(b))
    w = gram.solve(B.T @ b)
    e = np.zeros(prob.d)
    y = np.zeros(prob.d)
    if b_norm == 0.0:
        return w, e
    it = 0
    while it < config.max_iter:
        # inner block sweeps at fixed mu, to loose precision
        for _ in range(min(100, config.max_iter - it)):
            it += 1
            target = b - e + y / mu
            w = gram.solve(B.T @ target)
            e_new = soft_threshold(b - B @ w + y / mu, 1.0 / mu)
            change = float(np.linalg.norm(e_new - e))
            e = e_new
            if change <= 1e-2 / mu * max(1.0, float(np.linalg.norm(e))):
                break
        r = b - B @ w - e
        y = y + mu * r
        if float(np.linalg.norm(r)) <= config.tol * b_norm:
            break
        mu *= rho
    return w, e
