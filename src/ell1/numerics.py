"""Shared numerical kernels: shrinkage, box projection, Cholesky machinery,
preconditioned conjugate gradients, spectral norm estimation.

The elementwise kernels and the rank-1 factor updates dispatch to the
compiled backend in ell1._accel when it is available.
"""

from collections import namedtuple

import numpy as np
from scipy.linalg import solve_triangular

from ell1 import _accel
from ell1.exceptions import NotPositiveDefiniteError, NumericalBreakdownError


def _as_vector(u):
    v = np.ascontiguousarray(u, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError("expected a 1-d real vector, got shape %r" % (v.shape,))
    return v


def soft_threshold(u, a):
    """Componentwise shrinkage: sgn(u) * max(|u| - a, 0).

    a must be nonnegative. Accepts any array shape; returns float64 of the
    same shape. Exact zeros are produced for |u_i| <= a.
    """
    if not np.isscalar(a) and not isinstance(a, np.floating):
        raise ValueError("threshold a must be a scalar")
    a = float(a)
    if not a >= 0.0:
        raise ValueError("threshold a must be nonnegative, got %g" % a)
    arr = np.ascontiguousarray(u, dtype=np.float64)
    out = _accel.soft_threshold(arr.ravel(), a)
    return np.asarray(out).reshape(arr.shape)


def project_box_linf(z):
    """Orthogonal projection onto the unit l-inf ball (clamp to [-1, 1])."""
    arr = np.ascontiguousarray(z, dtype=np.float64)
    out = _accel.project_box_linf(arr.ravel())
    return np.asarray(out).reshape(arr.shape)


def _require_finite(arr):
    if not np.all(np.isfinite(arr)):
        raise ValueError("array must not contain infs or NaNs")


class CholFactor:
    """Upper-triangular factor R with R^T R equal to the factored SPD matrix.

    R is checked for finiteness once, here; solves then check only their
    right-hand side, so a cached factor is never rescanned.
    """

    __slots__ = ("R",)

    def __init__(self, R):
        R = np.ascontiguousarray(R, dtype=np.float64)
        if R.ndim != 2 or R.shape[0] != R.shape[1]:
            raise ValueError("factor must be square, got shape %r" % (R.shape,))
        _require_finite(R)
        self.R = R

    @property
    def dim(self):
        return self.R.shape[0]

    def solve(self, rhs):
        """Solve (R^T R) x = rhs by two triangular solves.

        A non-finite rhs raises ValueError.
        """
        _require_finite(rhs)
        y = solve_triangular(self.R, rhs, trans="T", lower=False,
                             check_finite=False)
        return solve_triangular(self.R, y, trans="N", lower=False,
                                check_finite=False)

    def matrix(self):
        """Reassemble R^T R (testing and refactorization checks)."""
        return self.R.T @ self.R

    def copy(self):
        return CholFactor(self.R.copy())


def chol_factor(M):
    """Dense Cholesky factorization of an SPD matrix, upper convention.

    Raises NotPositiveDefiniteError when M is not positive definite.
    """
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("matrix must be square, got shape %r" % (M.shape,))
    try:
        L = np.linalg.cholesky(M)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(str(exc)) from exc
    return CholFactor(np.ascontiguousarray(L.T))


def chol_rank1(factor, v, sign):
    """Rank-1 update of a Cholesky factor: R'^T R' = R^T R + sign * v v^T.

    sign is +1 or -1. Non-destructive. A downdate that loses positive
    definiteness raises NotPositiveDefiniteError.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1, got %r" % (sign,))
    v = _as_vector(v)
    if v.shape[0] != factor.dim:
        raise ValueError("vector length %d does not match factor dim %d"
                         % (v.shape[0], factor.dim))
    R = factor.R.copy()
    w = v.copy()
    if sign == 1:
        _accel.chol_update(R, w)
    else:
        status = _accel.chol_downdate(R, w)
        if status != 0:
            raise NotPositiveDefiniteError(
                "rank-1 downdate lost positive definiteness at pivot %d"
                % (status - 1))
    return CholFactor(R)


def chol_append(factor, gram_col, diag):
    """Extend a factor of G to a factor of [[G, g], [g^T, diag]].

    gram_col is the new off-diagonal column g, diag the new diagonal entry.
    Raises NotPositiveDefiniteError when the extended matrix is not PD.
    """
    m = factor.dim
    g = _as_vector(gram_col)
    if g.shape[0] != m:
        raise ValueError("gram column length %d does not match factor dim %d"
                         % (g.shape[0], m))
    out = np.zeros((m + 1, m + 1))
    out[:m, :m] = factor.R
    if m:
        _require_finite(g)
        u = solve_triangular(factor.R, g, trans="T", lower=False,
                             check_finite=False)
        out[:m, m] = u
        d2 = float(diag) - float(u @ u)
    else:
        d2 = float(diag)
    if d2 <= 0.0:
        raise NotPositiveDefiniteError("appended column makes the matrix singular")
    out[m, m] = np.sqrt(d2)
    return CholFactor(out)


def chol_delete(factor, k):
    """Remove row/column k from the factored matrix.

    Implemented as a block permutation plus one rank-1 update of the
    trailing factor block.
    """
    m = factor.dim
    if not 0 <= k < m:
        raise ValueError("index %d out of range for factor dim %d" % (k, m))
    R = factor.R
    out = np.zeros((m - 1, m - 1))
    out[:k, :k] = R[:k, :k]
    out[:k, k:] = R[:k, k + 1:]
    if k < m - 1:
        trailing = np.ascontiguousarray(R[k + 1:, k + 1:].copy())
        w = R[k, k + 1:].copy()
        _accel.chol_update(trailing, w)
        out[k:, k:] = trailing
    return CholFactor(out)


PcgResult = namedtuple("PcgResult", "x converged iterations residual")


def pcg_solve(op, rhs, precond=None, tol=1e-8, max_iter=None):
    """Preconditioned conjugate gradients for an SPD system op x = rhs.

    op is a dense matrix or a matvec callable; precond is None, a vector of
    diagonal entries, or a callable applying the inverse preconditioner.
    Converges when ||r|| <= tol * ||rhs||. On indefinite breakdown returns
    the best iterate seen with converged=False; non-finite values raise
    NumericalBreakdownError.
    """
    rhs = _as_vector(rhs)
    n = rhs.shape[0]
    matvec = (lambda v, _A=op: _A @ v) if isinstance(op, np.ndarray) else op
    if precond is None:
        apply_m = lambda r: r
    elif callable(precond):
        apply_m = precond
    else:
        dvec = _as_vector(precond)
        if dvec.shape[0] != n or np.any(dvec <= 0):
            raise ValueError("diagonal preconditioner must be positive, length n")
        apply_m = lambda r: r / dvec
    if max_iter is None:
        max_iter = n

    rhs_norm = float(np.linalg.norm(rhs))
    x = np.zeros(n)
    if rhs_norm == 0.0:
        return PcgResult(x, True, 0, 0.0)
    r = rhs.copy()
    z = apply_m(r)
    p = z.copy()
    rz = float(r @ z)
    best_x = x.copy()
    best_res = rhs_norm
    for k in range(1, max_iter + 1):
        Ap = matvec(p)
        pAp = float(p @ Ap)
        if not np.isfinite(pAp):
            raise NumericalBreakdownError("non-finite curvature in PCG")
        if pAp <= 0.0:
            return PcgResult(best_x, False, k, best_res / rhs_norm)
        alpha = rz / pAp
        x = x + alpha * p
        r = r - alpha * Ap
        res = float(np.linalg.norm(r))
        if not np.isfinite(res):
            raise NumericalBreakdownError("non-finite residual in PCG")
        if res < best_res:
            best_res = res
            best_x = x.copy()
        if res <= tol * rhs_norm:
            return PcgResult(x, True, k, res / rhs_norm)
        z = apply_m(r)
        rz_new = float(r @ z)
        beta = rz_new / rz
        p = z + beta * p
        rz = rz_new
    return PcgResult(best_x, False, max_iter, best_res / rhs_norm)


_POWER_SEED = 218751


def spectral_norm_sq(A, tol=1e-6, max_iter=1000):
    """Largest eigenvalue of A^T A by power iteration on the smaller Gram side.

    Deterministic (fixed internal seed). Stops when the eigenpair residual
    drops below tol relative to the estimate; a zero matrix is rejected.
    """
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2:
        raise ValueError("expected a matrix, got shape %r" % (A.shape,))
    if not np.any(A):
        raise ValueError("spectral norm of the zero matrix is not meaningful here")
    d, n = A.shape
    if d <= n:
        apply_gram = lambda v: A @ (A.T @ v)
        dim = d
    else:
        apply_gram = lambda v: A.T @ (A @ v)
        dim = n
    rng = np.random.default_rng(_POWER_SEED)
    v = rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    theta = 0.0
    for _ in range(max_iter):
        w = apply_gram(v)
        theta = float(v @ w)
        if np.linalg.norm(w - theta * v) <= tol * max(theta, np.finfo(float).tiny):
            break
        nw = np.linalg.norm(w)
        if nw == 0.0:
            # start vector fell in the nullspace; redraw
            v = rng.standard_normal(dim)
            v /= np.linalg.norm(v)
            continue
        v = w / nw
    return theta
