"""Shared numerical kernels: shrinkage, box projection, a matrix buffer
with 64-byte-aligned rows, Cholesky machinery, preconditioned conjugate
gradients, the spectral norm, and the interior-point pieces: the
fraction to boundary, which pdipa and tnipm share, and tnipm's
box-barrier Newton step with its Armijo backtrack.

The elementwise kernels run in ell1._accel. chol_factor is one LAPACK
potrf; homotopy grows its factor with chol_append and shrinks it with
chol_delete, which retriangularizes with one LAPACK QR. The rank-1
updates of _accel serve only chol_rank1, which no solver calls.
"""

import math
from collections import namedtuple

import numpy as np
from scipy.linalg import LinAlgError, eigvalsh, get_lapack_funcs

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
    u = np.asarray(u, dtype=np.float64)
    # a ufunc returns a scalar for 0-d input; asarray keeps it an array
    return np.asarray(_accel.soft_threshold(u, a))


def project_box_linf(z, out=None):
    """Orthogonal projection onto the unit l-inf ball (clamp to [-1, 1]).

    Accepts any array shape; returns a new float64 array of that shape,
    or writes into out (a float64 array of that shape, z itself allowed)
    and returns it.
    """
    z = np.asarray(z, dtype=np.float64)
    return np.asarray(_accel.project_box_linf(z, out))


def padded_rows(m, n):
    """Zeroed row-major float64 (m, n) array whose first element and
    every row start on a 64-byte boundary.

    Rows are padded to a multiple of 8 doubles, so the result is a view
    of an (m, n_pad) block. numpy's allocator leaves the first address
    mod 64 to chance, and BLAS products with a matrix run at a speed that
    moves with it; the padding only moves where rows start, so products
    give the same values.
    """
    stride = -(-n // 8) * 8
    block = np.zeros(m * stride + 8)
    start = -block.ctypes.data % 64 // 8
    return block[start:start + m * stride].reshape(m, stride)[:, :n]


def truncate_small(x):
    """Copy of x with barrier haze snapped to exact zeros.

    A log barrier keeps every coordinate slightly away from zero; entries
    at or below 1e-7 of the largest magnitude are artifacts of that, not
    support.
    """
    out = x.copy()
    top = float(np.max(np.abs(out))) if out.size else 0.0
    if top > 0.0:
        out[np.abs(out) <= 1e-7 * top] = 0.0
    return out


def _require_finite(arr):
    if not np.logical_and.reduce(np.isfinite(arr), axis=None):
        raise ValueError("array must not contain infs or NaNs")


# LAPACK's triangular solve, looked up once and called by position (a, b,
# lower, trans, unitdiag, lda, overwrite_b): keywords cost more than a solve
_TRTRS = get_lapack_funcs("trtrs", (np.empty((0, 0)),))
_GEQRF = get_lapack_funcs("geqrf", (np.empty((0, 0)),))
_POTRF = get_lapack_funcs("potrf", (np.empty((0, 0)),))


def _lower_solve(L, rhs, trans, overwrite=0):
    """Solve L y = rhs (trans=0) or L^T y = rhs (trans=1) for a lower
    triangular, F-ordered L, which LAPACK then reads in place."""
    y, info = _TRTRS(L, rhs, 1, trans, 0, L.shape[0], overwrite)
    if info > 0:
        raise LinAlgError("singular matrix: resolution failed at diagonal %d"
                          % (info - 1))
    return y


class CholFactor:
    """Upper-triangular factor R with R^T R equal to the factored SPD matrix.

    R is checked for finiteness once, here; solves then check only their
    right-hand side, so a cached factor is never rescanned. chol_factor
    checks the matrix it factors, and chol_append and chol_delete derive
    theirs from a checked factor; all three build it with _unchecked,
    which skips the scan.
    """

    __slots__ = ("R",)

    def __init__(self, R):
        R = np.ascontiguousarray(R, dtype=np.float64)
        if R.ndim != 2 or R.shape[0] != R.shape[1]:
            raise ValueError("factor must be square, got shape %r" % (R.shape,))
        _require_finite(R)
        self.R = R

    @classmethod
    def _unchecked(cls, R):
        """A factor of the square, C-ordered R, whose entries the caller
        has checked."""
        out = cls.__new__(cls)
        out.R = R
        return out

    @property
    def dim(self):
        return self.R.shape[0]

    def solve(self, rhs):
        """Solve (R^T R) x = rhs by two triangular solves.

        A non-finite rhs raises ValueError.
        """
        rhs = np.asarray(rhs, dtype=np.float64)
        _require_finite(rhs)
        if rhs.shape[0] != self.dim:
            raise ValueError("rhs length %d does not match factor dim %d"
                             % (rhs.shape[0], self.dim))
        if not rhs.size:
            return np.zeros(rhs.shape)
        L = self.R.T
        return _lower_solve(L, _lower_solve(L, rhs, 0), 1, overwrite=1)

    def matrix(self):
        """Reassemble R^T R (testing and refactorization checks)."""
        return self.R.T @ self.R


def chol_factor(M):
    """Dense Cholesky factorization of an SPD matrix, upper convention.

    One LAPACK potrf on the lower triangle of M, into one F-ordered copy
    L, whose transpose is the C-ordered R. A non-finite entry of M raises
    ValueError, an M that is not positive definite
    NotPositiveDefiniteError.
    """
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("matrix must be square, got shape %r" % (M.shape,))
    _require_finite(M)
    L, info = _POTRF(M, lower=1, clean=1)
    # every entry of a row enters its diagonal through a sum of squares,
    # so a row that overflowed leaves a diagonal that is not positive
    if info > 0 or not np.all(L.diagonal() > 0.0):
        raise NotPositiveDefiniteError("matrix is not positive definite")
    return CholFactor._unchecked(L.T)


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
    u = _lower_solve(factor.R.T, g, 0) if m else g
    # a non-finite u makes u . u, and so d2, non-finite too
    d2 = float(diag) - float(u.dot(u))
    if not math.isfinite(d2):
        raise ValueError("new diagonal entry must be finite")
    if d2 <= 0.0:
        raise NotPositiveDefiniteError("appended column makes the matrix singular")
    out = np.empty((m + 1, m + 1))
    out[:m, :m] = factor.R
    out[:m, m] = u
    out[m, :m] = 0.0
    out[m, m] = math.sqrt(d2)
    return CholFactor._unchecked(out)


def chol_delete(factor, k):
    """Remove row/column k from the factored matrix.

    Dropping column k of R leaves its trailing rows upper Hessenberg; one
    LAPACK QR makes them triangular again, with its rows signed to a
    positive diagonal.
    """
    m = factor.dim
    if not 0 <= k < m:
        raise ValueError("index %d out of range for factor dim %d" % (k, m))
    R = factor.R
    out = np.empty((m - 1, m - 1))
    out[:k, :k] = R[:k, :k]
    out[:k, k:] = R[:k, k + 1:]
    out[k:, :k] = 0.0
    if k < m - 1:
        T = np.triu(_GEQRF(R[k:, k + 1:])[0][:m - 1 - k])
        T *= np.copysign(1.0, np.diag(T))[:, None]
        out[k:, k:] = T
    return CholFactor._unchecked(out)


PcgResult = namedtuple("PcgResult", "x converged iterations residual")


def pcg_solve(op, rhs, precond=None, tol=1e-8, max_iter=None):
    """Preconditioned conjugate gradients for an SPD system op x = rhs.

    op is a dense matrix or a matvec callable; precond is None or a vector
    of diagonal entries.
    Converges when ||r|| <= tol * ||rhs||. On indefinite breakdown returns
    the best iterate seen with converged=False; non-finite values raise
    NumericalBreakdownError.
    """
    rhs = _as_vector(rhs)
    n = rhs.shape[0]
    matvec = (lambda v, _A=op: _A @ v) if isinstance(op, np.ndarray) else op
    if precond is None:
        apply_m = lambda r: r
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
    rz = float(r.dot(z))
    # x is rebound at every step, never written in place
    best_x = x
    best_res = rhs_norm
    for k in range(1, max_iter + 1):
        Ap = matvec(p)
        pAp = float(p.dot(Ap))
        if not math.isfinite(pAp):
            raise NumericalBreakdownError("non-finite curvature in PCG")
        if pAp <= 0.0:
            return PcgResult(best_x, False, k, best_res / rhs_norm)
        alpha = rz / pAp
        x = x + alpha * p
        r = r - alpha * Ap
        res = math.sqrt(float(r.dot(r)))
        if not math.isfinite(res):
            raise NumericalBreakdownError("non-finite residual in PCG")
        if res < best_res:
            best_res = res
            best_x = x
        if res <= tol * rhs_norm:
            return PcgResult(x, True, k, res / rhs_norm)
        z = apply_m(r)
        rz_new = float(r.dot(z))
        beta = rz_new / rz
        p = z + beta * p
        rz = rz_new
    return PcgResult(best_x, False, max_iter, best_res / rhs_norm)


def spectral_norm_sq(A):
    """Largest eigenvalue of A^T A, from the smaller Gram side.

    Forms A A^T when A has no more rows than columns, else A^T A, in one
    product, and returns its top eigenvalue from one LAPACK call
    (dsyevr). A zero matrix is rejected.
    """
    A = np.asanyarray(A, dtype=np.float64)
    if A.ndim != 2:
        raise ValueError("expected a matrix, got shape %r" % (A.shape,))
    if not np.any(A):
        raise ValueError("spectral norm of the zero matrix is not meaningful here")
    d, n = A.shape
    G = A @ A.T if d <= n else A.T @ A
    k = min(d, n) - 1
    return float(eigvalsh(G, subset_by_index=[k, k])[0])


_BOUNDARY = 0.99     # fraction-to-boundary damping
_MAX_HALVINGS = 50   # step halvings before a backtracking search gives up
_ARMIJO = 0.01       # sufficient-decrease share of the Newton decrement


def fraction_to_boundary(v, dv, damping=_BOUNDARY):
    """Damped largest step s <= 1 keeping v + s dv positive, for v > 0.

    1.0 when no entry of dv is negative; otherwise the smaller of 1 and
    damping (0.99 by default) times the smallest blocking ratio
    v_i / -dv_i. damping=1 gives the undamped step to the boundary.
    """
    with np.errstate(all="ignore"):
        ratio = np.minimum.reduce(np.where(dv < 0, -v / dv, np.inf),
                                  initial=np.inf)
    return min(1.0, damping * float(ratio))


class BoxBarrier:
    """Newton step on the barrier value at a strictly interior (v, u).

    The value is t (1/2 ||r||^2 + lam sum(u)) - sum log(u + v) - sum
    log(u - v), r the caller's residual at v. The u block is eliminated
    exactly; r and how it depends on v stay with the caller. The caller
    adds t times the gradient of 1/2 ||r||^2 to g_bar, the barrier part
    of the v gradient, to get the full v gradient g_v, and solves
    (t H_r + diag(d_red)) dv = reduced_rhs(g_v) with its own Hessian H_r
    of 1/2 ||r||^2. Then bound_step(dv) gives du and backtrack the step
    length. g_u is the u gradient; diag_sum and diag_diff are the barrier
    Hessian's diagonal blocks on (v, v) and (u, u), and on (v, u).
    """

    __slots__ = ("v", "u", "t", "lam", "up", "um", "g_bar", "g_u",
                 "diag_sum", "diag_diff", "d_red")

    def __init__(self, v, u, t, lam):
        self.v, self.u, self.t, self.lam = v, u, t, lam
        self.up = u + v
        self.um = u - v
        p = 1.0 / self.up
        q = 1.0 / self.um
        self.g_bar = q - p
        self.g_u = t * lam - p - q
        pp = p * p
        qq = q * q
        self.diag_sum = pp + qq
        self.diag_diff = pp - qq
        self.d_red = 4.0 * pp * qq / self.diag_sum

    def reduced_rhs(self, g_v):
        """Right-hand side in v once du is eliminated; g_v is the full
        v gradient."""
        return -g_v + self.diag_diff * (self.g_u / self.diag_sum)

    def bound_step(self, dv):
        """du from the bound block's row of the Newton system."""
        return -(self.g_u + self.diag_diff * dv) / self.diag_sum

    def change(self, r, v_new, u_new, r_new):
        """Value at interior (v_new, u_new), residual r_new, minus the
        value here, residual r: t (q_new - q) - sum log(up_new / up) -
        sum log(um_new / um), q = 1/2 ||r||^2 + lam sum(u). The slack
        ratios cancel a power-of-two rescaling of the data exactly."""
        add = np.add.reduce  # np.sum's value without its Python wrapper
        dq = (0.5 * (float(r_new @ r_new) - float(r @ r))
              + self.lam * (float(add(u_new)) - float(add(self.u))))
        return (self.t * dq - float(add(np.log((u_new + v_new) / self.up)))
                - float(add(np.log((u_new - v_new) / self.um))))

    def backtrack(self, r, dv, du, decrement_sq, trial_residual):
        """Armijo backtracking from the fraction-to-boundary step.

        Starts at the damped largest step keeping u + v and u - v
        positive and halves it up to 50 times until the step stays
        strictly interior and the barrier value drops by
        0.01 s decrement_sq. trial_residual(s) is the residual at step s.
        Returns (s, v + s dv, u + s du), or None when every trial fails.
        """
        s = min(fraction_to_boundary(self.up, du + dv),
                fraction_to_boundary(self.um, du - dv))
        for _ in range(_MAX_HALVINGS + 1):
            v_new = self.v + s * dv
            u_new = self.u + s * du
            if (np.logical_and.reduce(np.abs(v_new) < u_new)
                    and self.change(r, v_new, u_new, trial_residual(s))
                    <= -_ARMIJO * s * decrement_sq):
                return s, v_new, u_new
            s *= 0.5
        return None

    def next_weight(self, decrement_sq):
        """Tenfold barrier weight once the decrement certifies the center."""
        return self.t * 10.0 if decrement_sq <= 0.25 else self.t
