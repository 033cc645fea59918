"""Corruption-aware solving: extended dictionaries and alignment problems.

ExtendedDictionary is the implicit horizontal stack [A, s I] that lets any
of the eight solvers absorb gross corruption into an identity block
without ever materializing the d x (n + d) matrix: it implements the
operator protocol of operators.py. cab_solve routes one extended instance
through a chosen solver and splits the answer into the signal and
corruption parts.

AlignmentProblem carries the tall-dictionary regression min over (w, e) of
1/2 ||b - B w - e||^2 + lambda ||e||_1, where only the error vector is
sparse. Every aligner factors B once, by the reduced QR B = Q1 R: with
P = I - Q1 Q1^T, minimizing over w leaves an ordinary penalized l1
problem in e with dictionary P and data c = P b, and w then follows from
R at the returned e. align_gp_solve, align_ist_solve and
align_homotopy_solve run gpsr_solve, ist_solve and homotopy_solve on
that reduced problem. align_palm_solve, the multiplier method on the
exact-fit form min ||e||_1 subject to b = B w + e, runs palm's inner
solve (alm._inner_solve) on the same problem in e, with P applied in
O(d m); it keeps its own short outer loop, since palm_solve on that
projector measured 1.55x slower on 200 x 12 problems.
"""

from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np

from ell1.alm import _STALL_FLOOR, MU0_SCALE, RHO, _inner_solve
from ell1.exceptions import IllConditionedError
from ell1.gradient_projection import gpsr_solve
from ell1.homotopy import homotopy_solve
from ell1.model import ProblemInstance
# chol_factor is not called here: perfbench's tests read robust.chol_factor
from ell1.numerics import _lower_solve, chol_factor, spectral_norm_sq
from ell1.shrinkage import L0, ist_solve


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
    stacked matrix never exists in memory. Implements the operator
    protocol the solvers use (operators.py), with the row Grams and the
    spectral norm taken from A alone. The matmul-style products (D @ w
    and D.T @ r) are kept only because perfbench/tracer.py patches them
    by name; the library itself calls apply and adjoint. A must be
    finite.
    """

    def __init__(self, A, identity_scale=1.0):
        self.A = np.ascontiguousarray(A, dtype=np.float64)
        if self.A.ndim != 2:
            raise ValueError("dictionary must be a matrix")
        if not np.all(np.isfinite(self.A)):
            raise ValueError("A must be finite")
        if not identity_scale > 0:
            raise ValueError("identity_scale must be positive")
        self.scale = float(identity_scale)

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
        n = self.A.shape[1]
        out = self.A @ w[:n]
        out += self.scale * w[n:]
        return out

    def adjoint(self, r):
        d, n = self.A.shape
        out = np.empty((n + d,) + r.shape[1:])
        np.matmul(self.A.T, r, out=out[:n])
        np.multiply(self.scale, r, out=out[n:])
        return out

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
        return spectral_norm_sq(self.A) + self.scale ** 2

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


def _cab_problem(A, b, config):
    """The stacked system b = [A, sI] w with s = 1 / option "e_weight"."""
    e_weight = float(config.opt("e_weight", 1.0))
    if not e_weight > 0:
        raise ValueError("e_weight must be positive")
    return ProblemInstance(
        ExtendedDictionary(A, identity_scale=1.0 / e_weight), b)


def cab_solve(A, b, solver, config):
    """Solve the corruption-extended system with the chosen backend.

    Builds the implicit [A, s I] dictionary and runs the named solver of
    bench.SOLVERS on it; every solver is a backend, and an unknown name
    raises ValueError, as does a non-finite A or b. The equality-form
    backends minimize the l1 norm of the stacked vector subject to the
    extended system; the penalized backends use config.lam (model default
    when unset), with homotopy following its path down to that weight.
    Option "e_weight" (default 1) scales the corruption penalty relative
    to the signal penalty. Returns (x, e, record) where record is the
    backend's solver output on the stacked variable.
    """
    from ell1 import bench  # bench imports this module
    prob = _cab_problem(A, b, config)
    res = bench.solve_named(solver, prob, config)
    n = prob.A.A.shape[1]
    return res.x_star[:n], prob.A.scale * res.x_star[n:], res


@dataclass
class AlignmentProblem:
    """Tall regression b ~ B w with sparse gross error e.

    B must have many more rows than columns, and B and b must be finite;
    rank is checked by the solvers when they factor B.
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
        if not (np.all(np.isfinite(self.B)) and np.all(np.isfinite(self.b))):
            raise ValueError("B and b must be finite")

    @property
    def d(self):
        return self.B.shape[0]

    @property
    def m(self):
        return self.B.shape[1]


def _column_gram_factor(B):
    """(Q1, R) of the reduced QR B = Q1 R, so B^T B = R^T R; R w = v is
    _lower_solve(R.T, v, 1). cond(B) >= 1/sqrt(eps), where B^T B stops
    being numerically positive definite, raises IllConditionedError."""
    Q1, R = np.linalg.qr(B)
    s = np.linalg.svd(R, compute_uv=False)
    if not s[-1] > np.sqrt(np.finfo(np.float64).eps) * s[0]:
        raise IllConditionedError("B must have full column rank")
    return Q1, R


def _default_align_lambda(prob, c):
    """1e-2 times the peak least-squares residual max|c|, or 0 when that
    peak is at roundoff, 1e3 eps max|b| or less: then b lies in range(B)."""
    lam0 = float(np.max(np.abs(c)))
    floor = _STALL_FLOOR * np.finfo(np.float64).eps * np.max(np.abs(prob.b))
    return 1e-2 * lam0 if lam0 > floor else 0.0


def _reduced_align_solve(prob, lam, config, solver):
    """Solve the penalized alignment objective as an l1 problem in e alone.

    With the reduced QR B = Q1 R and P = I - Q1 Q1^T, minimizing over w
    leaves min over e of 1/2 ||P e - c||^2 + lam ||e||_1, c = P b: the
    standard penalized problem with dictionary P and data c. solver, one
    of the package's penalized solvers, runs on it with config at weight
    lam; w = R^{-1} Q1^T (b - e). lam=None uses config.lam, else
    _default_align_lambda, whose zero weight, for b in range(B) to
    roundoff, returns the exact least-squares fit with e = 0. Returns (w, e).
    """
    Q1, R = _column_gram_factor(prob.B)
    c = prob.b - Q1 @ (Q1.T @ prob.b)
    lam = config.lam if lam is None else lam
    if lam is None:
        lam = _default_align_lambda(prob, c)
        if lam == 0.0:  # b lies in range(B): the least-squares fit is exact
            return _lower_solve(R.T, Q1.T @ prob.b, 1), np.zeros(prob.d)
    P = np.eye(prob.d) - Q1 @ Q1.T
    e = solver(ProblemInstance(P, c), replace(config, lam=lam)).x_star
    return _lower_solve(R.T, Q1.T @ (prob.b - e), 1), e


def align_gp_solve(prob, lam, config):
    """Gradient projection (GPSR) on the alignment objective.

    Runs gpsr_solve on the QR-reduced problem in e (see
    _reduced_align_solve) and solves for w with R. lam=None uses
    config.lam, else 1e-2 of the peak least-squares residual. Returns (w, e).
    """
    return _reduced_align_solve(prob, lam, config, gpsr_solve)


def align_homotopy_solve(prob, config):
    """Regularization path of the alignment objective in the error block.

    Runs homotopy_solve on the QR-reduced problem in e (see
    _reduced_align_solve) from the least-squares fit (e = 0, weight at the
    peak residual) down to config.lam, default 1e-2 of the peak residual,
    and solves for w with R. Returns (w, e).
    """
    return _reduced_align_solve(prob, None, config, homotopy_solve)


def align_ist_solve(prob, lam, config):
    """Soft-threshold iterations on the alignment objective.

    Runs ist_solve, with its warm-started continuation down to lam, on the
    QR-reduced problem in e (see _reduced_align_solve) and solves for w
    with R. lam=None uses config.lam, else 1e-2 of the peak least-squares
    residual. Returns (w, e).
    """
    return _reduced_align_solve(prob, lam, config, ist_solve)


def align_palm_solve(prob, config):
    """Multiplier method for the exact-fit form: min ||e||_1, b = B w + e.

    With B = Q1 R and P = I - Q1 Q1^T as in _reduced_align_solve,
    minimizing the penalized Lagrangian over w leaves
    1/2 ||P e - c - y/mu||^2 + ||e||_1 / mu in e, which each outer step
    solves loosely with alm._inner_solve. c and y lie in range(P), so the
    gradient is the residual itself, a search trial takes two products
    with the d x m Q1, and the outer step reads P e - c from the carried
    residual. y and mu move as in palm_solve, from
    mu0 = alm.MU0_SCALE d / ||c||_1, so b -> s b gives (s w, s e) for s a
    power of 2. Converges when ||P (b - e)||, the fit residual at
    w = R^{-1} Q1^T (b - e), is at most config.tol * ||b||; config.max_iter
    caps the inner steps. For b in range(B) to roundoff, e = 0 and w is the
    least-squares fit. Returns (w, e).
    """
    Q1, R = _column_gram_factor(prob.B)
    # P as an operator whose adjoint is the identity: P^T r = r for every
    # r in range(P), and the inner solve carries no other residual
    proj = SimpleNamespace(apply=lambda v: v - Q1 @ (Q1.T @ v),
                           adjoint=lambda r: r)
    c = proj.apply(prob.b)
    if _default_align_lambda(prob, c) == 0.0:  # b lies in range(B)
        return _lower_solve(R.T, Q1.T @ prob.b, 1), np.zeros(prob.d)
    tol_abs = config.tol * float(np.linalg.norm(prob.b))
    e, y, r = np.zeros(prob.d), np.zeros(prob.d), -c
    mu = mu0 = MU0_SCALE * prob.d / float(np.sum(np.abs(c)))
    L = L0
    it = 0
    while it < config.max_iter:
        e, r, L, steps, _, _ = _inner_solve(
            proj, 1.0 / mu, e, r, L, 1e-2 * mu0 / mu, config.max_iter - it)
        it += steps
        # r is the carried P e - c - y/mu, so the multiplier step
        # y + mu (c - P e) is -mu r and needs no product
        fit = r + y / mu
        if float(np.linalg.norm(fit)) <= tol_abs:
            break
        y = -mu * r
        mu *= RHO
        r = fit - y / mu
    return _lower_solve(R.T, Q1.T @ (prob.b - e), 1), e
