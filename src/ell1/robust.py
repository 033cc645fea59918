"""Corruption-aware solving: extended dictionaries and alignment problems.

ExtendedDictionary is the implicit horizontal stack [A, s I] that lets any
of the eight solvers absorb gross corruption into an identity block
without ever materializing the d x (n + d) matrix: it implements the
operator protocol of operators.py. cab_solve routes one extended instance
through a chosen solver and splits the answer into the signal and
corruption parts.

AlignmentProblem carries the tall-dictionary regression min over (w, e) of
1/2 ||b - B w - e||^2 + lambda ||e||_1, where only the error vector is
sparse. With the complete QR B = [Q1 Q2] [R; 0], minimizing over w leaves
an ordinary penalized l1 problem in e, with dictionary Q2^T and data
Q2^T b; w then follows from the normal equations. align_gp_solve,
align_ist_solve and align_homotopy_solve run gpsr_solve, ist_solve and
homotopy_solve on that reduced problem. align_palm_solve, the multiplier
method on the exact-fit form min ||e||_1 subject to b = B w + e, runs
palm's inner loop (alm._inner_shrinkage) on the same problem in e, with
the projector I - Q1 Q1^T in place of Q2^T, so a product costs O(d m);
it keeps its own short outer loop because palm_solve's per-call set-up
and monitor outweigh the work on 200 x 12 problems.
"""

from dataclasses import dataclass, replace

import numpy as np

from ell1.alm import _INNER_CAP, _STALL_FLOOR, MU0, RHO, _inner_shrinkage
from ell1.exceptions import IllConditionedError, NotPositiveDefiniteError
from ell1.gradient_projection import gpsr_solve
from ell1.homotopy import homotopy_solve
from ell1.model import ProblemInstance
from ell1.numerics import chol_factor, spectral_norm_sq
from ell1.shrinkage import ist_solve


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
    """1e-2 times the peak least-squares residual, or 0 when that peak is
    at roundoff, 1e3 eps max|b| or less: then b lies in range(B)."""
    w0 = gram.solve(prob.B.T @ prob.b)
    lam0 = float(np.max(np.abs(prob.b - prob.B @ w0)))
    floor = _STALL_FLOOR * np.finfo(np.float64).eps * float(
        np.max(np.abs(prob.b)))
    return 1e-2 * lam0 if lam0 > floor else 0.0


def _reduced_align_solve(prob, lam, config, solver):
    """Solve the penalized alignment objective as an l1 problem in e alone.

    With the complete QR B = [Q1 Q2] [R; 0], minimizing over w leaves
    min over e of 1/2 ||Q2^T (b - e)||^2 + lam ||e||_1: the standard
    penalized problem with dictionary Q2^T and data Q2^T b. solver, one of
    the package's penalized solvers, runs on it with config at weight
    lam; w then comes from the normal equations at the returned e.
    lam=None uses _default_align_lambda, and its zero weight, for b in
    range(B) to roundoff, returns the exact least-squares fit with e = 0.
    Returns (w, e).
    """
    B, b = prob.B, prob.b
    gram = _column_gram_factor(B)
    if lam is None:
        lam = _default_align_lambda(prob, gram)
        if lam == 0.0:  # b lies in range(B): the least-squares fit is exact
            return gram.solve(B.T @ b), np.zeros(prob.d)
    Q2t = np.ascontiguousarray(
        np.linalg.qr(B, mode="complete")[0][:, prob.m:].T)
    e = solver(ProblemInstance(Q2t, Q2t @ b), replace(config, lam=lam)).x_star
    return gram.solve(B.T @ (b - e)), e


def align_gp_solve(prob, lam, config):
    """Gradient projection (GPSR) on the alignment objective.

    Runs gpsr_solve on the QR-reduced problem in e (see
    _reduced_align_solve), then re-solves w from the normal equations.
    lam=None uses 1e-2 times the peak least-squares residual. Returns
    (w, e).
    """
    return _reduced_align_solve(prob, lam, config, gpsr_solve)


def align_homotopy_solve(prob, config):
    """Regularization path of the alignment objective in the error block.

    Runs homotopy_solve on the QR-reduced problem in e (see
    _reduced_align_solve), from the least-squares fit (e = 0, weight at
    the peak residual) down to config.lam, default 1e-2 of the peak
    residual, then re-solves w from the normal equations. Returns (w, e).
    """
    return _reduced_align_solve(prob, config.lam, config, homotopy_solve)


def align_ist_solve(prob, lam, config):
    """Soft-threshold iterations on the alignment objective.

    Runs ist_solve, with its warm-started continuation down to lam, on the
    QR-reduced problem in e (see _reduced_align_solve), then re-solves w
    from the normal equations. lam=None uses 1e-2 times the peak
    least-squares residual. Returns (w, e).
    """
    return _reduced_align_solve(prob, lam, config, ist_solve)


def align_palm_solve(prob, config):
    """Multiplier method for the exact-fit form: min ||e||_1, b = B w + e.

    With the reduced QR B = Q1 R and the projector P = I - Q1 Q1^T,
    minimizing the penalized Lagrangian over w leaves
    1/2 ||P e - c - y/mu||^2 + ||e||_1 / mu in e, with c = P b. Each outer
    step solves that loosely with palm's alm._inner_shrinkage (step 1, as
    ||P|| = 1; at most alm._INNER_CAP steps, inner tolerance 1e-2/mu, the
    momentum restarted whenever it points uphill, at no product); c
    and y lie in range(P), so the gradient is P e - c - y/mu, two products
    with the d x m Q1. Then y <- y + mu (c - P e) and mu grows from
    alm.MU0 = 1 by the factor alm.RHO = 2. Converges when ||P (b - e)||,
    the fit residual b - B w - e once w solves the normal equations at the
    returned e, is at most config.tol * ||b||; config.max_iter caps the
    inner steps. Returns (w, e). palm_solve on the reduced problem, with
    its set-up and monitor, took about 1.4x this loop's time on 200 x 12
    problems.
    """
    B, b = prob.B, prob.b
    gram = _column_gram_factor(B)
    Q1 = np.linalg.qr(B)[0]

    def project(v):
        return v - Q1 @ (Q1.T @ v)

    c = project(b)
    tol_abs = config.tol * float(np.linalg.norm(b))
    e = np.zeros(prob.d)
    y = np.zeros(prob.d)
    mu = MU0
    it = 0
    while it < config.max_iter:
        c_eff = c + y / mu
        e, steps, _ = _inner_shrinkage(
            lambda v: project(v) - c_eff, e, 1.0 / mu, 1.0, 1e-2 / mu,
            min(_INNER_CAP, config.max_iter - it))
        it += steps
        r = c - project(e)
        y = y + mu * r
        if float(np.linalg.norm(r)) <= tol_abs:
            break
        mu *= RHO
    return gram.solve(B.T @ (b - e)), e
