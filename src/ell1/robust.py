"""Corruption-aware solving: extended dictionaries and alignment problems.

ExtendedDictionary is the implicit horizontal stack [A, s I] that lets any
of the eight solvers absorb gross corruption into an identity block
without ever materializing the d x (n + d) matrix: it implements the
operator protocol of operators.py. cab_solve routes one extended instance
through a chosen solver and splits the answer into the signal and
corruption parts. Queries on one dictionary array share its finiteness
check and dalm's row basis while the array lives and keeps its content.

AlignmentProblem carries the tall-dictionary regression min over (w, e) of
1/2 ||b - B w - e||^2 + lambda ||e||_1, where only the error vector is
sparse. Every aligner factors B once, by the reduced QR B = Q1 R: with
P = I - Q1 Q1^T, minimizing over w leaves an l1 problem in e with
dictionary P and data c = P b, and w follows from R at the returned e.
_reduced_align_solve builds that problem, with P one implicit operator
applied in O(d m), for all four aligners. align_gp_solve, align_ist_solve
and align_homotopy_solve run gpsr_solve, ist_solve and homotopy_solve on
it; align_palm_solve, for the exact-fit form min ||e||_1 subject to
b = B w + e, runs its own multiplier loop over palm's inner solves.
"""

import functools
import weakref
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np

from ell1 import alm
from ell1.alm import _INNER_CAP, _STALL_FLOOR, MU0_SCALE, RHO
from ell1.exceptions import IllConditionedError
from ell1.gradient_projection import gpsr_solve
from ell1.homotopy import homotopy_solve
from ell1.model import ProblemInstance
# chol_factor is not called here: perfbench's tests read robust.chol_factor
from ell1.numerics import _lower_solve, chol_factor, spectral_norm_sq
from ell1.shrinkage import L0, _Accel, ist_solve


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
    finite. row_basis gives dalm its rows once per dictionary.
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
        self._basis = []

    def row_basis(self):
        """dalm's factor R and rows Q^T of [A, sI] (alm._row_basis),
        built on the first call and then kept, read-only, in a list
        that operators on the same dictionary share."""
        if not self._basis:
            R, Qt = alm._row_basis(self)
            R.flags.writeable = Qt.flags.writeable = False
            self._basis.append((R, Qt))
        return self._basis[0]

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
        """[A, sI] diag(w) [A, sI]^T for w >= 0: the A block as one
        symmetric rank-n product B B^T with B = A diag(sqrt(w[:n])), plus
        the diagonal s^2 w[n:]. The result is exactly symmetric."""
        d, n = self.A.shape
        B = self.A * np.sqrt(w[:n])
        M = B @ B.T
        M[np.diag_indices(d)] += self.scale ** 2 * w[n:]
        return M

    def gram_dd(self):
        d = self.A.shape[0]
        M = self.A @ self.A.T
        M[np.diag_indices(d)] += self.scale ** 2
        return M


# id(A) of a caller's dictionary -> (weak reference to A, whose callback
# drops the entry, identity scale, copy of A, basis list of A's operators)
_EXTENDED = {}


def _extended(A, scale):
    """ExtendedDictionary(A, scale), sharing what depends on A alone.

    While the caller's array A holds the content, and the scale is the
    one, of the first operator built on it (each call compares the bits
    of A, so signed zeros too, with a copy taken then), the next
    operators read A unchecked and share the first one's row_basis. An A
    that takes no weak reference (a nested list) is not kept.
    """
    hit = _EXTENDED.get(id(A))
    if (hit is not None and hit[0]() is A and hit[1] == scale and
            np.array_equal(hit[2], np.asarray(A, np.float64).view(np.uint64))):
        op = ExtendedDictionary.__new__(ExtendedDictionary)
        op.A = np.ascontiguousarray(A, dtype=np.float64)
        op.scale, op._basis = scale, hit[3]
        return op
    op = ExtendedDictionary(A, identity_scale=scale)
    try:
        # the callback holds the dict, not the module global (None when A
        # dies at interpreter exit); the reference it gets is pop's default
        ref = weakref.ref(A, functools.partial(_EXTENDED.pop, id(A)))
    except TypeError:
        return op
    _EXTENDED[id(A)] = (ref, scale, op.A.view(np.uint64).copy(), op._basis)
    return op


def _cab_problem(A, b, config):
    """The stacked system b = [A, sI] w with s = 1 / option "e_weight"."""
    e_weight = float(config.opt("e_weight", 1.0))
    if not e_weight > 0:
        raise ValueError("e_weight must be positive")
    return ProblemInstance(_extended(A, 1.0 / e_weight), b)


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


def _reduced_align_solve(prob, lam, solve):
    """Solve an alignment objective as an l1 problem in e alone.

    With B = Q1 R and P = I - Q1 Q1^T, minimizing over w leaves a problem
    in e with dictionary P and data c = P b. P is implicit: apply and
    column(j) = e_j - Q1 Q1[j] take products with the d x m Q1, and
    adjoint returns its argument, which is P^T r for every r in range(P),
    where c and every residual of the problem lie. solve(P, c, lam)
    returns e; w = R^{-1} Q1^T (b - e). lam=None takes
    _default_align_lambda, whose zero weight, for b in range(B) to
    roundoff, returns the exact least-squares fit with e = 0.
    Returns (w, e).
    """
    Q1, R = _column_gram_factor(prob.B)

    def column(j):
        out = np.zeros(prob.d)
        out[j] = 1.0
        out -= Q1 @ Q1[j]
        return out
    P = SimpleNamespace(shape=(prob.d, prob.d),
                        apply=lambda v: v - Q1 @ (Q1.T @ v),
                        adjoint=lambda r: r, column=column)
    c = P.apply(prob.b)
    if lam is None:
        lam = _default_align_lambda(prob, c)
        if lam == 0.0:  # b lies in range(B): the least-squares fit is exact
            return _lower_solve(R.T, Q1.T @ prob.b, 1), np.zeros(prob.d)
    e = solve(P, c, lam)
    return _lower_solve(R.T, Q1.T @ (prob.b - e), 1), e


def _penalized_align_solve(prob, lam, config, solver):
    """_reduced_align_solve with solver, a penalized solver, run with
    config at weight lam, else config.lam, else the default."""
    return _reduced_align_solve(
        prob, config.lam if lam is None else lam,
        lambda P, c, weight: solver(ProblemInstance(P, c),
                                    replace(config, lam=weight)).x_star)


def align_gp_solve(prob, lam, config):
    """Gradient projection (GPSR) on the alignment objective.

    Runs gpsr_solve on the reduced problem in e (see _reduced_align_solve)
    and solves for w with R. lam=None uses config.lam, else 1e-2 of the
    peak least-squares residual. Returns (w, e).
    """
    return _penalized_align_solve(prob, lam, config, gpsr_solve)


def align_homotopy_solve(prob, config):
    """Regularization path of the alignment objective in the error block.

    Runs homotopy_solve on the reduced problem in e (see
    _reduced_align_solve) from the least-squares fit (e = 0, weight at the
    peak residual) down to config.lam, default 1e-2 of the peak residual,
    and solves for w with R. Returns (w, e).
    """
    return _penalized_align_solve(prob, None, config, homotopy_solve)


def align_ist_solve(prob, lam, config):
    """Soft-threshold iterations on the alignment objective.

    Runs ist_solve, with its warm-started continuation down to lam, on the
    reduced problem in e (see _reduced_align_solve) and solves for w with
    R. lam=None uses config.lam, else 1e-2 of the peak least-squares
    residual. Returns (w, e).
    """
    return _penalized_align_solve(prob, lam, config, ist_solve)


def align_palm_solve(prob, config):
    """Multiplier method for the exact-fit form: min ||e||_1, b = B w + e.

    Each outer step solves 1/2 ||P e - c - y/mu||^2 + ||e||_1 / mu, on the
    reduced problem of _reduced_align_solve, loosely with palm's inner
    solve (shrinkage._Accel.solve), whose buffers keep e and the carried
    residual across outer steps; there the gradient is the residual. y and
    mu move as in palm_solve, from mu0 = alm.MU0_SCALE d / ||c||_1,
    so b -> s b gives (s w, s e) for s a power of 2. Converges when
    ||P (b - e)||, the fit residual at the returned w, is at most
    config.tol * ||b||; config.max_iter caps the inner steps. It keeps
    this loop rather than calling palm_solve, whose outer step forms
    b - A x afresh, where this loop reads the residual the inner solve
    carries. For b in range(B), e = 0 and w is the least-squares fit.
    Returns (w, e).
    """

    def multiplier_loop(P, c, _):
        tol_abs = config.tol * float(np.linalg.norm(prob.b))
        y = np.zeros(prob.d)
        mu = mu0 = MU0_SCALE * prob.d / float(np.sum(np.abs(c)))
        # e and the residual r = P e - c - y/mu stay in the step's buffers
        acc = _Accel(P, prob.d, prob.d, L0)
        np.negative(c, out=acc.r)
        it = 0
        while it < config.max_iter:
            steps, _, _ = acc.solve(1.0 / mu, 1e-2 * mu0 / mu,
                                    min(_INNER_CAP, config.max_iter - it))
            it += steps
            # r is the carried P e - c - y/mu, so the multiplier step
            # y + mu (c - P e) is -mu r and needs no product
            fit = acc.r + y / mu
            if float(np.linalg.norm(fit)) <= tol_abs:
                break
            y = -mu * acc.r
            mu *= RHO
            np.subtract(fit, y / mu, out=acc.r)
        return acc.x.copy()

    return _reduced_align_solve(prob, None, multiplier_loop)
