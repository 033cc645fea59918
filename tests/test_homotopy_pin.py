"""Bitwise pin of homotopy's breakpoint arithmetic.

The reference below is the path solver as it read before its breakpoints
called numpy's ufuncs and LAPACK directly: _gammas, the path_weight rule,
_ActiveSet and homotopy_solve verbatim, with the factor helpers they drove
(CholFactor.solve, chol_append and the keyword call of LAPACK trtrs).
Only the names of those helpers differ. The solver must give the same step
lengths and event indices, and whole runs the same answers, iteration
counts and converged flags, bit for bit: the rewrite may move the speed,
not the float operations.
"""

import numpy as np
import pytest
from scipy.linalg import LinAlgError

from ell1 import homotopy, numerics, robust, synth
from ell1.exceptions import NotPositiveDefiniteError
from ell1.homotopy import _MIN_STEP_REL, _REFRESH, _TIE, homotopy_solve
from ell1.model import (Monitor, ProblemInstance, SolverConfig,
                        kkt_from_correlation)
from ell1.numerics import _TRTRS, chol_delete, chol_factor
from ell1.operators import as_operator

# --- reference: the breakpoint as it read, verbatim -------------------------


def ref_lower_solve(L, rhs, trans, overwrite=0):
    y, info = _TRTRS(L, rhs, lower=1, trans=trans, overwrite_b=overwrite)
    if info > 0:
        raise LinAlgError("singular matrix: resolution failed at diagonal %d"
                          % (info - 1))
    return y


def ref_solve(factor, rhs):
    """CholFactor.solve."""
    rhs = np.asarray(rhs, dtype=np.float64)
    if not np.isfinite(rhs).all():
        raise ValueError("array must not contain infs or NaNs")
    if rhs.shape[0] != factor.dim:
        raise ValueError("rhs length %d does not match factor dim %d"
                         % (rhs.shape[0], factor.dim))
    if not rhs.size:
        return np.zeros(rhs.shape)
    y = ref_lower_solve(factor.R.T, rhs, 0)
    return ref_lower_solve(factor.R.T, y, 1, overwrite=1)


def ref_chol_append(factor, gram_col, diag):
    m = factor.dim
    g = numerics._as_vector(gram_col)
    if g.shape[0] != m:
        raise ValueError("gram column length %d does not match factor dim %d"
                         % (g.shape[0], m))
    u = ref_lower_solve(factor.R.T, g, 0) if m else g
    # a non-finite u makes u @ u, and so d2, non-finite too
    d2 = float(diag) - float(u @ u)
    if not np.isfinite(d2):
        raise ValueError("new diagonal entry must be finite")
    if d2 <= 0.0:
        raise NotPositiveDefiniteError("appended column makes the matrix singular")
    out = np.empty((m + 1, m + 1))
    out[:m, :m] = factor.R
    out[:m, m] = u
    out[m, :m] = 0.0
    out[m, m] = np.sqrt(d2)
    return numerics.CholFactor._unchecked(out)


class RefActiveSet:

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
            self.chol = ref_chol_append(self.chol, g[:-1], float(g[-1]))
        except NotPositiveDefiniteError:
            self._ridge()

    def remove(self, pos):
        k = self.k
        self._block[:, pos:k - 1] = self._block[:, pos + 1:k]
        self._idx[pos:k - 1] = self._idx[pos + 1:k]
        self.k = k - 1
        self.chol = chol_delete(self.chol, pos)

    def direction(self, sgn):
        if not self.k:
            return np.zeros(0), np.zeros(self._D.shape[1])
        d_I = ref_solve(self.chol, sgn)
        w = self._D.adjoint(self.cols @ d_I)
        tol = 1e-6 * max(1.0, float(np.linalg.norm(sgn)))
        if np.linalg.norm(w[self.support] - sgn) <= tol:
            return d_I, w
        G = self.cols.T @ self.cols
        try:
            self.chol = chol_factor(G)
        except NotPositiveDefiniteError:
            solved = False
        else:
            d_I = ref_solve(self.chol, sgn)
            solved = np.linalg.norm(G @ d_I - sgn) <= tol
        if not solved:
            self._ridge()
            d_I = ref_solve(self.chol, sgn)
        return d_I, self._D.adjoint(self.cols @ d_I)

    def _ridge(self):
        G = self.cols.T @ self.cols
        G[np.diag_indices_from(G)] += 1e-12 * max(np.trace(G), 1.0)
        if "ridge-regularized gram" not in self._notes:
            self._notes.append("ridge-regularized gram")
        self.chol = chol_factor(G)


def ref_gammas(lam, c, w, x_I, d_I, support, ratio, den):
    n = c.shape[0]
    floor = _MIN_STEP_REL * max(lam, 1e-30)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.subtract(lam, c, out=ratio[0])
        np.add(lam, c, out=ratio[1])
        np.subtract(1.0, w, out=den[0])
        np.add(1.0, w, out=den[1])
        np.divide(ratio, den, out=ratio)
        r = -x_I / d_I
    np.putmask(ratio, ~(ratio > floor), np.inf)
    ratio[:, support] = np.inf
    j = int(ratio.argmin())
    gamma_plus = float(ratio.flat[j])
    gamma_minus = float(r.min(initial=np.inf, where=r > 0))
    i_plus = j % n if gamma_plus < np.inf else -1
    i_minus = (int(support.min(initial=n, where=r == gamma_minus))
               if gamma_minus < np.inf else -1)
    return gamma_plus, i_plus, gamma_minus, i_minus


def ref_homotopy_solve(P, config, observer=None):
    D = as_operator(P.A)
    b = P.b
    c = D.adjoint(b)
    target_lambda = config.resolved_lambda(c)
    _, n = D.shape
    mon = Monitor(config, b, P.ground_truth, observer)
    x = np.zeros(n)
    lam0 = float(np.max(np.abs(c))) if n else 0.0

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
        lam_emp = float(np.max(np.abs(c)))
        if (abs(lam_emp - lam_step) <= 1e-9 * max(lam_step, 1e-30)
                or not active.k):
            return lam_step
        return lam_emp

    if lam0 <= target_lambda or lam0 == 0.0:
        # zero is already optimal at the target
        return mon.trivial(n, target_lambda)

    lam = lam0
    j0 = int(np.argmax(np.abs(c)))
    active = RefActiveSet(D, j0, mon.notes)
    ratio, den = np.empty((2, n)), np.empty((2, n))  # _gammas' buffers
    converged = False
    it = 0
    finish_floor = max(target_lambda, 1e-12 * lam0)

    while it < config.max_iter:
        it += 1
        support = active.support
        d_I, w = active.direction(np.sign(c[support]))
        g_plus, i_plus, g_minus, i_minus = ref_gammas(
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
            pos = int(np.flatnonzero(support == i_minus)[0])
            x[i_minus] = 0.0
            active.remove(pos)
        else:
            active.add(i_plus)
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
        if lam <= finish_floor or mon.rule_met(
                x, obj, lambda: kkt_from_correlation(x, c, target_lambda)):
            converged = True
            break

    return mon.result(x, it, converged)


# --- step lengths ----------------------------------------------------------


def same_bits(a, b):
    """Equal as float64 bytes: -0.0 and +0.0 differ, NaNs must match."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_gammas(lam, c, w, x_I, d_I, support):
    n = c.shape[0]
    got = homotopy._gammas(lam, c, w, x_I, d_I, support,
                           np.empty((2, n)), np.empty((2, n)))
    ref = ref_gammas(lam, c, w, x_I, d_I, support,
                     np.empty((2, n)), np.empty((2, n)))
    assert same_bits(got[0::2], ref[0::2]), (got, ref)
    assert got[1::2] == ref[1::2], (got, ref)
    assert all(type(v) is type(u) for v, u in zip(got, ref))
    return got


def snapshot(seed, n=60, k=8, lam=0.7):
    """A random mid-path snapshot: on-support correlations at +-lam,
    off-support ones inside the band, a random direction."""
    rng = np.random.default_rng(seed)
    support = rng.choice(n, size=k, replace=False).astype(np.intp)
    c = rng.uniform(-lam, lam, size=n)
    x_I = rng.standard_normal(k)
    c[support] = lam * np.sign(x_I)
    w = rng.standard_normal(n)
    w[support] = np.sign(x_I)
    return lam, c, w, x_I, rng.standard_normal(k), support


@pytest.mark.parametrize("seed", range(40))
def test_random_snapshots(seed):
    assert_same_gammas(*snapshot(seed))


def test_remove_ties_go_to_the_lower_column():
    lam, c, w, _, _, _ = snapshot(1, n=20)
    support = np.array([12, 3, 7], dtype=np.intp)
    x_I = np.array([1.0, -2.0, 3.0])
    d_I = np.array([-0.5, 1.0, -1.5])  # all three reach zero at gamma 2
    got = assert_same_gammas(lam, c, w, x_I, d_I, support)
    assert got[2:] == (2.0, 3)


def test_unit_w_off_the_support():
    # w = +-1 zeroes a denominator: 0/0 where c sits at +-lam, +-inf
    # elsewhere; neither may become a step
    lam, c, w, x_I, d_I, support = snapshot(2)
    off = np.setdiff1d(np.arange(c.shape[0]), support)[:6]
    w[off] = [1.0, -1.0, 1.0, -1.0, 1.0, -1.0]
    c[off[:2]] = [lam, -lam]
    got = assert_same_gammas(lam, c, w, x_I, d_I, support)
    assert got[1] not in off[:2]


def test_no_positive_remove_ratio():
    # ratios -1, NaN (0/0), -inf, +inf and -0.0
    lam, c, w, _, _, support = snapshot(3, k=5)
    x_I = np.array([1.0, 0.0, 2.0, -2.0, 0.0])
    d_I = np.array([1.0, 0.0, 0.0, 0.0, 1.0])
    got = assert_same_gammas(lam, c, w, x_I, d_I, support)
    assert got[2:] == (np.inf, -1)


def test_nan_correlation():
    lam, c, w, x_I, d_I, support = snapshot(4)
    off = np.setdiff1d(np.arange(c.shape[0]), support)
    c[off[:3]] = np.nan
    got = assert_same_gammas(lam, c, w, x_I, d_I, support)
    assert got[1] not in off[:3]


def test_every_add_ratio_below_the_floor():
    lam, c, w, x_I, d_I, support = snapshot(5)
    c[:] = lam  # every lam - c is 0 and every lam + c is 2 lam
    w[:] = -3.0  # so (lam + c) / (1 + w) < 0: no add step
    got = assert_same_gammas(lam, c, w, x_I, d_I, support)
    assert got[:2] == (np.inf, -1)


# --- whole runs ------------------------------------------------------------


@pytest.fixture
def recorded_gammas(monkeypatch):
    """Every _gammas call of a run, checked against the reference on
    copies of its arguments, so mid-path snapshots of real paths are
    compared too. Returns the list of compared calls."""
    calls = []
    solver_gammas = homotopy._gammas

    def checked(lam, c, w, x_I, d_I, support, ratio, den):
        args = (lam, c.copy(), np.array(w), x_I.copy(), d_I.copy(),
                support.copy())
        got = solver_gammas(lam, c, w, x_I, d_I, support, ratio, den)
        n = c.shape[0]
        ref = ref_gammas(*args, np.empty((2, n)), np.empty((2, n)))
        assert same_bits(got[0::2], ref[0::2]) and got[1::2] == ref[1::2]
        calls.append(got)
        return got

    monkeypatch.setattr(homotopy, "_gammas", checked)
    return calls


def assert_same_run(res, ref):
    assert same_bits(res.x_star, ref.x_star)
    assert res.iterations == ref.iterations
    assert res.converged == ref.converged
    assert res.notes == ref.notes


@pytest.mark.parametrize("case", ["dense", "cab", "align"])
def test_runs_are_bitwise_the_reference(case, solved_on, recorded_gammas):
    P, cfg, res = solved_on(case, "homotopy")
    assert res.converged and res.iterations > 10
    assert len(recorded_gammas) == res.iterations
    assert_same_run(res, ref_homotopy_solve(P, cfg))


@pytest.mark.parametrize("case", ["dense", "cab", "align"])
def test_watched_runs_give_the_reference_events(case, solved_on):
    P, cfg, _ = solved_on(case, "homotopy")
    events, ref_events = [], []
    res = homotopy_solve(P, cfg, events.append)
    ref = ref_homotopy_solve(P, cfg, ref_events.append)
    assert_same_run(res, ref)
    assert len(events) == len(ref_events) == res.iterations
    for e, f in zip(events, ref_events):
        assert e.iteration == f.iteration
        assert same_bits(e.objective, f.objective)
        assert same_bits(e.residual_norm, f.residual_norm)
        assert same_bits(e.x, f.x) and same_bits(e.weight, f.weight)
        assert same_bits(e.state["c"], f.state["c"])
        assert np.array_equal(e.state["support"], f.state["support"])
        assert same_bits(e.state["chol"].R, f.state["chol"].R)


def noisy(seed, n=300, d=120, k=15):
    return synth.make_instance(synth.GenSpec(n=n, d=d, k=k, seed=seed,
                                             noise_sigma=0.01))


@pytest.mark.parametrize("seed", [31, 32, 33])
def test_long_paths_with_removals(seed):
    # a small weight: long paths that drop columns and refresh often
    P = noisy(seed)
    lam = 1e-3 * float(np.max(np.abs(P.A.T @ P.b)))
    cfg = SolverConfig(lam=lam, max_iter=2000)
    res, ref = homotopy_solve(P, cfg), ref_homotopy_solve(P, cfg)
    assert res.iterations > 3 * _REFRESH
    assert_same_run(res, ref)


def test_budget_stop_is_the_reference_but_for_its_note():
    P = noisy(34)
    cfg = SolverConfig(lam=0.0, max_iter=25)
    res, ref = homotopy_solve(P, cfg), ref_homotopy_solve(P, cfg)
    assert not res.converged and res.iterations == 25
    assert same_bits(res.x_star, ref.x_star)
    assert ref.notes == ()
    assert res.notes == ("iteration budget exhausted",)


def test_degenerate_dictionaries_are_the_reference():
    # a duplicated column (w = +-1 off the support, a singular Gram) and
    # a zero column
    P = noisy(35, n=60, d=30, k=4)
    A = P.A.copy()
    A[:, 7] = A[:, 3]
    A[:, 11] = 0.0
    b = A @ P.ground_truth
    for lam_frac in (1e-1, 1e-3):
        cfg = SolverConfig(lam=lam_frac * float(np.max(np.abs(A.T @ b))),
                           max_iter=500)
        inst = ProblemInstance(A, b)
        assert_same_run(homotopy_solve(inst, cfg),
                        ref_homotopy_solve(inst, cfg))


def test_projector_column_is_the_unit_row_minus_q1():
    rng = np.random.default_rng(8)
    B = rng.standard_normal((40, 5))
    prob = robust.AlignmentProblem(B, B @ rng.standard_normal(5)
                                   + rng.standard_normal(40))
    Q1, _ = robust._column_gram_factor(B)
    seen = []
    robust._reduced_align_solve(prob, 0.1,
                                lambda P, c, lam: seen.append(P) or c)
    (P,) = seen
    for j in range(prob.d):
        assert same_bits(P.column(j), np.eye(1, prob.d, j)[0] - Q1 @ Q1[j])
