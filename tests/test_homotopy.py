"""Tests for the solution-path solver."""

import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from ell1 import homotopy, numerics, robust, synth
from ell1.homotopy import homotopy_solve
from ell1.model import (ProblemInstance, SolverConfig, StoppingRule,
                        kkt_from_correlation)
from ell1.operators import DenseDictionary, as_operator


def make_state(A, support, x, lam, c):
    return SimpleNamespace(x=x, support=list(support), lam=lam, c=c)


def active_set(A, support, notes=None):
    """The solver's active set over the columns support of A, added in
    that order."""
    active = homotopy._ActiveSet(DenseDictionary(A), support[0],
                                 [] if notes is None else notes)
    for j in support[1:]:
        active.add(j)
    return active


def update_direction(st, A):
    """Full-length path direction at a snapshot: the solver's active-set
    solve on the support, zero elsewhere."""
    support = np.asarray(st.support, dtype=np.intp)
    d_I, _ = active_set(A, st.support).direction(np.sign(st.c[support]))
    d = np.zeros(st.x.shape[0])
    d[st.support] = d_I
    return d


def breakpoint_gammas(st, d, A):
    """The solver's step lengths to the next add and remove events, from
    the full-length direction d at a snapshot."""
    support = np.asarray(st.support, dtype=np.intp)
    w = A.T @ (A[:, support] @ d[support])
    n = st.c.shape[0]
    return homotopy._gammas(st.lam, st.c, w, st.x[support], d[support],
                            support, np.empty((2, n)), np.empty((2, n)))


def random_state(seed):
    """Random 10x20 mid-path snapshot with consistent on-support signs."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((10, 20))
    A /= np.linalg.norm(A, axis=0)
    support = [3, 7, 12, 18]
    x = np.zeros(20)
    x[support] = rng.standard_normal(4)
    lam = 0.7
    c = rng.uniform(-0.6, 0.6, size=20)
    c[support] = lam * np.sign(x[support])
    return make_state(A, support, x, lam, c), A


# --- path direction --------------------------------------------------------


def test_direction_orthonormal_single_column():
    A = np.eye(3)
    st = make_state(A, [1], np.zeros(3), 0.9, np.array([0.2, 0.9, -0.1]))
    d = update_direction(st, A)
    assert d[1] == 1.0  # unit Gram: direction equals the sign
    assert d[0] == 0.0 and d[2] == 0.0


def test_direction_dense_2x2():
    # columns with inner product 1/2; solving the 2x2 system for signs [1,1]
    A = np.array([[1.0, 0.5], [0.0, np.sqrt(0.75)]])
    st = make_state(A, [0, 1], np.zeros(2), 1.0, np.array([1.0, 1.0]))
    d = update_direction(st, A)
    assert np.allclose(d, [2.0 / 3.0, 2.0 / 3.0], rtol=0, atol=1e-12)


def test_direction_off_support_exactly_zero():
    st, A = random_state(1234)
    d = update_direction(st, A)
    off = np.setdiff1d(np.arange(20), st.support)
    assert np.all(d[off] == 0.0)


def test_direction_refactors_a_stale_factor():
    # a factor of some other Gram misses sgn on the support, so the
    # direction comes from a dense refactorization of the true Gram
    st, A = random_state(1234)
    notes = []
    active = active_set(A, st.support, notes)
    active.chol = numerics.chol_factor(np.eye(4))
    sgn = np.sign(st.c[st.support])
    d_I, w = active.direction(sgn)
    B = A[:, st.support]
    np.testing.assert_allclose(B.T @ B @ d_I, sgn, rtol=0, atol=1e-12)
    np.testing.assert_allclose(w, A.T @ (B @ d_I), rtol=0, atol=1e-12)
    np.testing.assert_allclose(active.chol.matrix(), B.T @ B,
                               rtol=0, atol=1e-13)
    assert not notes


def test_direction_singular_gram_ridges():
    # duplicated column: the active-set Gram is rank 1, so a stale factor's
    # dense refactorization fails and the direction comes from the ridge
    A = np.array([[1.0, 1.0], [0.0, 0.0]])
    notes = []
    active = active_set(A, [0, 1], notes)
    active.chol = numerics.chol_factor(np.eye(2))
    d_I, w = active.direction(np.array([1.0, 1.0]))
    assert np.all(np.isfinite(d_I)) and np.all(np.isfinite(w))
    np.testing.assert_allclose(w, [1.0, 1.0], rtol=0, atol=1e-9)
    assert notes == ["ridge-regularized gram"]


def test_add_dependent_column_ridges():
    # the appended column repeats an active one, so the extended Gram is
    # singular and the factor is of the Gram plus 1e-12 trace(G) I instead
    A = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    notes = []
    active = active_set(A, [0, 1], notes)
    assert not notes
    active.add(2)
    assert notes == ["ridge-regularized gram"]
    assert active.support.tolist() == [0, 1, 2]
    np.testing.assert_allclose(active.chol.matrix(),
                               A.T @ A + 3e-12 * np.eye(3),
                               rtol=0, atol=1e-14)


# --- breakpoint step lengths -----------------------------------------------


def test_gammas_removal_formula():
    A = np.eye(2)
    st = make_state(A, [0], np.array([2.0, 0.0]), 1.0, np.array([1.0, 0.3]))
    d = np.array([-0.5, 0.0])
    gp, ip, gm, im = breakpoint_gammas(st, d, A)
    assert gm == 4.0 and im == 0  # -x0/d0
    assert gp == pytest.approx(0.7, abs=1e-15) and ip == 1


def test_gammas_full_support_gives_infinite_add():
    A = np.eye(2)
    st = make_state(A, [0, 1], np.array([2.0, 1.0]), 1.0, np.array([1.0, 1.0]))
    d = np.array([1.0, 1.0])
    gp, ip, _, _ = breakpoint_gammas(st, d, A)
    assert gp == np.inf and ip == -1


def oracle_gammas(lam, c, x, d, w, support):
    """Plain-loop enumeration of every add/remove candidate ratio."""
    floor = 1e-10 * lam
    gp, ip = float("inf"), -1
    for i in range(c.shape[0]):
        if i in support:
            continue
        for num, den in ((lam - c[i], 1.0 - w[i]), (lam + c[i], 1.0 + w[i])):
            if den == 0.0:
                continue
            r = num / den
            if math.isfinite(r) and r > floor and r < gp:
                gp, ip = r, i
    gm, im = float("inf"), -1
    for i in support:
        if d[i] != 0.0:
            r = -x[i] / d[i]
            if math.isfinite(r) and r > 0.0 and r < gm:
                gm, im = r, i
    return gp, ip, gm, im


def test_gammas_frozen_cases():
    st, A = random_state(1234)
    d = update_direction(st, A)
    gp, ip, gm, im = breakpoint_gammas(st, d, A)
    assert gp == pytest.approx(0.062196515846916718, rel=1e-12) and ip == 14
    assert gm == np.inf and im == -1

    st, A = random_state(1235)
    d = update_direction(st, A)
    gp, ip, gm, im = breakpoint_gammas(st, d, A)
    assert gp == pytest.approx(0.10713572596767527, rel=1e-12) and ip == 1
    assert gm == pytest.approx(0.19888143972140085, rel=1e-12) and im == 12


def test_gammas_remove_tie_goes_to_the_lower_column():
    # support held out of index order: both entries reach zero at gamma 2
    A = np.eye(20)
    x = np.zeros(20)
    x[12], x[3] = 1.0, -2.0
    c = np.full(20, 0.1)
    c[12], c[3] = 1.0, -1.0
    st = make_state(A, [12, 3], x, 1.0, c)
    d = np.zeros(20)
    d[12], d[3] = -0.5, 1.0
    _, _, gm, im = breakpoint_gammas(st, d, A)
    assert gm == 2.0 and im == 3


def test_gammas_no_positive_finite_remove_ratio():
    # ratios -1 (moving away from zero), NaN (0/0), -inf, +inf and -0.0
    A = np.eye(10)
    support = [1, 4, 6, 8, 9]
    x = np.zeros(10)
    x[support] = [1.0, 0.0, 2.0, -2.0, 0.0]
    c = np.full(10, 0.1)
    c[support] = [1.0, 1.0, 1.0, -1.0, 1.0]
    st = make_state(A, support, x, 1.0, c)
    d = np.zeros(10)
    d[support] = [1.0, 0.0, 0.0, 0.0, 1.0]
    _, _, gm, im = breakpoint_gammas(st, d, A)
    assert gm == np.inf and im == -1


def test_gammas_match_exhaustive_enumeration():
    for seed in range(3000, 3030):
        st, A = random_state(seed)
        d = update_direction(st, A)
        w = A.T @ (A[:, st.support] @ d[st.support])
        expected = oracle_gammas(st.lam, st.c, st.x, d, w, set(st.support))
        got = breakpoint_gammas(st, d, A)
        assert got[1] == expected[1] and got[3] == expected[3]
        assert got[0] == pytest.approx(expected[0], rel=1e-12)
        assert got[2] == pytest.approx(expected[2], rel=1e-12)


# --- homotopy_solve --------------------------------------------------------


def test_solve_identity_reaches_soft_threshold():
    P = ProblemInstance(np.eye(2), np.array([3.0, 1.0]))
    events = []
    r = homotopy_solve(P, SolverConfig(lam=1.0), events.append)
    assert np.allclose(r.x_star, [2.0, 0.0], rtol=0, atol=1e-12)
    assert r.converged and r.iterations == 1
    assert len(events) == r.iterations


def test_solve_zero_rhs():
    P = ProblemInstance(np.eye(2), np.zeros(2))
    events = []
    r = homotopy_solve(P, SolverConfig(lam=0.0), events.append)
    assert np.all(r.x_star == 0.0)
    assert r.converged and r.iterations == 0
    assert len(events) == 1


def test_solve_target_above_start_returns_zero():
    P = ProblemInstance(np.eye(2), np.array([3.0, 1.0]))
    r = homotopy_solve(P, SolverConfig(lam=10.0))
    assert np.all(r.x_star == 0.0) and r.converged and r.iterations == 0


def test_solve_negative_target_rejected():
    P = ProblemInstance(np.eye(2), np.array([3.0, 1.0]))
    with pytest.raises(ValueError):
        homotopy_solve(P, SolverConfig(lam=-0.5))


def test_solve_recovers_sparse_signal_exactly():
    rng = np.random.default_rng(7)
    A = rng.standard_normal((100, 200))
    A /= np.linalg.norm(A, axis=0)
    x0 = np.zeros(200)
    sup = rng.choice(200, 5, replace=False)
    x0[sup] = rng.standard_normal(5)
    r = homotopy_solve(ProblemInstance(A, A @ x0), SolverConfig(lam=0.0))
    assert r.converged
    assert r.iterations <= 5 + 3  # one add per true atom plus small slack
    assert np.linalg.norm(r.x_star - x0) <= 1e-8 * np.linalg.norm(x0)
    got = set(np.flatnonzero(np.abs(r.x_star) > 1e-10 * np.max(np.abs(r.x_star))))
    assert got == set(sup)


def test_solve_budget_exhaustion_keeps_best_iterate():
    P = ProblemInstance(np.eye(2), np.array([3.0, 1.0]))
    r = homotopy_solve(P, SolverConfig(lam=0.0, max_iter=1))
    assert not r.converged and r.iterations == 1
    assert np.allclose(r.x_star, [2.0, 0.0], atol=1e-12)


# --- path invariants -------------------------------------------------------

_STATE_CACHE = {}


def path_run(seed):
    """One noisy instance driven to 5% of the starting lambda, with the
    event of every breakpoint captured."""
    if seed not in _STATE_CACHE:
        shapes = [(25, 50), (30, 60), (40, 80)]
        d, n = shapes[seed % 3]
        k = 1 + seed % 8
        spec = synth.GenSpec(n=n, d=d, k=k, seed=seed, noise_sigma=0.03)
        P = synth.make_instance(spec)
        lam0 = float(np.max(np.abs(P.A.T @ P.b)))
        events = []
        homotopy_solve(P, SolverConfig(lam=0.05 * lam0, max_iter=400),
                       observer=events.append)
        _STATE_CACHE[seed] = (P, events)
    return _STATE_CACHE[seed]


@pytest.mark.invariant
def test_invariant_state_conditions_every_breakpoint():
    checked = 0
    for seed in range(400, 510):
        P, events = path_run(seed)
        for e in events:
            lam, c, support = e.weight, e.state["c"], e.state["support"]
            cs = c[support]
            assert np.all(np.abs(np.abs(cs) - lam) <= 1e-6 * lam)
            assert np.all(np.abs(c) <= lam * (1 + 1e-6))
            xs = e.x[support]
            live = xs != 0.0
            assert np.all(np.sign(xs[live]) == np.sign(cs[live]))
            checked += 1
    assert checked >= 1000  # plenty of breakpoints across 110 runs


@pytest.mark.invariant
def test_invariant_lambda_strictly_decreasing():
    for seed in range(400, 510):
        _, events = path_run(seed)
        lams = [e.weight for e in events]
        assert all(a > b for a, b in zip(lams, lams[1:]))


@pytest.mark.invariant
def test_invariant_maintained_factor_matches_fresh():
    for seed in range(400, 510):
        P, events = path_run(seed)
        for e in events:
            support = e.state["support"]
            if not support.size:
                continue
            G = P.A[:, support].T @ P.A[:, support]
            fresh = numerics.chol_factor(G)
            diff = np.max(np.abs(e.state["chol"].matrix() - fresh.matrix()))
            assert diff <= 1e-8


@pytest.mark.invariant
def test_invariant_support_recovery_rate():
    n = 256
    hits = 0
    for trial in range(100):
        rng = np.random.default_rng(synth.trial_seed(91, trial))
        k = int(rng.integers(1, 11))
        d = int(np.ceil(4 * k * np.log(n)))
        spec = synth.GenSpec(n=n, d=d, k=k, seed=synth.trial_seed(92, trial))
        P = synth.make_instance(spec)
        r = homotopy_solve(P, SolverConfig(lam=0.0, max_iter=400))
        got = np.flatnonzero(np.abs(r.x_star) > 1e-8)
        if r.converged and set(got) == set(np.flatnonzero(P.ground_truth)):
            hits += 1
    assert hits >= 95


def test_no_fresh_factorization_on_clean_path(monkeypatch):
    calls = []
    orig = numerics.chol_factor
    monkeypatch.setattr(numerics, "chol_factor",
                        lambda G: calls.append(1) or orig(G))
    rng = np.random.default_rng(7)
    A = rng.standard_normal((100, 200))
    A /= np.linalg.norm(A, axis=0)
    x0 = np.zeros(200)
    x0[rng.choice(200, 5, replace=False)] = rng.standard_normal(5)
    homotopy_solve(ProblemInstance(A, A @ x0), SolverConfig(lam=0.0))
    assert not calls  # rank-1 updates only inside the loop


def test_factor_updates_match_support_changes(monkeypatch):
    # perfbench's tracer counts factor updates by patching these two
    # names on numerics: every growth of the support is one chol_append
    # (the first column included) and every shrink one chol_delete
    calls = {"chol_append": 0, "chol_delete": 0}
    for name in calls:
        orig = getattr(numerics, name)

        def counted(*args, _name=name, _orig=orig):
            calls[_name] += 1
            return _orig(*args)

        monkeypatch.setattr(numerics, name, counted)
    P = synth.make_instance(synth.GenSpec(n=500, d=200, k=20, seed=25,
                                          noise_sigma=0.01))
    lam = 0.01 * float(np.max(np.abs(P.A.T @ P.b)))
    events = []
    res = homotopy_solve(P, SolverConfig(lam=lam, max_iter=1000),
                         events.append)
    assert res.converged
    sizes = np.diff([0, 1] + [e.state["support"].size for e in events])
    assert calls["chol_append"] == np.sum(sizes > 0)
    assert calls["chol_delete"] == np.sum(sizes < 0) > 0


def test_breakpoints_never_gather_columns():
    # the active columns live in the solver's own block: a dictionary whose
    # gather methods raise still gives the same path, bitwise
    class NoGathers(DenseDictionary):
        def apply_columns(self, idx, coeffs):
            raise AssertionError("apply_columns called")

        def columns_dot(self, idx, v):
            raise AssertionError("columns_dot called")

        def gram_column(self, idx, j):
            raise AssertionError("gram_column called")

    P = synth.make_instance(synth.GenSpec(n=500, d=200, k=20, seed=25,
                                          noise_sigma=0.01))
    lam = 0.01 * float(np.max(np.abs(P.A.T @ P.b)))
    config = SolverConfig(lam=lam, max_iter=1000)
    ref = homotopy_solve(P, config)
    got = homotopy_solve(ProblemInstance(NoGathers(P.A), P.b), config)
    assert ref.converged and ref.iterations > 50
    assert got.iterations == ref.iterations and got.converged
    assert got.x_star.tobytes() == ref.x_star.tobytes()
    c = P.A.T @ (P.b - P.A @ got.x_star)
    assert kkt_from_correlation(got.x_star, c, lam) <= 1e-9 * lam


def test_one_adjoint_per_breakpoint(counting_view):
    # between refreshes the correlations are updated by c - gamma w, so a
    # breakpoint's only product with A is the adjoint w = A^T (D_I d_I)
    P = synth.make_instance(synth.GenSpec(n=500, d=200, k=20, seed=25,
                                          noise_sigma=0.01))
    lam = 0.01 * float(np.max(np.abs(P.A.T @ P.b)))
    P.A, count = counting_view(P.A)
    res = homotopy_solve(P, SolverConfig(lam=lam, max_iter=1000))
    assert res.converged and res.iterations > 50
    assert count[0] <= 1.1 * res.iterations


def test_residual_is_taken_only_when_fresh_or_watched(counting_view):
    # the active-block residual b - D_I x_I feeds a fresh D^T r and the
    # observer's residual norm, so an unwatched path takes it only at a
    # fresh breakpoint (every _REFRESH-th and the last) and an observed one
    # at every breakpoint, with the same answer
    P = synth.make_instance(synth.GenSpec(n=500, d=200, k=20, seed=25,
                                          noise_sigma=0.01))
    lam = 0.01 * float(np.max(np.abs(P.A.T @ P.b)))
    config = SolverConfig(lam=lam, max_iter=1000)
    b = P.b
    runs = []
    for observer in (None, lambda e: None):
        P.b, count = counting_view(b, np.subtract)
        runs.append((homotopy_solve(P, config, observer), count[0]))
    (plain, unwatched), (observed, watched) = runs
    assert plain.converged and plain.iterations > 50
    assert unwatched <= plain.iterations // homotopy._REFRESH + 1
    assert watched == observed.iterations == plain.iterations
    assert observed.x_star.tobytes() == plain.x_star.tobytes()


@pytest.mark.parametrize("lam_frac, rule_frac, max_iter", [
    (0.01, None, 1000),    # stops at the target weight
    (0.0, None, 1000),     # stops at the path-weight floor
    (0.0, 0.05, 1000),     # stops on a kkt-residual rule
    (0.0, None, 12),       # stops unconverged with the budget spent
])
def test_stop_is_certified_on_fresh_correlations(lam_frac, rule_frac,
                                                 max_iter):
    # the last event's c is D^T r taken afresh, not the updated c - gamma w,
    # so it equals the same products taken outside the solver bit for bit
    P = synth.make_instance(synth.GenSpec(n=200, d=80, k=10, seed=24))
    scale = float(np.max(np.abs(P.A.T @ P.b)))
    rule = rule_frac and StoppingRule("kkt-residual", rule_frac * scale)
    events = []
    res = homotopy_solve(P, SolverConfig(lam=lam_frac * scale, stopping=rule,
                                         max_iter=max_iter),
                         observer=events.append)
    # a stop between the scheduled refreshes
    assert res.converged == (res.iterations < max_iter)
    assert res.iterations % homotopy._REFRESH > 1
    support = events[-1].state["support"]
    c = events[-1].state["c"]
    fresh = P.A.T @ (P.b - P.A[:, support] @ res.x_star[support])
    assert c.tobytes() == fresh.tobytes()
    np.testing.assert_allclose(c, P.A.T @ (P.b - P.A @ res.x_star),
                               rtol=0, atol=1e-12 * scale)


def test_dense_column_is_a_copy():
    A = np.arange(12.0).reshape(3, 4)
    D = DenseDictionary(A)
    col = D.column(2)
    assert col.tobytes() == A[:, 2].copy().tobytes()
    col[:] = -1.0
    assert np.all(A[:, 2] == [2.0, 6.0, 10.0])


class CountedAdjoint:
    """The operator of a solved instance, counting its adjoint products."""

    def __init__(self, A):
        self._D = as_operator(A)
        self.shape = self._D.shape
        self.adjoints = 0

    def adjoint(self, r):
        self.adjoints += 1
        return self._D.adjoint(r)

    def column(self, j):
        return self._D.column(j)


def path_instance(case):
    """A noisy instance whose path runs past several refreshes, on a dense
    dictionary, on cab_solve's implicit [A, I] or on the aligner's
    projector."""
    P = synth.make_instance(synth.GenSpec(n=120, d=60, k=6, seed=9,
                                          noise_sigma=0.01))
    if case == "dense":
        return P
    if case == "cab":
        b_bad, _ = synth.corrupt_entries(P.b, 0.1, -3.0, 3.0, seed=5)
        return robust._cab_problem(P.A, b_bad, SolverConfig())
    rng = np.random.default_rng(7)
    B = rng.standard_normal((200, 12))
    b = B @ rng.standard_normal(12) + 0.01 * rng.standard_normal(200)
    b_bad, _ = synth.corrupt_entries(b, 0.2, -3.0, 3.0, seed=507)
    seen = []
    robust._reduced_align_solve(
        robust.AlignmentProblem(B, b_bad), 1.0,
        lambda P, c, lam: seen.append(ProblemInstance(P, c)) or c)
    return seen[0]


@pytest.mark.parametrize("case", ["dense", "cab", "align"])
def test_breakpoint_work_is_pinned(case, monkeypatch):
    # on a path that never refactors, every breakpoint takes one adjoint
    # w = D^T (D_I d_I) and one factor solve for d_I, and every add one
    # chol_append; the fresh D^T r of every _REFRESH-th and of the last
    # breakpoint and the start's D^T b come on top
    P = path_instance(case)
    lam0 = float(np.max(np.abs(as_operator(P.A).adjoint(P.b))))
    cfg = SolverConfig(lam=1e-3 * lam0, max_iter=5000)
    res = homotopy_solve(P, cfg)
    calls = {"solve": 0, "chol_append": 0, "chol_factor": 0}

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call

    monkeypatch.setattr(numerics.CholFactor, "solve",
                        counted("solve", numerics.CholFactor.solve))
    for name in ("chol_append", "chol_factor"):
        monkeypatch.setattr(numerics, name,
                            counted(name, getattr(numerics, name)))
    D = CountedAdjoint(P.A)
    events = []
    got = homotopy_solve(ProblemInstance(D, P.b), cfg, events.append)
    assert got.x_star.tobytes() == res.x_star.tobytes()
    it = got.iterations
    assert got.converged and it == res.iterations > 2 * homotopy._REFRESH
    assert calls["chol_factor"] == 0
    assert calls["solve"] == it
    assert D.adjoints == 1 + it + (it - 1) // homotopy._REFRESH + 1
    sizes = np.diff([0, 1] + [e.state["support"].size for e in events])
    assert calls["chol_append"] == np.sum(sizes > 0)


@pytest.mark.parametrize("case", ["dense", "cab"])
def test_degenerate_columns_raise_no_runtime_warning(case):
    # a copy of an active column meets the add ratios with w = +-1 and
    # c = +-lam, 0/0, and a zero column with w = c = 0; neither warns
    P = synth.make_instance(synth.GenSpec(n=60, d=30, k=4, seed=35,
                                          noise_sigma=0.01))
    A = P.A.copy()
    j, spare = np.flatnonzero(P.ground_truth)[0], np.flatnonzero(
        P.ground_truth == 0.0)[:2]
    A[:, spare[0]] = A[:, j]
    A[:, spare[1]] = 0.0
    noise = np.random.default_rng(35).standard_normal(30)
    b = A @ P.ground_truth + 0.01 * noise
    lam = 1e-3 * float(np.max(np.abs(A.T @ b)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        if case == "dense":
            res = homotopy_solve(ProblemInstance(A, b), SolverConfig(lam=lam))
        else:
            _, _, res = robust.cab_solve(A, b, "homotopy",
                                         SolverConfig(lam=lam))
    assert res.iterations > 10 and np.all(np.isfinite(res.x_star))
    assert res.x_star[spare[1]] == 0.0
