"""Tests for the solution-path solver."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from ell1 import homotopy, numerics, synth
from ell1.exceptions import DegenerateSupportError
from ell1.homotopy import homotopy_solve
from ell1.model import ProblemInstance, SolverConfig
from ell1.operators import DenseDictionary


def make_state(A, support, x, lam, c):
    G = A[:, support].T @ A[:, support]
    return SimpleNamespace(x=x, support=list(support), lam=lam, c=c,
                           chol=numerics.chol_factor(G))


def update_direction(st, A):
    """Full-length path direction at a snapshot: the solver's active-set
    solve on the support, zero elsewhere."""
    sgn = np.sign(st.c[st.support])
    d_I, _, _ = homotopy._solve_direction(st.chol, DenseDictionary(A),
                                          st.support, sgn)
    d = np.zeros(st.x.shape[0])
    d[st.support] = d_I
    return d


def breakpoint_gammas(st, d, A):
    """The solver's step lengths to the next add and remove events."""
    D = DenseDictionary(A)
    w = D.adjoint(D.apply_columns(st.support, d[st.support]))
    mask = np.zeros(st.c.shape[0], dtype=bool)
    mask[st.support] = True
    return homotopy._gammas(st.lam, st.c, st.x, d, w, mask)


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


def test_direction_singular_gram_raises():
    # duplicated column: the active-set Gram is rank 1
    A = np.array([[1.0, 1.0], [0.0, 0.0]])
    stale = numerics.chol_factor(np.eye(2))
    st = SimpleNamespace(x=np.zeros(2), support=[0, 1], lam=1.0,
                         c=np.array([1.0, 1.0]), chol=stale)
    with pytest.raises(DegenerateSupportError):
        update_direction(st, A)


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
    r = homotopy_solve(P, SolverConfig(lam=1.0))
    assert np.allclose(r.x_star, [2.0, 0.0], rtol=0, atol=1e-12)
    assert r.converged and r.iterations == 1
    assert len(r.trace) == r.iterations


def test_solve_zero_rhs():
    P = ProblemInstance(np.eye(2), np.zeros(2))
    r = homotopy_solve(P, SolverConfig(lam=0.0))
    assert np.all(r.x_star == 0.0)
    assert r.converged and r.iterations == 0
    assert len(r.trace) == 1


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
            if not support:
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
