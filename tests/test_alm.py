"""Tests for the multiplier-method solvers."""

import numpy as np
import pytest

from ell1 import bench, robust, synth
from ell1.alm import (MU0, RHO, AlmState, DalmState, dalm_solve,
                      dual_y_solve, palm_solve)
from ell1.exceptions import IllConditionedError, NumericalBreakdownError
from ell1.homotopy import homotopy_solve
from ell1.model import ProblemInstance, SolverConfig, StoppingRule
from ell1.numerics import CholFactor, chol_factor
from ell1.pdipa import pdipa_solve


def two_var_lp():
    A = np.array([[1.0, 1.0]]) / np.sqrt(2.0)
    return ProblemInstance(A, np.array([np.sqrt(2.0)]))


# --- state types -----------------------------------------------------------


def test_alm_state_validation():
    AlmState(np.zeros(2), np.zeros(1), 1.0, 2.0, 3.0)
    with pytest.raises(ValueError):
        AlmState(np.zeros(2), np.zeros(1), 0.0, 2.0, 3.0)
    with pytest.raises(ValueError):
        AlmState(np.zeros(2), np.zeros(1), 1.0, 1.0, 3.0)


def test_dalm_state_validation():
    gram = chol_factor(np.eye(1))
    DalmState(np.zeros(2), np.zeros(1), np.array([1.0, -1.0]), 1.0, gram)
    with pytest.raises(ValueError):
        DalmState(np.zeros(2), np.zeros(1), np.array([1.1, 0.0]), 1.0, gram)
    with pytest.raises(ValueError):
        DalmState(np.zeros(2), np.zeros(1), np.zeros(2), 0.0, gram)


# --- palm_solve ------------------------------------------------------------


def test_palm_two_variable_value():
    # the whole segment between [2,0] and [0,2] is optimal; the l1 value
    # 2 is unique, so only the objective is pinned down
    res = palm_solve(two_var_lp(), SolverConfig(tol=1e-8, max_iter=20000))
    assert res.converged
    assert abs(float(np.sum(np.abs(res.x_star))) - 2.0) <= 1e-6


def test_palm_zero_data():
    P = ProblemInstance(np.eye(3), np.zeros(3))
    res = palm_solve(P, SolverConfig())
    assert res.converged and res.iterations == 0
    np.testing.assert_array_equal(res.x_star, np.zeros(3))


def test_palm_matches_pdipa():
    spec = synth.GenSpec(n=200, d=100, k=5, seed=42)
    P = synth.make_instance(spec)
    ref = pdipa_solve(P, SolverConfig(tol=1e-8, max_iter=200))
    res = palm_solve(P, SolverConfig(tol=1e-7, max_iter=20000))
    assert ref.converged and res.converged
    err = np.linalg.norm(res.x_star - ref.x_star) / np.linalg.norm(ref.x_star)
    assert err <= 1e-4


def test_palm_budget_returns_best_iterate():
    spec = synth.GenSpec(n=100, d=50, k=4, seed=13)
    P = synth.make_instance(spec)
    res = palm_solve(P, SolverConfig(tol=1e-12, max_iter=5))
    assert not res.converged and res.iterations <= 5
    assert "inner-iteration budget exhausted" in res.notes


def test_palm_unreachable_tol_on_a_feasible_input_exhausts_the_budget():
    # the residual sits at roundoff and stops falling, which is no sign
    # that b is outside the range of A
    P = synth.make_instance(synth.GenSpec(n=100, d=50, k=4, seed=13))
    res = palm_solve(P, SolverConfig(tol=1e-30, max_iter=20000))
    assert not res.converged and res.iterations == 20000
    assert "inner-iteration budget exhausted" in res.notes


def test_palm_raises_when_b_is_outside_the_range_of_A():
    # the residual norm can never drop below 1; the run must end in a
    # typed error once it stalls, before the multiplier overflows
    P = ProblemInstance(np.array([[1.0, 2.0, -1.0], [0.0, 0.0, 0.0]]),
                        np.array([0.0, 1.0]))
    with pytest.raises(NumericalBreakdownError):
        bench.solve_named("palm", P, SolverConfig(lam=0.1))


# --- dual_y_solve ----------------------------------------------------------


def make_dalm_state(A, x=None, beta=1.0):
    d, n = A.shape
    return DalmState(np.zeros(n) if x is None else x, np.zeros(d),
                     np.zeros(n), beta, chol_factor(A @ A.T))


def test_dual_y_identity_gram():
    rng = np.random.default_rng(4)
    Q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    A = Q[:3, :]
    x = rng.standard_normal(6)
    b = rng.standard_normal(3)
    z = np.clip(rng.standard_normal(6), -1.0, 1.0)
    state = make_dalm_state(A, x=x, beta=2.0)
    y = dual_y_solve(state, A @ A.T, A @ z, A @ x, b)
    np.testing.assert_allclose(y, A @ z - (A @ x - b) / 2.0, atol=1e-12)


def test_dual_y_matches_dense_solve():
    rng = np.random.default_rng(15)
    for _ in range(10):
        A = rng.standard_normal((2, 4))
        x = rng.standard_normal(4)
        b = rng.standard_normal(2)
        z = np.clip(rng.standard_normal(4), -1.0, 1.0)
        beta = float(rng.uniform(0.5, 3.0))
        state = make_dalm_state(A, x=x, beta=beta)
        y = dual_y_solve(state, A @ A.T, A @ z, A @ x, b)
        want = np.linalg.solve(beta * (A @ A.T),
                               beta * (A @ z) - (A @ x - b))
        np.testing.assert_allclose(y, want, rtol=1e-10, atol=1e-12)


def test_dual_y_beta_homogeneity():
    rng = np.random.default_rng(16)
    A = rng.standard_normal((3, 7))
    b = rng.standard_normal(3)
    x, *_ = np.linalg.lstsq(A, b, rcond=None)
    z = np.clip(rng.standard_normal(7), -1.0, 1.0)
    y1 = dual_y_solve(make_dalm_state(A, x=x, beta=1.0), A @ A.T, A @ z,
                      A @ x, b)
    y2 = dual_y_solve(make_dalm_state(A, x=x, beta=2.0), A @ A.T, A @ z,
                      A @ x, b)
    np.testing.assert_allclose(y1, y2, atol=1e-10)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_y_steps_reject_non_finite_states():
    A = np.array([[1.0, 1.0]])
    b = np.array([1.0])
    zero = np.zeros(2)
    # a factor whose solve overflows: y = inf, so G y is NaN against a
    # zero Gram and -inf against a unit one
    tiny = DalmState(zero, np.zeros(1), zero, 1.0,
                     CholFactor(np.array([[1e-170]])))
    for gram in (np.zeros((1, 1)), np.ones((1, 1))):
        with pytest.raises(IllConditionedError):
            dual_y_solve(tiny, gram, A @ zero, A @ zero, b)
    with pytest.raises(IllConditionedError):
        dual_y_solve(make_dalm_state(A), np.full((1, 1), np.nan), A @ zero,
                     A @ zero, b)


def test_dalm_rejects_rank_deficient_rows():
    # more rows than columns: A A^T cannot be positive definite
    P = ProblemInstance(np.ones((3, 2)), np.ones(3))
    with pytest.raises(IllConditionedError):
        dalm_solve(P, SolverConfig())


# --- dalm_solve ------------------------------------------------------------


def test_dalm_two_variable_value():
    res = dalm_solve(two_var_lp(), SolverConfig(tol=1e-8, max_iter=100))
    assert res.converged
    assert abs(float(np.sum(np.abs(res.x_star))) - 2.0) <= 1e-6


def test_dalm_zero_data():
    P = ProblemInstance(np.eye(3), np.zeros(3))
    res = dalm_solve(P, SolverConfig())
    assert res.converged and res.iterations == 0


def test_dalm_orthonormal_rows_matches_homotopy():
    rng = np.random.default_rng(3)
    Q, _ = np.linalg.qr(rng.standard_normal((40, 40)))
    A = Q[:20, :]
    x_true = np.zeros(40)
    x_true[[3, 11, 29]] = [1.2, -0.7, 0.4]
    P = ProblemInstance(A, A @ x_true)
    ref = homotopy_solve(P, 1e-10, SolverConfig(tol=1e-10, max_iter=1000))
    res = dalm_solve(P, SolverConfig(tol=1e-9, max_iter=2000))
    assert res.converged
    assert float(np.max(np.abs(res.x_star - ref.x_star))) <= 1e-6


def test_dalm_recovers_dense_spike_regime():
    # beta matched to the entry scale of x; the default 1 also gets there
    # but needs an order of magnitude more iterations
    spec = synth.GenSpec(n=2000, d=1000, k=200, seed=7)
    P = synth.make_instance(spec)
    res = dalm_solve(P, SolverConfig(tol=1e-4, max_iter=3000,
                                     options={"beta": 0.004}))
    assert res.converged
    err = (np.linalg.norm(res.x_star - P.ground_truth)
           / np.linalg.norm(P.ground_truth))
    assert err <= 1e-3


# setup: the row Gram plus A^T y and A x of the zero start
_DALM_SETUP_PRODUCTS = 3


@pytest.mark.parametrize("options, per_iter",
                         [({}, 3)])
def test_dalm_products_per_iteration(options, per_iter, counting_view):
    P = synth.make_instance(synth.GenSpec(n=120, d=60, k=6, seed=9))
    cfg = SolverConfig(tol=1e-7, max_iter=400, options=options)
    plain = dalm_solve(P, cfg)
    P.A, count = counting_view(P.A)
    res = dalm_solve(P, cfg)
    assert res.iterations >= 50
    assert count[0] <= per_iter * res.iterations + _DALM_SETUP_PRODUCTS
    assert np.array_equal(res.x_star, plain.x_star)


def test_cab_dalm_products_per_iteration(monkeypatch, counting_view):
    P = synth.make_instance(synth.GenSpec(n=120, d=60, k=6, seed=9))
    b_bad, _ = synth.corrupt_entries(P.b, 0.1, -3.0, 3.0, seed=5)
    cfg = SolverConfig(tol=1e-7, max_iter=400)
    plain = robust.cab_solve(P.A, b_bad, "dalm", cfg)
    counts = []
    init = robust.ExtendedDictionary.__init__

    def counting_init(self, A, identity_scale=1.0):
        init(self, A, identity_scale)
        self.A, count = counting_view(self.A)
        counts.append(count)

    monkeypatch.setattr(robust.ExtendedDictionary, "__init__",
                        counting_init)
    x, e, res = robust.cab_solve(P.A, b_bad, "dalm", cfg)
    assert len(counts) == 1
    assert res.iterations >= 50
    assert counts[0][0] <= 3 * res.iterations + _DALM_SETUP_PRODUCTS
    assert np.array_equal(x, plain[0]) and np.array_equal(e, plain[1])


def test_dalm_honors_stopping_rule():
    spec = synth.GenSpec(n=100, d=50, k=4, seed=23)
    P = synth.make_instance(spec)
    rule = StoppingRule(kind="relative-estimate", threshold=0.9)
    res = dalm_solve(P, SolverConfig(tol=1e-14, stopping=rule))
    assert res.converged and res.iterations <= 3


# --- invariants ------------------------------------------------------------


@pytest.mark.invariant
def test_palm_penalty_grows_geometrically_and_residual_tracks_it():
    outer_cases = 0
    for seed in range(2400, 2430):
        spec = synth.GenSpec(n=80, d=40, k=1 + seed % 4, seed=seed)
        P = synth.make_instance(spec)
        states = []
        res = palm_solve(P, SolverConfig(tol=1e-8, max_iter=20000),
                         observer=states.append)
        assert res.converged
        assert len(states) >= 4
        resids = []
        for k, st in enumerate(states):
            assert st.mu == MU0 * RHO ** k
            resids.append(float(np.linalg.norm(P.b - P.A @ st.x)))
            outer_cases += 1
        # decay trend: residual stays within a factor of the c/mu law
        # calibrated on the first three outer iterations
        c = max(resids[k] * states[k].mu for k in range(3))
        for k in range(3, len(states)):
            assert resids[k] <= 10.0 * c / states[k].mu
    assert outer_cases >= 100


@pytest.mark.invariant
def test_dalm_step_identities_hold_every_iteration():
    checked = 0
    for seed in range(2500, 2512):
        spec = synth.GenSpec(n=80, d=40, k=1 + seed % 4, seed=seed)
        P = synth.make_instance(spec)
        A, b = P.A, P.b
        snaps = []
        res = dalm_solve(P, SolverConfig(tol=1e-7, max_iter=20000),
                         observer=lambda s, xp: snaps.append((s, xp)))
        assert res.converged
        for state, x_prev in snaps:
            assert float(np.max(np.abs(state.z))) <= 1.0
            rhs = A @ state.z - (A @ x_prev - b) / state.beta
            resid = rhs - A @ (A.T @ state.y)
            scale = max(1.0, float(np.linalg.norm(rhs)))
            assert float(np.linalg.norm(resid)) <= 1e-10 * scale
            recomputed = x_prev - state.beta * (state.z - A.T @ state.y)
            assert np.array_equal(state.x, recomputed)
            checked += 1
    assert checked >= 100


@pytest.mark.invariant
def test_palm_and_dalm_agree_on_the_l1_value():
    for seed in range(2600, 2700):
        spec = synth.GenSpec(n=100, d=50, k=1 + seed % 4, seed=seed)
        P = synth.make_instance(spec)
        rp = palm_solve(P, SolverConfig(tol=1e-7, max_iter=20000))
        rd = dalm_solve(P, SolverConfig(tol=1e-7, max_iter=20000,
                                        options={"beta": 0.2}))
        assert rp.converged and rd.converged
        l1_p = float(np.sum(np.abs(rp.x_star)))
        l1_d = float(np.sum(np.abs(rd.x_star)))
        assert abs(l1_p - l1_d) <= 1e-4 * max(l1_p, l1_d)
