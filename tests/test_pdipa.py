"""Tests for the interior-point solver."""

from types import SimpleNamespace

import numpy as np
import pytest

from ell1 import homotopy, numerics, pdipa, robust, synth
from ell1.exceptions import IllConditionedError, NotPositiveDefiniteError
from ell1.model import ProblemInstance, SolverConfig
from ell1.pdipa import pdipa_solve


def state(x, y, z):
    return SimpleNamespace(x=x, y=y, z=z)


def newton_step(st, A_ext, b, mu_hat):
    """pdipa's Newton step on the split LP with unit cost: the residuals
    and the weighted normal matrix normalized by mu = x'z / m assembled
    densely, then solved by the solver's own elimination kernel."""
    x, y, z = st.x, st.y, st.z
    rp = b - A_ext @ x
    rd = np.ones(x.shape[0]) - A_ext.T @ y - z
    rc = mu_hat - x * z
    w = x / z
    mu = float(x @ z) / x.shape[0]
    solve = numerics.chol_factor((A_ext * (w / mu)) @ A_ext.T).solve
    return pdipa._eliminate(z, w, rp, rd, rc, mu, solve,
                            lambda u: A_ext @ u, lambda v: A_ext.T @ v)


def dense_kkt_solve(A_ext, b, st, mu_hat, c=None):
    """Oracle: assemble and solve the full three-block Newton system."""
    m = st.x.shape[0]
    d = A_ext.shape[0]
    if c is None:
        c = np.ones(m)
    K = np.zeros((2 * m + d, 2 * m + d))
    K[:d, :m] = A_ext
    K[d:d + m, m:m + d] = A_ext.T
    K[d:d + m, m + d:] = np.eye(m)
    K[d + m:, :m] = np.diag(st.z)
    K[d + m:, m + d:] = np.diag(st.x)
    rhs = np.concatenate([b - A_ext @ st.x, c - A_ext.T @ st.y - st.z,
                          mu_hat - st.x * st.z])
    sol = np.linalg.solve(K, rhs)
    return sol[:m], sol[m:m + d], sol[m + d:]


# --- Newton step -----------------------------------------------------------


def test_step_already_centered_is_zero():
    # primal and dual feasible with uniform x*z: every residual vanishes
    A_ext = np.array([[1.0, -1.0]])
    st = state(np.array([1.5, 0.5]), np.array([0.5]), np.array([0.5, 1.5]))
    dx, dy, dz = newton_step(st, A_ext, np.array([1.0]), 0.75)
    assert np.max(np.abs(dx)) <= 1e-14
    assert np.max(np.abs(dy)) <= 1e-14
    assert np.max(np.abs(dz)) <= 1e-14
    # complementarity row closes exactly
    assert np.max(np.abs(st.z * dx + st.x * dz)) <= 1e-14


def test_step_matches_dense_kkt_oracle_1d():
    A_ext = np.array([[1.0, -1.0]])
    b = np.array([1.0])
    st = state(np.array([1.0, 2.0]), np.array([0.3]), np.array([0.7, 1.2]))
    dx, dy, dz = newton_step(st, A_ext, b, 0.05)
    assert dx == pytest.approx([-0.55769230769230793, -2.5576923076923075],
                               rel=1e-10)
    assert dy == pytest.approx([0.25961538461538436], rel=1e-10)
    assert dz == pytest.approx([-0.25961538461538436, 0.35961538461538445],
                               rel=1e-10)
    odx, ody, odz = dense_kkt_solve(A_ext, b, st, 0.05)
    assert np.allclose(dx, odx, atol=1e-12)
    assert np.allclose(dy, ody, atol=1e-12)
    assert np.allclose(dz, odz, atol=1e-12)


def test_step_matches_dense_kkt_oracle_random():
    rng = np.random.default_rng(42)
    for _ in range(20):
        d, m = 4, 12
        A_ext = rng.standard_normal((d, m))
        b = rng.standard_normal(d)
        st = state(rng.uniform(0.1, 3.0, m), rng.standard_normal(d),
                   rng.uniform(0.1, 3.0, m))
        mu_hat = float(rng.uniform(0.01, 0.5))
        got = newton_step(st, A_ext, b, mu_hat)
        want = dense_kkt_solve(A_ext, b, st, mu_hat)
        for g, w in zip(got, want):
            assert np.allclose(g, w, rtol=1e-8, atol=1e-10)


def test_step_restores_primal_feasibility():
    # infeasible start: the step must close the equality residual exactly
    rng = np.random.default_rng(5)
    A_ext = rng.standard_normal((3, 10))
    b = rng.standard_normal(3)
    st = state(np.full(10, 2.0), np.zeros(3), np.full(10, 0.5))
    dx, _, _ = newton_step(st, A_ext, b, 0.1)
    rp = b - A_ext @ st.x
    assert np.linalg.norm(A_ext @ dx - rp) <= 1e-10 * max(1.0, np.linalg.norm(rp))


# --- pdipa_solve -----------------------------------------------------------


def test_solve_lp_vertex():
    # vertices of {x1 + 2 x2 = 2}: [2,0] costs 2, [0,1] costs 1
    P = ProblemInstance(np.array([[1.0, 2.0]]), np.array([2.0]))
    r = pdipa_solve(P, SolverConfig())
    assert r.converged
    assert np.allclose(r.x_star, [0.0, 1.0], atol=1e-5)
    assert np.sum(np.abs(r.x_star)) == pytest.approx(1.0, abs=1e-5)


def test_solve_one_dimensional():
    P = ProblemInstance(np.array([[1.0]]), np.array([1.0]))
    r = pdipa_solve(P, SolverConfig())
    assert r.converged
    assert r.x_star[0] == pytest.approx(1.0, abs=1e-8)


def test_solve_zero_rhs():
    P = ProblemInstance(np.eye(3), np.zeros(3))
    r = pdipa_solve(P, SolverConfig())
    assert r.converged and r.iterations == 0
    assert np.all(r.x_star == 0.0)


def test_solve_recovers_sparse_signal():
    rng = np.random.default_rng(11)
    A = rng.standard_normal((50, 100))
    A /= np.linalg.norm(A, axis=0)
    x0 = np.zeros(100)
    x0[rng.choice(100, 5, replace=False)] = rng.standard_normal(5)
    r = pdipa_solve(ProblemInstance(A, A @ x0), SolverConfig())
    assert r.converged
    assert np.linalg.norm(r.x_star - x0) <= 1e-6 * np.linalg.norm(x0)
    # path solver agrees on the same instance, certifying uniqueness
    h = homotopy.homotopy_solve(ProblemInstance(A, A @ x0),
                                SolverConfig(lam=0.0))
    assert np.linalg.norm(r.x_star - h.x_star) <= 1e-6 * np.linalg.norm(h.x_star)


def test_solve_iteration_cap_returns_best():
    P = ProblemInstance(np.array([[1.0, 2.0]]), np.array([2.0]))
    r = pdipa_solve(P, SolverConfig(max_iter=2))
    assert not r.converged and r.iterations == 2
    assert r.x_star.shape == (2,)


def test_solve_zero_matrix_stalls():
    # A = 0 leaves the equality infeasible: the jittered normal matrix
    # keeps the steps finite, and the run ends on a stalled duality measure
    P = ProblemInstance(np.array([[0.0]]), np.array([1.0]))
    r = pdipa_solve(P, SolverConfig())
    assert not r.converged
    assert r.notes == ("stopped on stalled duality measure",)


def small_instance():
    return synth.make_instance(synth.GenSpec(n=20, d=10, k=2, seed=4))


def test_solve_stops_on_ill_conditioned_normal_matrix(monkeypatch):
    def refuse(M):
        raise IllConditionedError("normal matrix")

    monkeypatch.setattr(pdipa, "_factor_with_jitter", refuse)
    r = pdipa_solve(small_instance(), SolverConfig())
    assert not r.converged and r.iterations == 1
    assert r.notes == ("stopped on ill-conditioned normal matrix",)


def test_solve_stops_on_non_finite_step(monkeypatch):
    # the predictor (odd calls) stays finite and the corrector overflows
    real, calls = pdipa._eliminate, []

    def corrector_overflows(*args):
        calls.append(1)
        dv, dy, dz = real(*args)
        return (dv, dy, dz) if len(calls) % 2 else (dv * np.inf, dy, dz)

    monkeypatch.setattr(pdipa, "_eliminate", corrector_overflows)
    r = pdipa_solve(small_instance(), SolverConfig())
    assert not r.converged and len(calls) == 2
    assert r.notes == ("stopped on non-finite step",)


def test_solve_stalls_when_no_damped_step_lowers_mu(monkeypatch):
    # the corrector and the plain centering step are both refused
    calls = []
    monkeypatch.setattr(pdipa, "_damped_step",
                        lambda *args: calls.append(1))
    r = pdipa_solve(small_instance(), SolverConfig())
    assert not r.converged and r.iterations == 1 and len(calls) == 2
    assert r.notes == ("stopped on stalled duality measure",)


def test_solve_stalls_on_a_zero_duality_measure(monkeypatch):
    events = []
    monkeypatch.setattr(pdipa, "_damped_step",
                        lambda v, y, z, mu, *step: (v, y, z, 0.0))
    r = pdipa_solve(small_instance(), SolverConfig(), events.append)
    assert not r.converged and r.iterations == 1
    assert [e.state["mu"] for e in events][1:] == [0.0]
    assert r.notes == ("stopped on stalled duality measure",)


@pytest.mark.parametrize("log2_scale", [-27, -10, 0, 10, 27])
def test_solve_is_certified_at_every_scale(log2_scale):
    # b and x0 scaled together: a start or a test in the units of b would
    # certify a wrong answer at one end and stall at the other
    P = synth.make_instance(synth.GenSpec(n=200, d=100, k=8, seed=11))
    ref = pdipa_solve(P, SolverConfig())
    s = 2.0 ** log2_scale
    x0 = s * P.ground_truth
    r = pdipa_solve(ProblemInstance(P.A, s * P.b), SolverConfig())
    assert r.converged and r.iterations == ref.iterations
    assert np.linalg.norm(r.x_star - x0) <= 1e-6 * np.linalg.norm(x0)


def test_solve_factors_once_per_iteration(counting_view, monkeypatch):
    # predictor and corrector share the iteration's one factor: one
    # weighted Gram, and per step two residual and four Newton products
    P = synth.make_instance(synth.GenSpec(n=60, d=30, k=4, seed=3))
    P.A, count = counting_view(P.A)
    factors = [0]
    chol_factor = numerics.chol_factor

    def counting(M):
        factors[0] += 1
        return chol_factor(M)

    monkeypatch.setattr(pdipa.numerics, "chol_factor", counting)
    events = []
    r = pdipa_solve(P, SolverConfig(), observer=events.append)
    assert r.converged and r.iterations >= 3
    assert factors[0] == r.iterations
    assert count[0] == 7 * r.iterations + 2
    sigmas = [e.state["sigma"] for e in events]
    assert sigmas[0] is None
    assert all(0.0 <= sg <= 1.0 for sg in sigmas[1:])


def face_query(seed, q, d=150, n=300, groups=15, books=16):
    """Query q of a stream against bouquet dictionaries: three atoms of
    one group, then a fifth of the entries replaced by gross errors."""
    A, labels = synth.gen_bouquet_dict(d, n, groups, 0.6,
                                       synth.trial_seed(seed, 0, q % books))
    s = synth.trial_seed(seed, 1, q)
    rng = np.random.default_rng(s)
    g = int(rng.integers(groups))
    active = rng.choice(np.flatnonzero(labels == g), size=3, replace=False)
    x0 = np.zeros(n)
    x0[active] = (rng.uniform(0.5, 1.5, size=3)
                  * rng.choice([-1.0, 1.0], size=3))
    b = A @ x0
    scale = float(np.max(np.abs(b)))
    return A, synth.corrupt_entries(b, 0.2, -scale, scale, s + 100000)[0]


def test_solve_falls_back_on_centering():
    # at step 5 of this [A, I] query the corrector raises mu at every
    # halving of its unequal primal and dual lengths; the plain centering
    # step on the same factor carries the solve on to its certificate
    A, b = face_query(5, 18)
    _, _, r = robust.cab_solve(A, b, "pdipa",
                               SolverConfig(tol=1e-8, max_iter=4000))
    assert r.converged and r.notes == ()


def test_jittered_solve_is_refined():
    # a few huge weights over many small ones, as at the end of a
    # degenerate solve: Cholesky fails, and the jitter's error in
    # M dy = r would reappear in the step's primal residual
    rng = np.random.default_rng(0)
    A = rng.standard_normal((30, 90))
    M = (A * np.concatenate([np.full(8, 1e18), np.logspace(-4, 4, 82)])) @ A.T
    r = M @ rng.standard_normal(30)
    with pytest.raises(NotPositiveDefiniteError):
        numerics.chol_factor(M)
    jitter = 1e-12 * np.trace(M) / 30
    plain = numerics.chol_factor(M + jitter * np.eye(30)).solve(r)
    refined = pdipa._factor_with_jitter(M)(r)
    assert (np.linalg.norm(M @ refined - r)
            <= 0.1 * np.linalg.norm(M @ plain - r))


def test_solve_trace_reports_objective_and_residual():
    P = ProblemInstance(np.array([[1.0, 2.0]]), np.array([2.0]))
    events = []
    r = pdipa_solve(P, SolverConfig(), events.append)
    assert len(events) == r.iterations + 1
    assert events[-1].residual_norm <= 1e-8 * 2.0


# --- invariants ------------------------------------------------------------


def run_observed(seed):
    spec = synth.GenSpec(n=40, d=20, k=1 + seed % 5, seed=seed)
    P = synth.make_instance(spec)
    events = []
    r = pdipa_solve(P, SolverConfig(), observer=events.append)
    return P, r, [e.state for e in events]


@pytest.mark.invariant
def test_invariant_duality_measure_strictly_decreasing():
    for seed in range(900, 1010):
        _, r, states = run_observed(seed)
        mus = [st["mu"] for st in states]
        assert all(a > b for a, b in zip(mus, mus[1:]))


@pytest.mark.invariant
def test_invariant_iterates_strictly_interior():
    for seed in range(900, 1010):
        _, _, states = run_observed(seed)
        for st in states:
            assert np.min(st["v"]) > 0.0
            assert np.min(st["z"]) > 0.0


@pytest.mark.invariant
def test_invariant_termination_certificates():
    for seed in range(900, 1010):
        P, r, states = run_observed(seed)
        assert r.converged
        st = states[-1]
        n = P.A.shape[1]
        rp = P.b - P.A @ (st["v"][:n] - st["v"][n:])
        assert np.linalg.norm(rp) <= 1e-8 * max(1.0, np.linalg.norm(P.b))
        obj = float(np.sum(st["v"]))
        gap = obj - float(P.b @ st["y"])
        assert gap <= 1e-6 * (1.0 + abs(obj))
