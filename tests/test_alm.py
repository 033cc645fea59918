"""Tests for the multiplier-method solvers."""

import numpy as np
import pytest

from ell1 import alm, bench, operators, robust, synth
from ell1.alm import MU0_SCALE, RHO, dalm_solve, palm_solve
from ell1.exceptions import IllConditionedError, NumericalBreakdownError
from ell1.homotopy import homotopy_solve
from ell1.model import ProblemInstance, SolverConfig, StoppingRule
from ell1.numerics import CholFactor, _lower_solve
from ell1.pdipa import pdipa_solve


def two_var_lp():
    A = np.array([[1.0, 1.0]]) / np.sqrt(2.0)
    return ProblemInstance(A, np.array([np.sqrt(2.0)]))


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
    # that b is outside the range of A. b = A (x0 + 1e-3 g) is feasible,
    # but no sparse x fits it to the last bit
    P = synth.make_instance(synth.GenSpec(n=100, d=50, k=4, seed=13))
    g = np.random.default_rng(13).standard_normal(P.n)
    P = ProblemInstance(P.A, P.A @ (P.ground_truth + 1e-3 * g))
    res = palm_solve(P, SolverConfig(tol=1e-30, max_iter=20000))
    assert not res.converged and res.iterations == 20000
    assert "inner-iteration budget exhausted" in res.notes


def test_palm_exact_fit_meets_an_unreachable_looking_tol():
    # restarted inner solves land on the sparse x0 to the last bit, so
    # b - A x is exactly zero and even tol 1e-30 is honestly met
    P = synth.make_instance(synth.GenSpec(n=100, d=50, k=4, seed=13))
    res = palm_solve(P, SolverConfig(tol=1e-30, max_iter=20000))
    assert res.converged
    assert (np.linalg.norm(P.b - P.A @ res.x_star)
            <= 1e-30 * np.linalg.norm(P.b))


def test_palm_products_per_inner_step(counting_view):
    # 1 product per search trial (A delta) and 1 per inner step (the
    # adjoint A^T r), and 2 per outer step (A^T r for its inner solve's
    # first gradient, then b - A x); the momentum restart reads vectors
    # at hand, and there is no set-up product
    P = synth.make_instance(synth.GenSpec(n=120, d=60, k=6, seed=9))
    cfg = SolverConfig(tol=1e-8, max_iter=20000)
    plain = palm_solve(P, cfg)
    P.A, count = counting_view(P.A)
    events = []
    res = palm_solve(P, cfg, observer=events.append)
    outer = events[1:]  # the first event is the start point
    assert res.converged
    assert sum(e.state["inner_steps"] for e in outer) == res.iterations
    assert sum(e.state["restarts"] for e in outer) > 0
    trials = sum(e.state["trials"] for e in outer)
    assert trials >= res.iterations
    assert count[0] == trials + res.iterations + 2 * len(outer)
    assert np.array_equal(res.x_star, plain.x_star)
    assert res.iterations == plain.iterations


def test_cab_palm_bouquet_query_inner_steps():
    # one face-recognition query: three atoms of one group of a bouquet
    # dictionary, 20% of the entries grossly corrupted. Plain momentum
    # took 1,819 inner steps here, and a restarted inner loop at a fixed
    # 1 / ||[A, I]||^2 step 1,090; the searched step takes 141
    d, n, groups = 150, 300, 15
    A, labels = synth.gen_bouquet_dict(d, n, groups, 0.6, 2)
    rng = np.random.default_rng(2)
    g = int(rng.integers(groups))
    active = rng.choice(np.flatnonzero(labels == g), size=3, replace=False)
    x0 = np.zeros(n)
    x0[active] = rng.uniform(0.5, 1.5, 3) * rng.choice([-1.0, 1.0], 3)
    b = A @ x0
    peak = float(np.max(np.abs(b)))
    b_bad, _ = synth.corrupt_entries(b, 0.2, -peak, peak, 3)
    x, e, res = robust.cab_solve(A, b_bad, "palm",
                                 SolverConfig(tol=1e-8, max_iter=4000))
    assert res.converged and res.iterations <= 300
    energy = [np.linalg.norm(x[labels == k]) for k in range(groups)]
    assert int(np.argmax(energy)) == g
    assert np.linalg.norm(x - x0) <= 1e-6 * np.linalg.norm(x0)


def test_palm_raises_when_b_is_outside_the_range_of_A():
    # the residual norm can never drop below 1; the run must end in a
    # typed error once it stalls, before the multiplier overflows
    P = ProblemInstance(np.array([[1.0, 2.0, -1.0], [0.0, 0.0, 0.0]]),
                        np.array([0.0, 1.0]))
    with pytest.raises(NumericalBreakdownError):
        bench.solve_named("palm", P, SolverConfig(lam=0.1))


def test_palm_raises_on_a_non_finite_multiplier(monkeypatch):
    # a penalty that overflows to inf at the second outer step turns the
    # finite residual's multiplier update y + mu r non-finite
    monkeypatch.setattr(alm, "RHO", np.inf)
    P = synth.make_instance(synth.GenSpec(n=40, d=20, k=3, seed=5))
    with pytest.raises(NumericalBreakdownError, match="mu = inf"):
        palm_solve(P, SolverConfig(tol=1e-10))


@pytest.mark.parametrize("log2_scale", [-27, -20, -10, 20])
def test_palm_certifies_a_feasible_input_at_any_scale(log2_scale):
    # a start penalty tied to the units of b keeps x at 0 at small scales
    # until the stall test raises, and certifies an answer far from x0 at
    # large ones; from mu0 = MU0_SCALE d / ||b||_1 every scale takes the
    # steps of scale 1
    P = synth.make_instance(synth.GenSpec(n=200, d=100, k=8, seed=11))
    s = 2.0 ** log2_scale
    ref = bench.solve_named("palm", P, SolverConfig())
    res = bench.solve_named("palm", ProblemInstance(P.A, s * P.b),
                            SolverConfig())
    assert res.converged and res.iterations == ref.iterations
    np.testing.assert_array_equal(res.x_star, s * ref.x_star)
    x0 = s * P.ground_truth
    assert np.linalg.norm(res.x_star - x0) <= 1e-5 * np.linalg.norm(x0)


# --- the dual y-step, read from events --------------------------------------


def _y_step_events(P):
    """dalm's penalty and the events of its non-start iterations on P."""
    events = []
    dalm_solve(P, SolverConfig(tol=1e-8, max_iter=200),
               observer=events.append)
    return float(np.sum(np.abs(P.b))) / P.d, events[1:]


def test_dual_y_identity_gram():
    # with A A^T = I the least-squares step is the plain product
    # y = A z - (A x_prev - b) / beta
    rng = np.random.default_rng(4)
    Q, _ = np.linalg.qr(rng.standard_normal((12, 12)))
    A = Q[:6, :]
    x0 = np.zeros(12)
    x0[[1, 7]] = [1.5, -0.5]
    P = ProblemInstance(A, A @ x0)
    beta, events = _y_step_events(P)
    assert len(events) >= 5
    for e in events:
        want = A @ e.state["z"] - (A @ e.state["x_prev"] - P.b) / beta
        np.testing.assert_allclose(e.state["y"], want, atol=1e-12)


def test_dual_y_matches_dense_solve():
    rng = np.random.default_rng(15)
    checked = 0
    for _ in range(10):
        A = rng.standard_normal((2, 4))
        P = ProblemInstance(A, A @ rng.standard_normal(4))
        beta, events = _y_step_events(P)
        for e in events:
            z, x_prev = e.state["z"], e.state["x_prev"]
            want = np.linalg.solve(beta * (A @ A.T),
                                   beta * (A @ z) - (A @ x_prev - P.b))
            np.testing.assert_allclose(e.state["y"], want, rtol=1e-10,
                                       atol=1e-12)
            checked += 1
    assert checked >= 50


def test_dual_y_beta_homogeneity():
    # beta = ||b||_1 / d doubles with b, and so does x, so the y-step's
    # (A x - b) / beta and with it y are unchanged
    rng = np.random.default_rng(16)
    A = rng.standard_normal((3, 7))
    x0 = np.zeros(7)
    x0[[2, 5]] = [1.0, -2.0]
    beta1, ev1 = _y_step_events(ProblemInstance(A, A @ x0))
    beta2, ev2 = _y_step_events(ProblemInstance(A, 2.0 * (A @ x0)))
    assert beta2 == 2.0 * beta1
    assert len(ev1) == len(ev2) >= 5
    for e1, e2 in zip(ev1, ev2):
        np.testing.assert_allclose(e2.state["y"], e1.state["y"],
                                   rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(e2.x, 2.0 * e1.x, rtol=1e-10,
                                   atol=1e-12)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_y_steps_reject_non_finite_states(monkeypatch):
    # u = R^{-T} b overflows: a tiny Gram factor against a huge b
    P = ProblemInstance(np.array([[1e-10, 1e-10]]), np.array([1e300]))
    with pytest.raises(IllConditionedError):
        dalm_solve(P, SolverConfig())
    # a factor whose inverse overflows makes the basis R^{-T} A non-finite
    monkeypatch.setattr(alm, "chol_factor",
                        lambda gram: CholFactor(np.array([[1e-310]])))
    P = ProblemInstance(np.array([[1.0, 1.0]]), np.array([1.0]))
    with pytest.raises(IllConditionedError):
        dalm_solve(P, SolverConfig())


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
    ref = homotopy_solve(P, SolverConfig(lam=1e-10, tol=1e-10,
                                         max_iter=1000))
    res = dalm_solve(P, SolverConfig(tol=1e-9, max_iter=2000))
    assert res.converged
    assert float(np.max(np.abs(res.x_star - ref.x_star))) <= 1e-6


def test_dalm_recovers_dense_spike_regime():
    # beta follows the scale of b, which is that of x: no tuning needed
    spec = synth.GenSpec(n=2000, d=1000, k=200, seed=7)
    P = synth.make_instance(spec)
    res = dalm_solve(P, SolverConfig(tol=1e-4, max_iter=3000))
    assert res.converged
    err = (np.linalg.norm(res.x_star - P.ground_truth)
           / np.linalg.norm(P.ground_truth))
    assert err <= 1e-3


# set-up: the row Gram and A^T R^{-1}; then one b - A x for the
# certificate of the iteration that converges
_DALM_SETUP_PRODUCTS = 2
_DALM_A_PRODUCTS = _DALM_SETUP_PRODUCTS + 1


def _count_basis_products(monkeypatch, counting_view):
    """Make dalm's orthonormal row basis count its products; returns the
    list that gets one counter per solve."""
    counts = []
    row_basis = alm._row_basis

    def counting(A):
        R, Qt = row_basis(A)
        assert Qt.ctypes.data % 64 == 0 and Qt.strides[0] % 64 == 0
        Qt, count = counting_view(Qt)
        counts.append(count)
        return R, Qt

    monkeypatch.setattr(alm, "_row_basis", counting)
    return counts


def _off_line_copy(a, offset=16):
    """C-contiguous copy of a whose first element sits offset bytes past
    a 64-byte line, with rows packed end to end."""
    block = np.empty(a.size + 16)
    start = (-block.ctypes.data % 64 + offset) // 8
    out = block[start:start + a.size].reshape(a.shape)
    out[...] = a
    return out


@pytest.mark.parametrize("extended", [False, True])
def test_row_basis_is_aligned_and_bitwise_the_contiguous_copy(extended):
    # n = 125 and n + d = 185 are no multiples of 8, so rows are padded
    P = synth.make_instance(synth.GenSpec(n=125, d=60, k=6, seed=9))
    D = (robust.ExtendedDictionary(P.A) if extended
         else operators.DenseDictionary(P.A))
    R, Qt = alm._row_basis(D)
    assert Qt.shape == D.shape
    assert Qt.ctypes.data % 64 == 0 and Qt.strides[1] == 8
    assert Qt.strides[0] % 64 == 0 and Qt.strides[0] > 8 * D.shape[1]
    R_inv = _lower_solve(R.T, np.eye(P.d), 1)
    plain = np.ascontiguousarray(D.adjoint(R_inv).T)
    assert Qt.tobytes() == plain.tobytes()


def test_dalm_basis_layout_moves_no_answer(monkeypatch):
    # the padded, aligned basis against a packed copy at 16 mod 64 bytes
    P = synth.make_instance(synth.GenSpec(n=125, d=60, k=6, seed=9))
    b_bad, _ = synth.corrupt_entries(P.b, 0.1, -3.0, 3.0, seed=5)
    cfg = SolverConfig(tol=1e-7, max_iter=400)

    def runs(A):
        res = dalm_solve(P, cfg)
        x, e, cab = robust.cab_solve(A, b_bad, "dalm", cfg)
        return ((res.x_star, res.iterations, res.converged),
                (np.concatenate([x, e]), cab.iterations, cab.converged))

    aligned = runs(P.A)
    row_basis = alm._row_basis
    packed = []

    def packed_basis(D):
        R, Qt = row_basis(D)
        Qt = _off_line_copy(Qt)
        packed.append(Qt.ctypes.data % 64 == 16 and Qt.flags.c_contiguous)
        return R, Qt

    monkeypatch.setattr(alm, "_row_basis", packed_basis)
    # its own array: cab_solve builds the basis of a first query
    A = P.A.copy()
    moved = runs(A)
    assert packed == [True, True]
    # a repeat query on that array runs on the packed basis it kept
    again = runs(A)
    assert packed == [True, True, True]
    for run in (moved, again):
        for (x, its, conv), (x_p, its_p, conv_p) in zip(aligned, run):
            assert its >= alm._REFRESH_EVERY
            assert x.tobytes() == x_p.tobytes()
            assert its == its_p and conv is conv_p


def _basis_products(iterations):
    """Q^T z and Q v every step, and Q^T x at step 1 and every refresh."""
    return 2 * iterations + 1 + iterations // alm._REFRESH_EVERY


def test_dalm_products_per_iteration(counting_view, monkeypatch):
    P = synth.make_instance(synth.GenSpec(n=120, d=60, k=6, seed=9))
    cfg = SolverConfig(tol=1e-7, max_iter=400)
    plain = dalm_solve(P, cfg)
    P.A, count = counting_view(P.A)
    basis = _count_basis_products(monkeypatch, counting_view)
    res = dalm_solve(P, cfg)
    assert res.converged and res.iterations >= alm._REFRESH_EVERY
    assert count[0] == _DALM_A_PRODUCTS
    assert len(basis) == 1
    assert basis[0][0] == _basis_products(res.iterations)
    assert np.array_equal(res.x_star, plain.x_star)


def test_cab_dalm_products_per_iteration(monkeypatch, counting_view,
                                        count_extended):
    P = synth.make_instance(synth.GenSpec(n=120, d=60, k=6, seed=9))
    b_bad, _ = synth.corrupt_entries(P.b, 0.1, -3.0, 3.0, seed=5)
    cfg = SolverConfig(tol=1e-7, max_iter=400)
    plain = robust.cab_solve(P.A, b_bad, "dalm", cfg)
    counts = count_extended()
    basis = _count_basis_products(monkeypatch, counting_view)
    # its own array: a first query builds the basis
    A = P.A.copy()
    x, e, res = robust.cab_solve(A, b_bad, "dalm", cfg)
    assert len(counts) == 1 and len(basis) == 1
    assert res.converged and res.iterations >= alm._REFRESH_EVERY
    assert counts[0][0] == _DALM_A_PRODUCTS
    assert basis[0][0] == _basis_products(res.iterations)
    assert np.array_equal(x, plain[0]) and np.array_equal(e, plain[1])
    # a repeat query on that array takes no set-up product and no basis
    x, e, res = robust.cab_solve(A, b_bad, "dalm", cfg)
    assert len(counts) == 2 and len(basis) == 1
    assert counts[1][0] == _DALM_A_PRODUCTS - _DALM_SETUP_PRODUCTS
    assert basis[0][0] == 2 * _basis_products(res.iterations)
    assert np.array_equal(x, plain[0]) and np.array_equal(e, plain[1])


def test_dalm_refresh_keeps_the_constraint_on_an_ill_conditioned_A():
    # the step keeps Q^T x = u only up to roundoff; with no refresh of the
    # drift, 20,000 steps end near 1e-7 relative residual on this A
    rng = np.random.default_rng(0)
    U, _ = np.linalg.qr(rng.standard_normal((100, 100)))
    V, _ = np.linalg.qr(rng.standard_normal((250, 100)))
    A = (U * np.logspace(0, -5, 100)) @ V.T  # condition number 1e5
    x0 = np.zeros(250)
    x0[rng.choice(250, 10, replace=False)] = rng.standard_normal(10)
    P = ProblemInstance(A, A @ x0)
    res = dalm_solve(P, SolverConfig(tol=1e-12, max_iter=20000))
    assert res.iterations == 20000
    rel = np.linalg.norm(P.b - A @ res.x_star) / np.linalg.norm(P.b)
    assert rel <= 1e-9


@pytest.mark.parametrize("max_iter", [50, 400])
def test_dalm_last_entry_holds_the_true_residual(max_iter):
    P = synth.make_instance(synth.GenSpec(n=120, d=60, k=6, seed=9))
    events = []
    res = dalm_solve(P, SolverConfig(tol=1e-7, max_iter=max_iter),
                     events.append)
    # 50 steps end at the budget between two refreshes; 400 converge
    assert res.converged == (max_iter == 400)
    true_res = float(np.linalg.norm(P.b - P.A @ res.x_star))
    assert abs(events[-1].residual_norm - true_res) <= 1e-12 * true_res


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
        events = []
        res = palm_solve(P, SolverConfig(tol=1e-8, max_iter=20000),
                         observer=events.append)
        assert res.converged
        mu0 = events[0].state["mu"]
        assert mu0 == MU0_SCALE * P.d / float(np.sum(np.abs(P.b)))
        outer = events[1:]  # the first event is the start point
        assert len(outer) >= 4
        resids, mus = [], []
        for k, e in enumerate(outer):
            assert e.state["mu"] == mu0 * RHO ** k
            mus.append(e.state["mu"])
            resids.append(float(np.linalg.norm(P.b - P.A @ e.x)))
            outer_cases += 1
        # decay trend: residual stays within a factor of the c/mu law
        # calibrated on the first three outer iterations
        c = max(resids[k] * mus[k] for k in range(3))
        for k in range(3, len(outer)):
            assert resids[k] <= 10.0 * c / mus[k]
    assert outer_cases >= 100


@pytest.mark.invariant
def test_dalm_step_identities_hold_every_iteration():
    checked = 0
    for seed in range(2500, 2512):
        spec = synth.GenSpec(n=80, d=40, k=1 + seed % 4, seed=seed)
        P = synth.make_instance(spec)
        A, b = P.A, P.b
        beta = float(np.sum(np.abs(b))) / P.d  # dalm's penalty
        events = []
        res = dalm_solve(P, SolverConfig(tol=1e-7, max_iter=20000),
                         observer=events.append)
        assert res.converged
        for e in events[1:]:  # the first event is the start point
            z, y, x_prev = e.state["z"], e.state["y"], e.state["x_prev"]
            Aty = e.state["Aty"]
            assert float(np.max(np.abs(z))) <= 1.0
            rhs = A @ z - (A @ x_prev - b) / beta
            resid = rhs - A @ (A.T @ y)
            scale = max(1.0, float(np.linalg.norm(rhs)))
            assert float(np.linalg.norm(resid)) <= 1e-10 * scale
            # the step used A^T y as Q v, which must be A^T y itself
            Aty_direct = A.T @ y
            assert (float(np.linalg.norm(Aty - Aty_direct))
                    <= 1e-12 * max(1.0, float(np.linalg.norm(Aty_direct))))
            recomputed = x_prev - beta * (z - Aty)
            assert np.array_equal(e.x, recomputed)
            checked += 1
    assert checked >= 100


@pytest.mark.invariant
def test_palm_and_dalm_agree_on_the_l1_value():
    for seed in range(2600, 2700):
        spec = synth.GenSpec(n=100, d=50, k=1 + seed % 4, seed=seed)
        P = synth.make_instance(spec)
        rp = palm_solve(P, SolverConfig(tol=1e-7, max_iter=20000))
        rd = dalm_solve(P, SolverConfig(tol=1e-7, max_iter=20000))
        assert rp.converged and rd.converged
        l1_p = float(np.sum(np.abs(rp.x_star)))
        l1_d = float(np.sum(np.abs(rd.x_star)))
        assert abs(l1_p - l1_d) <= 1e-4 * max(l1_p, l1_d)
