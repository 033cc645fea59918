"""Corruption-aware solving: extended dictionaries and alignment."""

import functools
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from ell1 import robust
from ell1.bench import SOLVER_NAMES, solve_named
from ell1.exceptions import IllConditionedError
from ell1.model import ProblemInstance, SolverConfig, kkt_from_correlation
from ell1.operators import DenseDictionary
from ell1.robust import (AlignmentProblem, ExtendedDictionary,
                         align_gp_solve, align_homotopy_solve,
                         align_ist_solve, align_palm_solve, cab_solve)
from ell1.shrinkage import fista_solve
from ell1.synth import GenSpec, corrupt_entries, gen_bouquet_dict, \
    make_instance


def materialized(ext):
    """Dense stack the implicit operator claims to equal."""
    d = ext.A.shape[0]
    return np.hstack([ext.A, ext.scale * np.eye(d)])


def corrupted_instance(seed, n=120, d=60, k=6, frac=0.2, amp=1.0):
    P = make_instance(GenSpec(n=n, d=d, k=k, noise_sigma=0.0, seed=seed))
    b_clean = P.A @ P.ground_truth
    scale = float(np.max(np.abs(b_clean)))
    b_bad, mask = corrupt_entries(b_clean, frac, -amp * scale, amp * scale,
                                  seed=seed + 100000)
    return P.A, P.ground_truth, b_clean, b_bad, mask


def bouquet_query(seed, d=60, n=100, groups=10, level=0.2):
    """Three atoms of one group of a bouquet dictionary, then ``level`` of
    the entries replaced by draws up to the peak clean amplitude."""
    rng = np.random.default_rng(seed)
    A, labels = gen_bouquet_dict(d, n, groups, 0.6, seed)
    members = np.flatnonzero(labels == int(rng.integers(groups)))
    active = rng.choice(members, size=min(3, members.size), replace=False)
    x0 = np.zeros(n)
    x0[active] = (rng.uniform(0.5, 1.5, size=active.size)
                  * rng.choice([-1.0, 1.0], size=active.size))
    b = A @ x0
    scale = float(np.max(np.abs(b)))
    b_bad, _ = corrupt_entries(b, level, -scale, scale, seed=seed + 100000)
    return A, b_bad


class TestExtendedDictionary:
    def test_shape_and_mode(self):
        rng = np.random.default_rng(0)
        ext = ExtendedDictionary(rng.standard_normal((8, 12)))
        assert ext.shape == (8, 20)
        assert ext.T.shape == (20, 8)
        assert ext.T.T is ext

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            ExtendedDictionary(np.ones(4))
        with pytest.raises(ValueError):
            ExtendedDictionary(np.ones((2, 3)), identity_scale=0.0)

    def test_weighted_gram_is_symmetric_and_matches_explicit_product(self):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((30, 70))
        ext = ExtendedDictionary(A, identity_scale=0.6)
        for op, dense in ((DenseDictionary(A), A), (ext, materialized(ext))):
            width = dense.shape[1]
            for w in (rng.random(width) + 0.1,
                      10.0 ** rng.uniform(-12, 12, width),
                      np.where(rng.random(width) < 0.3, 0.0,
                               10.0 ** rng.uniform(-12, 12, width))):
                M = op.weighted_gram_dd(w)
                assert np.array_equal(M, M.T)
                ref = (dense * w) @ dense.T
                assert (np.linalg.norm(M - ref)
                        <= 1e-13 * np.linalg.norm(ref))

    def test_column_access_matches_dense(self):
        rng = np.random.default_rng(1)
        ext = ExtendedDictionary(rng.standard_normal((8, 12)),
                                 identity_scale=0.7)
        dense = materialized(ext)
        for j in (0, 5, 11, 12, 15, 19):
            np.testing.assert_allclose(ext.column(j), dense[:, j],
                                       atol=1e-15)
        idx = np.array([0, 3, 11, 12, 19, 15])
        coeffs = rng.standard_normal(idx.size)
        v = rng.standard_normal(8)
        np.testing.assert_allclose(ext.apply_columns(idx, coeffs),
                                   dense[:, idx] @ coeffs, atol=1e-12)
        np.testing.assert_allclose(ext.columns_dot(idx, v),
                                   dense[:, idx].T @ v, atol=1e-12)
        for j in (2, 14):
            np.testing.assert_allclose(ext.gram_column(idx, j),
                                       dense[:, idx].T @ dense[:, j],
                                       atol=1e-12)
        np.testing.assert_allclose(ext.column_norms_sq(),
                                   np.sum(dense * dense, axis=0),
                                   atol=1e-12)

    def test_gram_hooks_match_dense(self):
        rng = np.random.default_rng(2)
        ext = ExtendedDictionary(rng.standard_normal((6, 9)),
                                 identity_scale=1.3)
        dense = materialized(ext)
        w = rng.random(15) + 0.1
        np.testing.assert_allclose(ext.weighted_gram_dd(w),
                                   (dense * w) @ dense.T, atol=1e-12)
        np.testing.assert_allclose(ext.gram_dd(), dense @ dense.T,
                                   atol=1e-12)
        top_sq = float(np.linalg.norm(dense, 2)) ** 2
        assert abs(ext.norm_sq() - top_sq) <= 1e-12 * top_sq
        A_sq = float(np.linalg.norm(ext.A, 2)) ** 2
        assert abs(DenseDictionary(ext.A).norm_sq() - A_sq) <= 1e-12 * A_sq

    @pytest.mark.invariant
    @pytest.mark.parametrize("seed", range(100))
    def test_adjoint_consistency(self, seed):
        # <u, Op v> == <Op^T u, v> for random probes
        rng = np.random.default_rng(seed)
        d = 4 + seed % 7
        n = 3 + seed % 11
        ext = ExtendedDictionary(rng.standard_normal((d, n)),
                                 identity_scale=0.5 + rng.random())
        v = rng.standard_normal(n + d)
        u = rng.standard_normal(d)
        lhs = float(u @ (ext @ v))
        rhs = float((ext.T @ u) @ v)
        scale = max(1.0, abs(lhs))
        assert abs(lhs - rhs) <= 1e-10 * scale


class TestCabSolve:
    def test_unknown_backend(self):
        with pytest.raises(ValueError):
            cab_solve(np.eye(3), np.ones(3), "magic",
                      SolverConfig(tol=1e-6, max_iter=10))

    def test_bad_e_weight(self):
        cfg = SolverConfig(tol=1e-6, max_iter=10,
                           options={"e_weight": -1.0})
        with pytest.raises(ValueError):
            cab_solve(np.eye(3), np.ones(3), "ist", cfg)

    def test_gp_and_gpsr_are_one_backend(self):
        A, x0, b_clean, b_bad, mask = corrupted_instance(3)
        cfg = SolverConfig(tol=1e-8, max_iter=300)
        x1, e1, res1 = cab_solve(A, b_bad, "gp", cfg)
        x2, e2, res2 = cab_solve(A, b_bad, "gpsr", cfg)
        assert x1.tobytes() == x2.tobytes() and e1.tobytes() == e2.tobytes()
        assert (res1.iterations, res1.converged) == (res2.iterations,
                                                     res2.converged)

    @pytest.mark.parametrize("where", ["A", "b"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("backend", SOLVER_NAMES)
    def test_non_finite_input_rejected(self, backend, bad, where):
        rng = np.random.default_rng(0)
        A, b = rng.standard_normal((10, 20)), rng.standard_normal(10)
        (A if where == "A" else b)[3] = bad
        with pytest.raises(ValueError, match="finite"):
            cab_solve(A, b, backend, SolverConfig(tol=1e-6, max_iter=50))

    @pytest.mark.parametrize("backend", ["pdipa", "palm", "dalm"])
    def test_equality_backends_recover_exactly(self, backend):
        A, x0, b_clean, b_bad, mask = corrupted_instance(3)
        e0 = b_bad - b_clean
        cfg = SolverConfig(tol=1e-8, max_iter=6000)
        x, e, _ = cab_solve(A, b_bad, backend, cfg)
        assert np.linalg.norm(x - x0) <= 1e-6 * np.linalg.norm(x0)
        assert np.linalg.norm(e - e0) <= 1e-6 * max(np.linalg.norm(e0), 1.0)

    def test_penalized_backends_agree(self):
        # same lambda, same optimum: the five penalized routes must meet
        A, x0, b_clean, b_bad, mask = corrupted_instance(3)
        cfg = SolverConfig(tol=1e-10, max_iter=8000)
        answers = [cab_solve(A, b_bad, name, cfg)
                   for name in ("homotopy", "gp", "ist", "fista", "tnipm")]
        x_ref, e_ref, _ = answers[0]
        for x, e, _ in answers[1:]:
            assert np.linalg.norm(x - x_ref) <= 1e-5 * (
                1.0 + np.linalg.norm(x_ref))
            assert np.linalg.norm(e - e_ref) <= 1e-5 * (
                1.0 + np.linalg.norm(e_ref))

    def test_pure_corruption_lands_on_identity_block(self):
        # no signal at all: the identity block is the cheap explanation
        rng = np.random.default_rng(9)
        A = rng.standard_normal((40, 80))
        A /= np.linalg.norm(A, axis=0)
        b = np.zeros(40)
        spots = rng.choice(40, size=5, replace=False)
        b[spots] = 5.0 * rng.choice([-1.0, 1.0], size=5)
        x, e, _ = cab_solve(A, b, "pdipa", SolverConfig(tol=1e-8, max_iter=200))
        assert np.linalg.norm(e - b) <= 1e-6 * np.linalg.norm(b)
        assert np.linalg.norm(x) <= 1e-6 * np.linalg.norm(b)

    @pytest.mark.parametrize("name", SOLVER_NAMES)
    def test_matches_dense_stack_lasso(self, name):
        # implicit operator and materialized stack solve the same problem
        A, x0, b_clean, b_bad, mask = corrupted_instance(5, n=60, d=30, k=3)
        lam = 1e-2 * float(np.max(np.abs(
            np.concatenate([A.T @ b_bad, b_bad]))))
        cfg = SolverConfig(tol=1e-10, max_iter=8000, lam=lam)
        x, e, _ = cab_solve(A, b_bad, name, cfg)
        dense = np.hstack([A, np.eye(30)])
        res = solve_named(name, make_dense_problem(dense, b_bad), cfg)
        np.testing.assert_allclose(x, res.x_star[:60], atol=1e-6)
        np.testing.assert_allclose(e, res.x_star[60:], atol=1e-6)

    def test_e_weight_rescales_the_corruption_block(self):
        # e_weight w prices the corruption at lam * w per unit; the same
        # answer comes from the dense stack [A, I/w] with e read off as
        # scale * tail
        A, x0, b_clean, b_bad, mask = corrupted_instance(6, n=60, d=30, k=3)
        weight = 2.0
        lam = 1e-2 * float(np.max(np.abs(A.T @ b_bad)))
        cfg = SolverConfig(tol=1e-10, max_iter=8000, lam=lam)
        x, e, _ = cab_solve(A, b_bad, "fista", cfg)
        xw, ew, _ = cab_solve(A, b_bad, "fista",
                           SolverConfig(tol=1e-10, max_iter=8000, lam=lam,
                                        options={"e_weight": weight}))
        dense = np.hstack([A, np.eye(30) / weight])
        res = fista_solve(make_dense_problem(dense, b_bad), cfg)
        np.testing.assert_allclose(xw, res.x_star[:60], atol=1e-6)
        np.testing.assert_allclose(ew, res.x_star[60:] / weight, atol=1e-6)
        # pricier corruption block, so less lands on it
        assert np.sum(np.abs(ew)) < np.sum(np.abs(e)) + 1e-12

    def test_bouquet_group_identification(self):
        # high-coherence grouped dictionary, 40 percent gross corruption:
        # the strongest coefficient group must match the planted one in at
        # least 90 of 100 trials
        wins = 0
        for seed in range(2700, 2800):
            rng = np.random.default_rng(seed)
            A, labels = gen_bouquet_dict(80, 140, 20, 0.6, seed)
            g = int(rng.integers(20))
            members = np.flatnonzero(labels == g)
            active = rng.choice(members, size=min(3, members.size),
                                replace=False)
            x0 = np.zeros(140)
            x0[active] = (rng.uniform(0.5, 1.5, size=active.size)
                          * rng.choice([-1.0, 1.0], size=active.size))
            b = A @ x0
            scale = float(np.max(np.abs(b)))
            b_bad, _ = corrupt_entries(b, 0.4, -scale, scale,
                                       seed=seed + 100000)
            x, e, _ = cab_solve(A, b_bad, "homotopy",
                             SolverConfig(tol=1e-8, max_iter=4000))
            norms = [np.linalg.norm(x[labels == gg]) for gg in range(20)]
            wins += int(np.argmax(norms)) == g
        assert wins >= 90

    @pytest.mark.parametrize("name", SOLVER_NAMES)
    def test_scale_covariant(self, name):
        # b -> s b with lam -> s lam for s = 2^k on corrupted bouquet
        # queries: every product and comparison of every backend scales
        # exactly, so (x, e) scale bitwise and the step count holds
        for seed in range(2900, 2903):
            A, b = bouquet_query(seed)
            lam = 1e-2 * float(np.max(np.abs(np.concatenate([A.T @ b,
                                                             b]))))
            cfg = SolverConfig(lam=lam, tol=1e-8, max_iter=4000)
            x, e, res = cab_solve(A, b, name, cfg)
            for log2_scale in (-20, -3, 5, 20):
                s = 2.0 ** log2_scale
                x_s, e_s, res_s = cab_solve(A, s * b, name,
                                            replace(cfg, lam=s * lam))
                np.testing.assert_array_equal(x_s, s * x)
                np.testing.assert_array_equal(e_s, s * e)
                assert res_s.iterations == res.iterations
                assert res_s.converged == res.converged

    @pytest.mark.invariant
    @pytest.mark.parametrize("seed", range(2700, 2810))
    def test_clean_data_keeps_identity_block_negligible(self, seed):
        # without corruption the identity block picks up only the
        # shrinkage residue of the penalized fit, a sub-percent sliver
        P = make_instance(GenSpec(n=60, d=30, k=3, noise_sigma=0.0,
                                  seed=seed))
        x, e, _ = cab_solve(P.A, P.b, "homotopy",
                         SolverConfig(tol=1e-8, max_iter=2000))
        assert np.sum(np.abs(e)) <= 1e-2 * np.sum(np.abs(P.b))


def make_dense_problem(A, b):
    from ell1.model import ProblemInstance
    return ProblemInstance(A=A, b=b)


def corrupted_alignment(seed, d=120, m=11, frac=0.10, amp=3.0):
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((d, m))
    w0 = rng.standard_normal(m)
    b = B @ w0
    b_bad, mask = corrupt_entries(b, frac, -amp, amp, seed=seed + 500)
    return AlignmentProblem(B, b_bad, ground_truth_w=w0), w0, mask


class TestAlignmentProblem:
    def test_requires_tall_matrix(self):
        with pytest.raises(ValueError):
            AlignmentProblem(np.ones((3, 3)), np.ones(3))
        with pytest.raises(ValueError):
            AlignmentProblem(np.ones((2, 5)), np.ones(2))

    def test_length_check(self):
        with pytest.raises(ValueError):
            AlignmentProblem(np.ones((5, 2)), np.ones(4))

    def test_dimensions(self):
        prob = AlignmentProblem(np.ones((5, 2)), np.ones(5))
        assert prob.d == 5 and prob.m == 2

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["B", "b"])
    def test_non_finite_input_rejected(self, bad, where):
        B, b = np.ones((5, 2)), np.ones(5)
        (B if where == "B" else b)[1] = bad
        with pytest.raises(ValueError, match="finite"):
            AlignmentProblem(B, b)


class TestAlignGp:
    def test_rank_deficient_raises(self):
        B = np.ones((4, 2))  # rank 1
        with pytest.raises(IllConditionedError):
            align_gp_solve(AlignmentProblem(B, np.ones(4)), 0.1,
                           SolverConfig(tol=1e-8, max_iter=50))

    @pytest.mark.parametrize("lam", [0.0, -1.0])
    def test_explicit_nonpositive_weight_rejected(self, lam):
        prob, w0, mask = corrupted_alignment(3011)
        with pytest.raises(ValueError):
            align_gp_solve(prob, lam, SolverConfig(tol=1e-8, max_iter=50))

    def test_clean_data_reduces_to_least_squares(self):
        rng = np.random.default_rng(4)
        B = rng.standard_normal((30, 4))
        w0 = rng.standard_normal(4)
        prob = AlignmentProblem(B, B @ w0)
        w, e = align_gp_solve(prob, None, SolverConfig(tol=1e-8,
                                                       max_iter=200))
        np.testing.assert_allclose(w, w0, atol=1e-7)
        assert np.max(np.abs(e)) <= 1e-7

    def test_flat_optimum_objective_value(self):
        # single column of ones against b = (1, 5) at weight 1: every w in
        # [2, 4] with e = (w - 3 - 1, w - 3 + 1) shifted accordingly gives
        # the same objective 3, the unique minimum value
        prob = AlignmentProblem(np.array([[1.0], [1.0]]),
                                np.array([1.0, 5.0]))
        w, e = align_gp_solve(prob, 1.0, SolverConfig(tol=1e-10,
                                                      max_iter=300))
        r = prob.b - prob.B @ w - e
        value = 0.5 * float(r @ r) + float(np.sum(np.abs(e)))
        assert abs(value - 3.0) <= 1e-6
        assert 2.0 - 1e-6 <= w[0] <= 4.0 + 1e-6

    def test_recovers_under_sparse_corruption(self):
        prob, w0, mask = corrupted_alignment(3011)
        w, e = align_gp_solve(prob, None, SolverConfig(tol=1e-8,
                                                       max_iter=400))
        assert np.linalg.norm(w - w0) <= 1e-2 * np.linalg.norm(w0)

    def test_normal_equations_close_at_return(self):
        prob, w0, mask = corrupted_alignment(3017)
        w, e = align_gp_solve(prob, None, SolverConfig(tol=1e-8,
                                                       max_iter=400))
        r = prob.b - prob.B @ w - e
        assert float(np.max(np.abs(prob.B.T @ r))) <= 1e-8


class TestAlignHomotopy:
    def test_immediate_return_when_target_above_start(self):
        rng = np.random.default_rng(8)
        B = rng.standard_normal((20, 3))
        w0 = rng.standard_normal(3)
        b = B @ w0 + 0.01 * rng.standard_normal(20)
        prob = AlignmentProblem(B, b)
        lam_hi = 10.0 * float(np.max(np.abs(b)))
        w, e = align_homotopy_solve(prob, SolverConfig(tol=1e-8,
                                                       max_iter=100,
                                                       lam=lam_hi))
        wls = np.linalg.lstsq(B, b, rcond=None)[0]
        np.testing.assert_allclose(w, wls, atol=1e-10)
        assert np.all(e == 0.0)

    def test_error_support_matches_corruption(self):
        rng = np.random.default_rng(21)
        B = rng.standard_normal((60, 5))
        w0 = rng.standard_normal(5)
        b = B @ w0
        spots = rng.choice(60, size=5, replace=False)
        b_bad = b.copy()
        b_bad[spots] += rng.uniform(1.0, 3.0, size=5) * rng.choice(
            [-1.0, 1.0], size=5)
        prob = AlignmentProblem(B, b_bad)
        w, e = align_homotopy_solve(prob, SolverConfig(tol=1e-9,
                                                       max_iter=4000))
        found = np.flatnonzero(np.abs(e) > 1e-6 * np.max(np.abs(e)))
        assert set(found) == set(spots)

    def test_agrees_with_barrier_solver_at_matched_weight(self):
        prob, w0, mask = corrupted_alignment(3023, d=60, m=7)
        lam = 0.05 * float(np.max(np.abs(prob.b)))
        w1, e1 = align_gp_solve(prob, lam, SolverConfig(tol=1e-9,
                                                        max_iter=300))
        w2, e2 = align_homotopy_solve(prob, SolverConfig(tol=1e-9,
                                                         max_iter=4000,
                                                         lam=lam))
        for (w, e) in ((w1, e1), (w2, e2)):
            r = prob.b - prob.B @ w - e
            assert kkt_from_correlation(e, r, lam) <= 1e-8 * lam
        r1 = prob.b - prob.B @ w1 - e1
        r2 = prob.b - prob.B @ w2 - e2
        F1 = 0.5 * float(r1 @ r1) + lam * float(np.sum(np.abs(e1)))
        F2 = 0.5 * float(r2 @ r2) + lam * float(np.sum(np.abs(e2)))
        assert abs(F1 - F2) <= 1e-9 * max(1.0, abs(F1))


class TestAlignIst:
    def test_agrees_with_barrier_solver(self):
        prob, w0, mask = corrupted_alignment(3037, d=60, m=7)
        lam = 0.05 * float(np.max(np.abs(prob.b)))
        w1, e1 = align_gp_solve(prob, lam, SolverConfig(tol=1e-9,
                                                        max_iter=300))
        w2, e2 = align_ist_solve(prob, lam, SolverConfig(tol=1e-9,
                                                         max_iter=60000))
        r1 = prob.b - prob.B @ w1 - e1
        r2 = prob.b - prob.B @ w2 - e2
        F1 = 0.5 * float(r1 @ r1) + lam * float(np.sum(np.abs(e1)))
        F2 = 0.5 * float(r2 @ r2) + lam * float(np.sum(np.abs(e2)))
        assert abs(F1 - F2) <= 1e-5 * max(1.0, abs(F1))


ALL_ALIGNERS = {
    "gp": lambda prob, cfg: align_gp_solve(prob, None, cfg),
    "homotopy": align_homotopy_solve,
    "ist": lambda prob, cfg: align_ist_solve(prob, None, cfg),
    "palm": align_palm_solve,
}


REDUCED_ALIGNERS = {name: solve for name, solve in ALL_ALIGNERS.items()
                    if name != "palm"}


def graded_basis(log10_cond, seed=0):
    # 120 x 6 B = U diag(logspace(0, -k, 6)) V^T has cond(B) = 10^k
    rng = np.random.default_rng(seed)
    U = np.linalg.qr(rng.standard_normal((120, 6)))[0]
    V = np.linalg.qr(rng.standard_normal((6, 6)))[0]
    return (U * np.logspace(0, -log10_cond, 6)) @ V.T, rng.standard_normal(6)


def cond_1e8_case():
    B, w0 = graded_basis(8)
    return B, B @ w0


def zero_column_case():
    B = np.random.default_rng(1).standard_normal((40, 5))
    B[:, 2] = 0.0
    return B, np.arange(40.0)


@pytest.mark.parametrize("name, make", [
    pytest.param(name, make, id=name + case)
    for case, make in [("", lambda: (np.ones((4, 2)), np.arange(4.0))),
                       ("-cond1e8", cond_1e8_case),
                       ("-zero-column", zero_column_case)]
    for name in sorted(ALL_ALIGNERS)])
def test_reduced_aligner_rank_deficient_raises(name, make):
    # rank 1, or cond(B) >= 1/sqrt(eps), where B^T B is numerically
    # singular: no aligner may return a w; a zero column must raise, not
    # warn
    B, b = make()
    with pytest.raises(IllConditionedError):
        ALL_ALIGNERS[name](AlignmentProblem(B, b),
                           SolverConfig(tol=1e-8, max_iter=50))


@pytest.mark.parametrize("name", sorted(REDUCED_ALIGNERS))
@pytest.mark.parametrize("s", [1e-8, 1e8])
def test_reduced_aligner_scale_covariance(name, s):
    # b -> s b must give (s w, s e): the default weight scales with b and
    # every stopping test is relative
    prob, w0, mask = corrupted_alignment(3051, d=60, m=7)
    cfg = SolverConfig(tol=1e-9, max_iter=60000)
    w, e = REDUCED_ALIGNERS[name](prob, cfg)
    w_s, e_s = REDUCED_ALIGNERS[name](AlignmentProblem(prob.B, s * prob.b),
                                      cfg)
    assert np.linalg.norm(w_s - s * w) <= 1e-9 * np.linalg.norm(s * w)
    assert np.linalg.norm(e_s - s * e) <= 1e-9 * np.linalg.norm(s * e)


@pytest.mark.parametrize("solver, align", [
    ("gpsr_solve", lambda prob, cfg: align_gp_solve(prob, cfg.lam, cfg)),
    ("ist_solve", lambda prob, cfg: align_ist_solve(prob, cfg.lam, cfg)),
    ("homotopy_solve", align_homotopy_solve),
    ("gpsr_solve", ALL_ALIGNERS["gp"]), ("ist_solve", ALL_ALIGNERS["ist"])],
    ids=["gp", "ist", "homotopy", "gp-lam-None", "ist-lam-None"])
def test_reduced_aligner_reaches_the_patched_module_global(solver, align,
                                                           monkeypatch):
    # a profiler wraps robust.<solver> in place, so the aligners must look
    # their solver up at call time; it runs with config at the weight,
    # which lam=None takes from config.lam before any default
    prob, w0, mask = corrupted_alignment(3051, d=60, m=7)
    cfg = SolverConfig(tol=1e-9, max_iter=10, lam=0.25)
    weights = []

    def spy(P, config):
        weights.append(config.lam)
        return SimpleNamespace(x_star=np.zeros(P.n))

    monkeypatch.setattr(robust, solver, spy)
    w, e = align(prob, cfg)
    assert weights == [0.25] and not np.any(e)


@pytest.mark.parametrize("name", sorted(ALL_ALIGNERS))
def test_zero_rhs_gives_the_exact_zero_fit(name):
    # the default weight is 0 at b = 0, where (w, e) = (0, 0) is exact
    prob = AlignmentProblem(np.random.default_rng(0)
                            .standard_normal((10, 2)), np.zeros(10))
    w, e = ALL_ALIGNERS[name](prob, SolverConfig(tol=1e-8, max_iter=50))
    assert np.all(w == 0.0) and np.all(e == 0.0)


def gaussian_basis():
    rng = np.random.default_rng(5)
    return rng.standard_normal((40, 5)), rng.standard_normal(5)


@pytest.mark.parametrize("name, basis, tol", [
    pytest.param(name, basis, tol, id=name + case)
    for case, basis, tol in [("", gaussian_basis, 1e-12),
                             ("-cond1e6", lambda: graded_basis(6), 1e-9)]
    for name in sorted(ALL_ALIGNERS)])
def test_reduced_aligner_rhs_in_range_fits_exactly(name, basis, tol):
    # b = B w0 leaves a least-squares residual of roundoff size, below the
    # shared roundoff floor, so every aligner returns the exact
    # least-squares fit with e = 0; w comes from R, not the normal
    # equations, so cond(B) = 1e6 costs about 1e6 eps of w, not 1e12 eps
    B, w0 = basis()
    w, e = ALL_ALIGNERS[name](AlignmentProblem(B, B @ w0),
                              SolverConfig(tol=1e-8, max_iter=5000))
    assert np.linalg.norm(w - w0) <= tol * np.linalg.norm(w0)
    assert not np.any(e)


def implicit_projector(prob):
    """The projector and data _reduced_align_solve hands its solve, the
    Q1 of B, and the dense I - Q1 Q1^T it stands for."""
    seen = []

    def capture(P, c, lam):
        seen.append((P, c))
        return np.zeros(prob.d)

    robust._reduced_align_solve(prob, 1.0, capture)
    Q1 = robust._column_gram_factor(prob.B)[0]
    (P, c), = seen
    return P, c, Q1, np.eye(prob.d) - Q1 @ Q1.T


@pytest.mark.parametrize("seed", [3061, 3062])
def test_implicit_projector_matches_the_dense_one(seed):
    prob, w0, mask = corrupted_alignment(seed, d=60, m=7)
    P, c, Q1, dense = implicit_projector(prob)
    assert P.shape == dense.shape
    np.testing.assert_allclose(c, dense @ prob.b, rtol=0, atol=1e-14
                               * np.linalg.norm(prob.b))
    v = np.random.default_rng(seed).standard_normal(prob.d)
    np.testing.assert_allclose(P.apply(v), dense @ v, rtol=0,
                               atol=1e-14 * np.linalg.norm(v))
    for j in range(prob.d):
        np.testing.assert_allclose(P.column(j), dense[:, j], rtol=0,
                                   atol=1e-15)
    # the identity adjoint is P^T on range(P), where c and every residual
    # of the reduced problem lie
    r = dense @ v
    np.testing.assert_allclose(P.adjoint(r), dense.T @ r, rtol=0,
                               atol=1e-14 * np.linalg.norm(r))


@pytest.mark.parametrize("name, solver", [("gp", "gpsr_solve"),
                                          ("ist", "ist_solve"),
                                          ("homotopy", "homotopy_solve")])
@pytest.mark.parametrize("seed", [3071, 3072])
def test_implicit_projector_aligners_match_the_dense_projector(
        name, solver, seed, monkeypatch):
    # the solver on the dense ProblemInstance(I - Q1 Q1^T, c) at the same
    # weight takes the same steps to the same (w, e), up to roundoff
    prob, w0, mask = corrupted_alignment(seed, d=80, m=9)
    cfg = SolverConfig(tol=1e-8, max_iter=40000)
    Q1, R = robust._column_gram_factor(prob.B)
    c = prob.b - Q1 @ (Q1.T @ prob.b)
    lam = robust._default_align_lambda(prob, c)
    solve = getattr(robust, solver)
    ref = solve(ProblemInstance(np.eye(prob.d) - Q1 @ Q1.T, c),
                replace(cfg, lam=lam))
    w_ref = np.linalg.solve(R, Q1.T @ (prob.b - ref.x_star))
    runs = []

    def recorded(P, config):
        runs.append(solve(P, config))
        return runs[-1]

    monkeypatch.setattr(robust, solver, recorded)
    w, e = ALL_ALIGNERS[name](prob, cfg)
    (run,) = runs
    assert run.iterations > 1
    assert (run.iterations, run.converged) == (ref.iterations, ref.converged)
    assert np.linalg.norm(e - ref.x_star) <= 1e-12 * np.linalg.norm(e)
    assert np.linalg.norm(w - w_ref) <= 1e-12 * np.linalg.norm(w)


class TestAlignPalm:
    def test_exact_fit_recovery(self):
        # constrained form drives the fit residual to zero, so sparse
        # corruption separates exactly
        prob, w0, mask = corrupted_alignment(3041)
        w, e = align_palm_solve(prob, SolverConfig(tol=1e-10,
                                                   max_iter=2000))
        assert np.linalg.norm(w - w0) <= 1e-8 * np.linalg.norm(w0)
        r = prob.b - prob.B @ w - e
        assert np.linalg.norm(r) <= 1e-9 * np.linalg.norm(prob.b)

    @pytest.mark.parametrize("seed", range(3000, 3010))
    def test_agrees_with_homotopy_at_zero_weight(self, seed):
        # at lam = 0 the penalized path ends at the exact-fit problem
        # palm solves, so the two aligners must land on the same w
        prob, w0, mask = corrupted_alignment(seed)
        cfg = SolverConfig(tol=1e-10, max_iter=5000)
        w_p, _ = align_palm_solve(prob, cfg)
        w_h, _ = align_homotopy_solve(prob, replace(cfg, lam=0.0))
        assert np.linalg.norm(w_p - w_h) <= 1e-8 * np.linalg.norm(w_h)

    def test_zero_data(self):
        prob = AlignmentProblem(np.random.default_rng(0)
                                .standard_normal((10, 2)), np.zeros(10))
        w, e = align_palm_solve(prob, SolverConfig(tol=1e-8, max_iter=50))
        assert np.all(w == 0.0) and np.all(e == 0.0)

    @pytest.mark.parametrize("log2_scale", [-27, 27])
    def test_scale_covariance(self, log2_scale):
        # b -> s b gives (s w, s e) bitwise for s a power of 2: the start
        # penalty is in the units of P b and every stopping test relative
        prob, w0, mask = corrupted_alignment(3051, d=60, m=7)
        cfg = SolverConfig(tol=1e-9, max_iter=60000)
        s = 2.0 ** log2_scale
        w, e = align_palm_solve(prob, cfg)
        w_s, e_s = align_palm_solve(AlignmentProblem(prob.B, s * prob.b), cfg)
        np.testing.assert_array_equal(w_s, s * w)
        np.testing.assert_array_equal(e_s, s * e)


@functools.lru_cache(maxsize=None)
def align_three_way(seed):
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((60, 7))
    w0 = rng.standard_normal(7)
    b_bad, mask = corrupt_entries(B @ w0, 0.1, -2.0, 2.0, seed=seed + 5)
    prob = AlignmentProblem(B, b_bad)
    lam = 0.05 * float(np.max(np.abs(b_bad)))
    tol = 1e-8
    out = []
    for w, e in (
            align_gp_solve(prob, lam, SolverConfig(tol=tol, max_iter=300)),
            align_ist_solve(prob, lam, SolverConfig(tol=tol,
                                                    max_iter=60000)),
            align_homotopy_solve(prob, SolverConfig(tol=tol, max_iter=4000,
                                                    lam=lam))):
        r = b_bad - B @ w - e
        out.append((float(np.max(np.abs(B.T @ r))),
                    kkt_from_correlation(e, r, lam),
                    0.5 * float(r @ r) + lam * float(np.sum(np.abs(e)))))
    return lam, tol, out


@pytest.mark.invariant
@pytest.mark.parametrize("seed", range(2700, 2810))
def test_alignment_optimality_and_agreement(seed):
    # all three penalized alignment solvers close both stationarity
    # conditions and land on one objective value
    lam, tol, out = align_three_way(seed)
    values = [F for (_, _, F) in out]
    for ls_resid, kkt, F in out:
        assert ls_resid <= 10.0 * tol
        assert kkt <= 10.0 * tol * lam
    spread = max(values) - min(values)
    assert spread <= 1e-4 * max(1.0, abs(min(values)))
