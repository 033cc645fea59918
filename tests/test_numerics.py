import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ell1 import numerics
from ell1.exceptions import NotPositiveDefiniteError, NumericalBreakdownError


def random_spd(rng, n, cond_lo=1.0, cond_hi=10.0):
    # well-conditioned SPD via a random orthogonal basis and bounded spectrum
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lams = rng.uniform(cond_lo, cond_hi, n)
    return (Q * lams) @ Q.T


# ---------------------------------------------------------------- soft threshold

def test_soft_threshold_examples():
    assert numerics.soft_threshold(np.array([0.7]), 1.0) == pytest.approx([0.0])
    np.testing.assert_allclose(
        numerics.soft_threshold(np.array([2.0, -3.0]), 0.5), [1.5, -2.5])
    x = np.array([0.3, -4.2, 0.0])
    np.testing.assert_array_equal(numerics.soft_threshold(x, 0.0), x)


def test_soft_threshold_rejects_negative_threshold():
    with pytest.raises(ValueError):
        numerics.soft_threshold(np.array([1.0]), -0.1)


def test_soft_threshold_exact_zeros():
    out = numerics.soft_threshold(np.array([0.99, -1.0, 1.0]), 1.0)
    assert np.all(out == 0.0)


finite_floats = st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False, allow_infinity=False)


@pytest.mark.invariant
@settings(max_examples=150, deadline=None)
@given(arrays(np.float64, st.integers(1, 40), elements=finite_floats),
       arrays(np.float64, st.integers(1, 40), elements=finite_floats),
       st.floats(min_value=0, max_value=1e5))
def test_soft_threshold_nonexpansive(u, v, a):
    m = min(u.shape[0], v.shape[0])
    u, v = u[:m], v[:m]
    lhs = np.linalg.norm(numerics.soft_threshold(u, a) - numerics.soft_threshold(v, a))
    assert lhs <= np.linalg.norm(u - v) + 1e-9


@pytest.mark.invariant
@settings(max_examples=150, deadline=None)
@given(arrays(np.float64, st.integers(1, 40), elements=finite_floats),
       st.floats(min_value=0, max_value=1e5))
def test_soft_threshold_sign_and_magnitude(u, a):
    out = numerics.soft_threshold(u, a)
    assert np.all(u * out >= 0.0)
    np.testing.assert_allclose(np.abs(out), np.maximum(np.abs(u) - a, 0.0),
                               atol=1e-12)


# ---------------------------------------------------------------- box projection

def test_project_box_examples():
    np.testing.assert_allclose(
        numerics.project_box_linf(np.array([1.5, -0.2, -3.0])), [1.0, -0.2, -1.0])
    np.testing.assert_allclose(
        numerics.project_box_linf(np.array([0.9, -0.9])), [0.9, -0.9])
    assert numerics.project_box_linf(np.array([])).shape == (0,)


@pytest.mark.invariant
@settings(max_examples=150, deadline=None)
@given(arrays(np.float64, st.integers(1, 50), elements=finite_floats))
def test_project_box_idempotent_and_inside(z):
    p = numerics.project_box_linf(z)
    assert np.max(np.abs(p)) <= 1.0
    np.testing.assert_array_equal(numerics.project_box_linf(p), p)


# ---------------------------------------------------------------- cholesky

def test_chol_factor_reproduces_matrix():
    rng = np.random.default_rng(7)
    M = random_spd(rng, 6)
    F = numerics.chol_factor(M)
    assert np.all(np.diag(F.R) > 0)
    np.testing.assert_allclose(F.matrix(), M, rtol=1e-10, atol=1e-12)


def test_chol_factor_rejects_indefinite():
    with pytest.raises(NotPositiveDefiniteError):
        numerics.chol_factor(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_chol_rank1_diagonal_examples():
    F = numerics.chol_factor(np.eye(2))
    up = numerics.chol_rank1(F, np.array([1.0, 0.0]), 1)
    np.testing.assert_allclose(up.matrix(), np.diag([2.0, 1.0]), atol=1e-12)
    down = numerics.chol_rank1(up, np.array([1.0, 0.0]), -1)
    np.testing.assert_allclose(down.matrix(), np.eye(2), atol=1e-12)


def test_chol_rank1_vs_dense_refactorization():
    # DERIVED oracle: fresh dense factorization of M + v v^T
    rng = np.random.default_rng(21)
    for _ in range(20):
        M = random_spd(rng, 5)
        v = rng.standard_normal(5)
        F = numerics.chol_factor(M)
        up = numerics.chol_rank1(F, v, 1)
        oracle = numerics.chol_factor(M + np.outer(v, v))
        np.testing.assert_allclose(up.matrix(), oracle.matrix(),
                                   rtol=1e-10, atol=1e-10)


def test_chol_rank1_downdate_to_singular_raises():
    # removing the full mass of a rank-1 matrix plus epsilon is not SPD
    v = np.array([1.0, 2.0])
    M = np.outer(v, v) + 1e-14 * np.eye(2)
    F = numerics.chol_factor(M)
    with pytest.raises(NotPositiveDefiniteError):
        numerics.chol_rank1(F, 1.0000001 * v, -1)


def test_chol_rank1_rejects_bad_sign():
    F = numerics.chol_factor(np.eye(2))
    with pytest.raises(ValueError):
        numerics.chol_rank1(F, np.array([1.0, 0.0]), 2)


@pytest.mark.invariant
def test_chol_rank1_roundtrip_property():
    rng = np.random.default_rng(99)
    for _ in range(120):
        n = int(rng.integers(1, 9))
        M = random_spd(rng, n)
        v = rng.standard_normal(n)
        F = numerics.chol_factor(M)
        back = numerics.chol_rank1(numerics.chol_rank1(F, v, 1), v, -1)
        assert np.max(np.abs(back.R - F.R)) <= 1e-9 * max(1.0, np.max(np.abs(F.R)))


@pytest.mark.invariant
def test_chol_append_delete_match_fresh_factorization():
    rng = np.random.default_rng(123)
    for _ in range(120):
        n = int(rng.integers(2, 9))
        X = rng.standard_normal((n + 3, n))
        M = X.T @ X + 0.5 * np.eye(n)
        F = numerics.chol_factor(M[:-1, :-1])
        grown = numerics.chol_append(F, M[:-1, -1], M[-1, -1])
        np.testing.assert_allclose(grown.matrix(), M, rtol=1e-9, atol=1e-9)
        k = int(rng.integers(0, n))
        keep = [i for i in range(n) if i != k]
        shrunk = numerics.chol_delete(grown, k)
        np.testing.assert_allclose(shrunk.matrix(), M[np.ix_(keep, keep)],
                                   rtol=1e-9, atol=1e-9)


def test_chol_solve():
    rng = np.random.default_rng(5)
    M = random_spd(rng, 8)
    rhs = rng.standard_normal(8)
    F = numerics.chol_factor(M)
    np.testing.assert_allclose(F.solve(rhs), np.linalg.solve(M, rhs),
                               rtol=1e-9, atol=1e-11)


def test_chol_factor_rejects_non_finite_entries():
    for bad in (np.nan, np.inf):
        R = np.eye(3)
        R[0, 2] = bad
        with pytest.raises(ValueError):
            numerics.CholFactor(R)
        F = numerics.chol_factor(np.eye(3))
        rhs = np.ones(3)
        rhs[1] = bad
        with pytest.raises(ValueError):
            F.solve(rhs)
        with pytest.raises(ValueError):
            numerics.chol_append(F, rhs, 4.0)


# ---------------------------------------------------------------- pcg

def test_pcg_identity_one_iteration():
    b = np.array([1.0, -2.0, 3.0])
    res = numerics.pcg_solve(np.eye(3), b, tol=1e-10, max_iter=10)
    assert res.converged and res.iterations == 1
    np.testing.assert_allclose(res.x, b, atol=1e-12)


def test_pcg_diagonal_example():
    res = numerics.pcg_solve(np.diag([1.0, 2.0]), np.array([1.0, 2.0]),
                             tol=1e-10, max_iter=10)
    np.testing.assert_allclose(res.x, [1.0, 1.0], atol=1e-10)


def test_pcg_vs_dense_solve():
    # DERIVED oracle: dense factorization solve on a 20x20 SPD system
    rng = np.random.default_rng(11)
    M = random_spd(rng, 20)
    b = rng.standard_normal(20)
    res = numerics.pcg_solve(M, b, tol=1e-12, max_iter=200)
    exact = np.linalg.solve(M, b)
    assert res.converged
    assert np.linalg.norm(res.x - exact) / np.linalg.norm(exact) <= 1e-8


def test_pcg_indefinite_breakdown_flag():
    M = np.diag([1.0, -1.0])
    res = numerics.pcg_solve(M, np.array([1.0, 1.0]), tol=1e-10, max_iter=5)
    assert not res.converged


def test_pcg_nonfinite_raises():
    def bad_op(v):
        return np.full_like(v, np.nan)
    with pytest.raises(NumericalBreakdownError):
        numerics.pcg_solve(bad_op, np.array([1.0, 1.0]), tol=1e-8, max_iter=3)


def test_pcg_diagonal_preconditioner():
    rng = np.random.default_rng(31)
    d = rng.uniform(1, 1e4, 30)
    M = np.diag(d)
    b = rng.standard_normal(30)
    res = numerics.pcg_solve(M, b, precond=d, tol=1e-12, max_iter=5)
    assert res.converged  # perfect preconditioning solves in one step
    np.testing.assert_allclose(res.x, b / d, rtol=1e-10)


@pytest.mark.invariant
def test_pcg_matches_dense_solver_property():
    rng = np.random.default_rng(42)
    for _ in range(110):
        n = int(rng.integers(2, 24))
        M = random_spd(rng, n)
        b = rng.standard_normal(n)
        res = numerics.pcg_solve(M, b, tol=1e-12, max_iter=n)
        exact = np.linalg.solve(M, b)
        err = np.linalg.norm(res.x - exact) / np.linalg.norm(exact)
        assert err <= 1e-8


# ---------------------------------------------------------------- spectral norm

def test_spectral_norm_sq_examples():
    assert numerics.spectral_norm_sq(np.diag([3.0, 1.0])) == pytest.approx(9.0, rel=1e-9)
    assert numerics.spectral_norm_sq(np.array([[3.0], [4.0]])) == pytest.approx(25.0, rel=1e-12)


def test_spectral_norm_sq_rejects_zero_matrix():
    with pytest.raises(ValueError):
        numerics.spectral_norm_sq(np.zeros((3, 4)))


def test_spectral_norm_sq_vs_eigendecomposition():
    # DERIVED oracle: full symmetric eigendecomposition of A^T A
    rng = np.random.default_rng(17)
    A = rng.standard_normal((30, 50))
    est = numerics.spectral_norm_sq(A, tol=1e-8)
    truth = float(np.max(np.linalg.eigvalsh(A.T @ A)))
    assert abs(est - truth) / truth <= 1e-6


@pytest.mark.invariant
def test_spectral_norm_sq_accuracy_property():
    rng = np.random.default_rng(73)
    for _ in range(110):
        d = int(rng.integers(2, 25))
        n = int(rng.integers(2, 25))
        A = rng.standard_normal((d, n))
        est = numerics.spectral_norm_sq(A, tol=1e-9)
        truth = float(np.max(np.linalg.eigvalsh(A.T @ A)))
        assert abs(est - truth) / truth <= 1e-6
