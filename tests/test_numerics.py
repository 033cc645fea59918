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

def assert_fresh_array_like(fn, u, expected):
    # same shape as u, float64, u neither aliased nor modified
    before = np.array(u, copy=True)
    out = fn(u)
    assert isinstance(out, np.ndarray)
    assert out.shape == np.shape(u)
    assert out.dtype == np.float64
    assert not np.shares_memory(out, u)
    np.testing.assert_array_equal(out, expected)
    np.testing.assert_array_equal(u, before)


def test_soft_threshold_examples():
    assert numerics.soft_threshold(np.array([0.7]), 1.0) == pytest.approx([0.0])
    np.testing.assert_allclose(
        numerics.soft_threshold(np.array([2.0, -3.0]), 0.5), [1.5, -2.5])
    x = np.array([0.3, -4.2, 0.0])
    np.testing.assert_array_equal(numerics.soft_threshold(x, 0.0), x)
    shrink = lambda u: numerics.soft_threshold(u, 1.0)
    assert_fresh_array_like(shrink, np.float64(3.0), 2.0)
    assert_fresh_array_like(shrink, np.array(-0.5), 0.0)
    assert_fresh_array_like(shrink, np.array([[2.0, -0.5], [-3.0, 1.5]]),
                            [[1.0, 0.0], [-2.0, 0.5]])
    strided = np.arange(-4.0, 4.0)[::3]          # [-4, -1, 2]
    assert_fresh_array_like(shrink, strided, [-3.0, 0.0, 1.0])
    assert_fresh_array_like(shrink, np.array([[4.0, 0.0], [0.0, -4.0]]).T,
                            [[3.0, 0.0], [0.0, -3.0]])


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
    project = numerics.project_box_linf
    assert_fresh_array_like(project, np.float64(-3.0), -1.0)
    assert_fresh_array_like(project, np.array(0.25), 0.25)
    assert_fresh_array_like(project, np.array([[2.0, -0.5], [-3.0, 0.5]]),
                            [[1.0, -0.5], [-1.0, 0.5]])
    strided = np.arange(-4.0, 4.0)[::3]          # [-4, -1, 2]
    assert_fresh_array_like(project, strided, [-1.0, -1.0, 1.0])
    assert_fresh_array_like(project, np.array([[1.5, 0.0], [0.0, -0.5]]).T,
                            [[1.0, 0.0], [0.0, -0.5]])


def test_project_box_is_bitwise_np_clip():
    # the minimum-of-maximum form gives clip's bits on NaN, signed zeros,
    # infinities and the box edges
    z = np.array([np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf, 1.0, -1.0,
                  np.nextafter(1.0, 2.0), np.nextafter(-1.0, -2.0), 0.5,
                  -5e-324, 1e308])
    got = numerics.project_box_linf(z)
    assert got.tobytes() == np.clip(z, -1.0, 1.0).tobytes()


def test_project_box_out_is_bitwise_the_allocating_call():
    z = np.array([np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf, 1.0, -1.0,
                  np.nextafter(1.0, 2.0), np.nextafter(-1.0, -2.0), 0.5,
                  -5e-324, 1e308])
    want = numerics.project_box_linf(z).tobytes()
    out = np.full_like(z, 7.0)
    assert numerics.project_box_linf(z, out=out) is out
    assert out.tobytes() == want
    inplace = z.copy()
    assert numerics.project_box_linf(inplace, out=inplace) is inplace
    assert inplace.tobytes() == want


@pytest.mark.parametrize("a", [0.0, 0.5, 1.0, 1e300])
def test_soft_threshold_out_is_bitwise_the_allocating_call(a):
    # the in-place kernel the accelerated step runs on its buffers: the
    # same value, signed zeros and NaN included, and sgn(u) left in u
    from ell1 import _accel
    u = np.array([np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf, 1.0, -1.0,
                  np.nextafter(1.0, 2.0), np.nextafter(-1.0, -2.0), 0.5,
                  -0.5, -5e-324, 5e-324, 1e308, -1e308])
    want = numerics.soft_threshold(u, a).tobytes()
    scratch, out = u.copy(), np.full_like(u, 7.0)
    assert _accel.soft_threshold(scratch, a, out) is out
    assert out.tobytes() == want
    assert scratch.tobytes() == np.sign(u).tobytes()


@pytest.mark.parametrize("m, n", [(1, 1), (3, 7), (4, 8), (5, 9),
                                  (200, 500), (150, 450)])
def test_padded_rows_layout(m, n):
    a = numerics.padded_rows(m, n)
    assert a.shape == (m, n) and a.dtype == np.float64
    assert a.ctypes.data % 64 == 0 and a.strides[1] == 8
    assert a.strides[0] % 64 == 0 and n * 8 <= a.strides[0] < n * 8 + 64
    assert not a.any()


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
    M = random_spd(np.random.default_rng(11), 6)
    lam_min = float(np.linalg.eigvalsh(M)[0])
    for bad in (M - 2.0 * lam_min * np.eye(6), -M, np.zeros((6, 6))):
        with pytest.raises(NotPositiveDefiniteError):
            numerics.chol_factor(bad)


@pytest.mark.parametrize("n", [1, 2, 3, 17, 64, 65, 129, 200])
def test_chol_factor_is_a_contiguous_upper_factor(n):
    rng = np.random.default_rng(n)
    M = random_spd(rng, n, 1e-3, 1e3)
    R = numerics.chol_factor(M).R
    assert R.flags.c_contiguous
    assert np.all(np.tril(R, -1) == 0.0) and np.all(np.diag(R) > 0.0)
    assert np.linalg.norm(R.T @ R - M) <= 1e-13 * np.linalg.norm(M)
    ref = np.linalg.cholesky(M).T
    assert np.max(np.abs(R - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_chol_factor_matches_numpy_on_bouquet_grams():
    # potrf and numpy's Cholesky may round differently, by an ulp or so
    from ell1.robust import ExtendedDictionary
    from ell1.synth import gen_bouquet_dict, trial_seed
    for j in range(3):
        A, _ = gen_bouquet_dict(150, 300, 15, 0.6, trial_seed(0, 0, j))
        M = ExtendedDictionary(A).gram_dd()
        R = numerics.chol_factor(M).R
        ref = np.linalg.cholesky(M).T
        assert np.max(np.abs(R - ref)) <= 1e-14 * np.max(np.abs(ref))


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


def test_chol_delete_matches_fresh_factor_at_every_position():
    rng = np.random.default_rng(30)
    M = random_spd(rng, 30)
    F = numerics.chol_factor(M)
    for k in range(30):
        keep = [i for i in range(30) if i != k]
        got = numerics.chol_delete(F, k).R
        ref = numerics.chol_factor(M[np.ix_(keep, keep)]).R
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert np.all(np.diag(got) > 0.0)
        assert np.all(np.tril(got, -1) == 0.0)


def test_chol_solve():
    rng = np.random.default_rng(5)
    M = random_spd(rng, 8)
    rhs = rng.standard_normal(8)
    F = numerics.chol_factor(M)
    np.testing.assert_allclose(F.solve(rhs), np.linalg.solve(M, rhs),
                               rtol=1e-9, atol=1e-11)


@pytest.mark.parametrize("n", [1, 2, 12, 200])
def test_chol_solve_bitwise_matches_solve_triangular(n):
    from scipy.linalg import solve_triangular
    rng = np.random.default_rng(n)
    F = numerics.chol_factor(random_spd(rng, n))
    for rhs in (rng.standard_normal(n), rng.standard_normal((n, 3))):
        y = solve_triangular(F.R, rhs, trans="T", lower=False)
        ref = solve_triangular(F.R, y, trans="N", lower=False)
        assert F.solve(rhs).tobytes() == ref.tobytes()
    g = rng.standard_normal(n)
    grown = numerics.chol_append(F, g, float(g @ g) + n + 1.0)
    u = solve_triangular(F.R, g, trans="T", lower=False)
    assert grown.R[:n, n].tobytes() == u.tobytes()


def test_chol_solve_edge_cases():
    F = numerics.chol_factor(np.diag([4.0, 1.0]))
    with pytest.raises(ValueError):
        F.solve(np.ones(3))
    assert numerics.CholFactor(np.zeros((0, 0))).solve(np.zeros(0)).shape \
        == (0,)
    with pytest.raises(np.linalg.LinAlgError):
        numerics.CholFactor(np.diag([1.0, 0.0])).solve(np.ones(2))


def test_chol_factor_rejects_non_finite_entries():
    M = random_spd(np.random.default_rng(11), 6)
    for bad in (np.nan, np.inf, -np.inf):
        # on, below and above the diagonal: potrf reads only the lower
        # triangle, and stops with info > 0 on an inf below the diagonal
        for i, j in ((0, 0), (3, 3), (5, 5), (4, 1), (1, 4), (5, 0)):
            N = M.copy()
            N[i, j] = bad
            with pytest.raises(ValueError):
                numerics.chol_factor(N)
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
        with pytest.raises(ValueError):
            numerics.chol_append(F, np.zeros(3), bad)


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


def test_pcg_zero_rhs_returns_zero_at_once():
    calls = []
    res = numerics.pcg_solve(lambda v: calls.append(v) or v, np.zeros(3))
    assert res.converged and res.iterations == 0 and res.residual == 0.0
    assert np.array_equal(res.x, np.zeros(3)) and calls == []


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_pcg_nonfinite_residual_raises():
    # the curvature p'Ap = 1 is finite, but the residual's norm overflows
    def op(v):
        return np.array([v[0], 1e200 * v[0]])
    with pytest.raises(NumericalBreakdownError, match="residual"):
        numerics.pcg_solve(op, np.array([1.0, 0.0]), tol=1e-8, max_iter=3)


def test_pcg_budget_returns_the_best_iterate_unconverged():
    M = np.diag([1.0, 2.0, 3.0])
    res = numerics.pcg_solve(M, np.ones(3), tol=1e-12, max_iter=1)
    assert not res.converged and res.iterations == 1
    r = np.ones(3) - M @ res.x
    assert res.residual == pytest.approx(np.linalg.norm(r) / np.sqrt(3))
    assert 0.0 < res.residual < 1.0


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
    est = numerics.spectral_norm_sq(A)
    truth = float(np.max(np.linalg.eigvalsh(A.T @ A)))
    assert abs(est - truth) / truth <= 1e-12


@pytest.mark.invariant
def test_spectral_norm_sq_accuracy_property():
    rng = np.random.default_rng(73)
    for _ in range(110):
        d = int(rng.integers(2, 25))
        n = int(rng.integers(2, 25))
        A = rng.standard_normal((d, n))
        est = numerics.spectral_norm_sq(A)
        truth = float(np.max(np.linalg.eigvalsh(A.T @ A)))
        assert abs(est - truth) / truth <= 1e-12


def _gaussian_dictionaries():
    return [np.random.default_rng(900 + i).standard_normal((200, 500))
            for i in range(6)]


def test_spectral_norm_sq_lanczos_accuracy():
    # DERIVED oracle: the top singular value from an SVD
    for A in _gaussian_dictionaries():
        truth = float(np.linalg.norm(A, 2)) ** 2
        est = numerics.spectral_norm_sq(A)
        assert abs(est - truth) / truth <= 1e-12


def test_spectral_norm_sq_gram_product_budget(counting_view):
    # the smaller Gram is formed in one product, whichever side it is on
    wide = _gaussian_dictionaries()[:2]
    for A in wide + [wide[1].T]:
        view, count = counting_view(A)
        numerics.spectral_norm_sq(view)
        assert count[0] == 1


@pytest.mark.parametrize("A, truth", [
    (np.outer([1.0, -2.0, 2.0], [3.0, 0.0, 4.0, 0.0, 0.0]), 225.0),
    (np.outer([3.0, 0.0, 4.0, 0.0, 0.0], [1.0, -2.0, 2.0]), 225.0),
    (np.diag([1.0, 4.0, 2.0, 3.0]), 16.0),
    (np.diag([2.0, 5.0, 5.0]), 25.0),
    (np.vstack([np.diag([1.0, 3.0]), np.zeros((4, 2))]), 9.0),
], ids=["rank1", "rank1-tall", "diag", "diag-repeated", "tall"])
def test_spectral_norm_sq_exact_subspaces(A, truth):
    assert numerics.spectral_norm_sq(A) == pytest.approx(truth, rel=1e-12)


# ------------------------------------------------------ interior-point steps

def test_fraction_to_boundary_full_step_without_blocking_entries():
    v = np.array([1.0, 2.0, 0.5])
    assert numerics.fraction_to_boundary(v, np.array([0.0, 3.0, 1e9])) == 1.0
    assert numerics.fraction_to_boundary(v, np.zeros(3)) == 1.0


def test_fraction_to_boundary_examples():
    v = np.array([1.0, 2.0, 0.5])
    # blocking ratios v_i / -dv_i: 0.5 and 0.25; the smaller one binds
    s = numerics.fraction_to_boundary(v, np.array([-2.0, 1.0, -2.0]))
    assert s == 0.99 * 0.25
    # a blocking ratio beyond 1/0.99 leaves the full step
    assert numerics.fraction_to_boundary(v, np.array([-0.5, 0.0, 0.0])) == 1.0


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("damping", [0.99, 1.0])
def test_fraction_to_boundary_matches_the_masked_formula(seed, damping):
    # the one-pass minimum takes the same quotients as a min over the
    # gathered blocking entries, so the step is bitwise the same
    rng = np.random.default_rng(seed)
    v = rng.uniform(1e-3, 10.0, 1000)
    dv = rng.standard_normal(1000) * rng.choice([0.0, 1.0], 1000)
    assert np.any(dv < 0) and np.any(dv == 0) and np.any(dv > 0)
    neg = dv < 0
    expected = min(1.0, damping * float(np.min(-v[neg] / dv[neg])))
    assert numerics.fraction_to_boundary(v, dv, damping) == expected
    dv_up = np.abs(dv)
    assert numerics.fraction_to_boundary(v, dv_up, damping) == 1.0


@pytest.mark.invariant
@settings(max_examples=150, deadline=None)
@given(st.integers(1, 30).flatmap(lambda n: st.tuples(
    arrays(np.float64, n, elements=st.floats(1e-6, 1e6)),
    arrays(np.float64, n, elements=st.one_of(
        st.just(0.0), st.floats(1e-6, 1e6), st.floats(-1e6, -1e-6))))))
def test_fraction_to_boundary_stays_strictly_positive(vdv):
    v, dv = vdv
    s = numerics.fraction_to_boundary(v, dv)
    assert 0.0 < s <= 1.0
    assert np.all(v + s * dv > 0.0)
    neg = dv < 0
    if np.any(neg):
        assert s == min(1.0, 0.99 * np.min(v[neg] / -dv[neg]))
    else:
        assert s == 1.0


def _parent_fraction_to_boundary(v, dv, damping=0.99):
    with np.errstate(all="ignore"):
        ratio = np.min(np.where(dv < 0, -v / dv, np.inf), initial=np.inf)
    return min(1.0, damping * float(ratio))


def _parent_change(bar, r, v_new, u_new, r_new):
    dq = (0.5 * (float(r_new @ r_new) - float(r @ r))
          + bar.lam * (float(np.sum(u_new)) - float(np.sum(bar.u))))
    return (bar.t * dq - float(np.sum(np.log((u_new + v_new) / bar.up)))
            - float(np.sum(np.log((u_new - v_new) / bar.um))))


def _same_float(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def _with_specials(rng, x, share=0.05):
    # scatter NaN, +inf and -inf over about share of the entries
    x = x.copy()
    hit = rng.random(x.size) < share
    x[hit] = rng.choice([np.nan, np.inf, -np.inf], int(hit.sum()))
    return x


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("damping", [0.99, 1.0])
def test_fraction_to_boundary_is_bitwise_the_wrapped_reductions(seed,
                                                                damping):
    # the direct minimum.reduce gives np.min's value, and no warning
    # escapes for dv = 0, NaN or +-inf (warnings are errors in tier-1)
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 400))
    v = rng.uniform(1e-3, 10.0, n)
    dv = rng.standard_normal(n) * rng.choice([0.0, 1.0], n)
    for vv, dd in ((v, dv), (_with_specials(rng, v), dv),
                   (v, _with_specials(rng, dv)),
                   (_with_specials(rng, v), _with_specials(rng, dv)),
                   (np.zeros(n), dv), (v, np.zeros(n))):
        assert _same_float(numerics.fraction_to_boundary(vv, dd, damping),
                           _parent_fraction_to_boundary(vv, dd, damping))


@pytest.mark.parametrize("seed", range(8))
def test_box_barrier_change_is_bitwise_the_wrapped_reductions(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 400))
    u = rng.uniform(0.5, 2.0, n)
    v = u * rng.uniform(-0.9, 0.9, n)
    bar = numerics.BoxBarrier(v, u, float(rng.uniform(0.5, 50.0)),
                              float(rng.uniform(0.01, 1.0)))
    r = rng.standard_normal(int(rng.integers(1, 50)))
    u_new = u * rng.uniform(0.5, 1.5, n)
    v_new = u_new * rng.uniform(-0.9, 0.9, n)
    r_new = r + rng.standard_normal(r.size)
    v_new[rng.random(n) < 0.2] = 0.0
    # an interior trial: no warning escapes, and the value is bitwise
    assert _same_float(bar.change(r, v_new, u_new, r_new),
                       _parent_change(bar, r, v_new, u_new, r_new))
    with np.errstate(all="ignore"):  # either formula warns on these
        for args in ((r, _with_specials(rng, v_new), u_new, r_new),
                     (r, v_new, _with_specials(rng, u_new), r_new),
                     (r, v_new, u_new, _with_specials(rng, r_new))):
            assert _same_float(bar.change(*args), _parent_change(bar, *args))


def test_box_barrier_value_example():
    # from v = 0, u = 1, r = 0, where every log term is log 1 = 0, to
    # v = (0.5, -0.5) with r = (1, 2) at t = 2, lam = 0.1
    r = np.array([1.0, 2.0])
    v = np.array([0.5, -0.5])
    u = np.ones(2)
    bar = numerics.BoxBarrier(np.zeros(2), u, 2.0, 0.1)
    want = (2.0 * (0.5 * 5.0 + 0.1 * 2.0) - 2.0 * np.log(1.5)
            - 2.0 * np.log(0.5) - 2.0 * (0.1 * 2.0))
    got = bar.change(np.zeros(2), v, u, r)
    assert got == pytest.approx(want)


def test_box_barrier_step_solves_the_full_newton_system():
    # barrier objective t (1/2 ||A v - b||^2 + lam sum(u)) - sum log(u +- v):
    # eliminating du and solving the reduced system in v must reproduce
    # the dense Newton step in (v, u)
    rng = np.random.default_rng(3)
    n, t, lam = 6, 3.0, 0.2
    A = rng.standard_normal((4, n))
    b = rng.standard_normal(4)
    u = rng.uniform(0.5, 2.0, n)
    v = u * rng.uniform(-0.9, 0.9, n)
    bar = numerics.BoxBarrier(v, u, t, lam)
    r = A @ v - b
    g_v = t * (A.T @ r) + bar.g_bar
    H_vv = t * (A.T @ A) + np.diag(bar.diag_sum)
    H = np.block([[H_vv, np.diag(bar.diag_diff)],
                  [np.diag(bar.diag_diff), np.diag(bar.diag_sum)]])
    full = np.linalg.solve(H, -np.concatenate([g_v, bar.g_u]))
    dv = np.linalg.solve(t * (A.T @ A) + np.diag(bar.d_red),
                         bar.reduced_rhs(g_v))
    du = bar.bound_step(dv)
    np.testing.assert_allclose(np.concatenate([dv, du]), full, atol=1e-10)

    decrement_sq = -(float(g_v @ dv) + float(bar.g_u @ du))
    assert decrement_sq > 0.0
    s, v_s, u_s = bar.backtrack(r, dv, du, decrement_sq,
                                lambda s: r + s * (A @ dv))
    assert 0.0 < s <= 1.0
    np.testing.assert_array_equal(v_s, v + s * dv)
    np.testing.assert_array_equal(u_s, u + s * du)
    assert np.all(np.abs(v_s) < u_s)

    def barrier_value(r, u, v):
        return (t * (0.5 * float(r @ r) + lam * float(np.sum(u)))
                - float(np.sum(np.log(u + v)))
                - float(np.sum(np.log(u - v))))

    F_t = barrier_value(r, u, v)
    F_s = barrier_value(A @ v_s - b, u_s, v_s)
    assert F_s <= F_t - 0.01 * s * decrement_sq


def test_box_barrier_backtrack_gives_up_on_an_ascent_direction():
    v, u = np.zeros(3), np.ones(3)
    bar = numerics.BoxBarrier(v, u, 1.0, 1.0)
    r = np.ones(3)
    # at u = 1 the barrier pull 2/u outweighs t lam = 1, so shrinking u
    # raises the value at every step length and every halving fails
    du = -np.ones(3)
    assert bar.backtrack(r, np.zeros(3), du, 1.0, lambda s: r) is None


def test_box_barrier_next_weight():
    bar = numerics.BoxBarrier(np.zeros(2), np.ones(2), 5.0, 1.0)
    assert bar.next_weight(0.25) == 50.0
    assert bar.next_weight(0.3) == 5.0
