import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ell1 import bench, model, numerics, robust, synth
from ell1.bench import SOLVER_NAMES, SOLVERS
from ell1.model import (ProblemInstance, SolverConfig, SolverResult,
                        StoppingRule)
from ell1.operators import DenseDictionary
from ell1.robust import ExtendedDictionary


def make_problem(rng, d=8, n=12):
    A = rng.standard_normal((d, n))
    A /= np.linalg.norm(A, axis=0)
    b = rng.standard_normal(d)
    return ProblemInstance(A, b)


# ---------------------------------------------------------------- records

def test_problem_instance_validation():
    with pytest.raises(ValueError):
        ProblemInstance(np.eye(3), np.zeros(2))
    with pytest.raises(ValueError):
        ProblemInstance(np.eye(3), np.zeros(3), ground_truth=np.zeros(2))
    with pytest.raises(ValueError):
        ProblemInstance(np.array([[np.inf, 0.0]]), np.zeros(1))
    P = ProblemInstance(np.eye(2), np.ones(2))
    assert P.d == 2 and P.n == 2


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(lam=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iter=0)
    cfg = SolverConfig()
    assert cfg.max_iter == 5000


@pytest.mark.parametrize("field, value, message", [
    ("lam", np.inf, "lambda"), ("lam", np.nan, "lambda"),
    ("tol", np.inf, "tol"), ("tol", np.nan, "tol"),
    ("max_iter", 2.5, "max_iter"), ("max_iter", 100.0, "max_iter"),
    ("max_iter", np.inf, "max_iter"), ("max_iter", True, "max_iter"),
    ("max_iter", np.int64(0), "max_iter")])
def test_solver_config_rejects_what_a_solve_cannot_honour(field, value,
                                                          message):
    with pytest.raises(ValueError, match=message):
        SolverConfig(**{field: value})


def test_solver_config_accepts_numpy_numbers():
    cfg = SolverConfig(lam=np.float64(0.5), tol=np.float32(1e-4),
                       max_iter=np.int64(30), options={"exact_L": np.True_})
    assert cfg.max_iter == 30


@pytest.mark.parametrize("options, name", [
    ({"e_weight": 0.0}, "e_weight"), ({"e_weight": -1.0}, "e_weight"),
    ({"e_weight": np.inf}, "e_weight"), ({"e_weight": np.nan}, "e_weight"),
    ({"exact_L": 1}, "exact_L"), ({"exact_L": "yes"}, "exact_L")])
def test_solver_config_checks_option_values_by_name(options, name):
    with pytest.raises(ValueError, match="option " + name):
        SolverConfig(options=options)


def test_solver_config_rejects_unknown_options():
    # a misspelt knob must not be silently ignored
    for options in ({"exact_l": True}, {"continuation": False},
                    {"exact_L": True, "beta": 0.5}):
        with pytest.raises(ValueError, match="unknown solver options"):
            SolverConfig(options=options)
    known = {"exact_L": True, "e_weight": 2.0}
    assert SolverConfig(options=known).options == known


def test_support_size_is_scale_free():
    x = np.array([0.0, 3e-12, 1e-9, -2.0, 5e-3])
    assert model.support_size(x) == 3
    for k in (-60, -30, 30):
        assert model.support_size(2.0 ** k * x) == 3
    assert model.support_size(np.zeros(4)) == 0
    assert model.support_size(np.zeros(0)) == 0


def test_stopping_rule_validation():
    with pytest.raises(ValueError):
        StoppingRule("nonsense", 1e-3)
    with pytest.raises(ValueError):
        StoppingRule("relative-objective", 0.0)
    for threshold in (np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            StoppingRule("kkt-residual", threshold)


def test_solver_result_rejects_negative_counts():
    with pytest.raises(ValueError):
        SolverResult(np.zeros(2), -1, 0.0, True)
    with pytest.raises(ValueError):
        SolverResult(np.zeros(2), 1, -1.0, True)
    assert SolverResult(np.zeros(2), 1, 0.0, True, []).notes == []


def test_default_lambda():
    P = ProblemInstance(np.eye(2), np.array([2.0, -5.0]))
    assert SolverConfig().resolved_lambda(P.A.T @ P.b) == pytest.approx(0.05)
    assert SolverConfig(lam=0.7).resolved_lambda(P.A.T @ P.b) == 0.7


# ---------------------------------------------------------------- objective

def test_objective_zero_vector():
    rng = np.random.default_rng(0)
    P = make_problem(rng)
    assert model.objective(np.zeros(P.n), P, 0.3) == pytest.approx(
        0.5 * float(P.b @ P.b))


def test_objective_exact_fit():
    P = ProblemInstance(np.eye(2), np.array([1.0, 0.0]))
    assert model.objective(np.array([1.0, 0.0]), P, 1.0) == pytest.approx(1.0)


def test_objective_vs_extended_precision_recomputation():
    # DERIVED oracle: independent recomputation with extended precision
    rng = np.random.default_rng(3)
    P = make_problem(rng)
    x = rng.standard_normal(P.n)
    lam = 0.17
    r = np.asarray(P.b, dtype=np.longdouble) - np.asarray(P.A, np.longdouble) @ x
    want = 0.5 * float(np.sum(r * r)) + lam * float(np.sum(np.abs(np.asarray(x, np.longdouble))))
    assert model.objective(x, P, lam) == pytest.approx(want, rel=1e-13)


def test_objective_dimension_mismatch():
    rng = np.random.default_rng(1)
    P = make_problem(rng)
    with pytest.raises(ValueError):
        model.objective(np.zeros(P.n + 1), P, 0.1)


# ---------------------------------------------------------------- kkt residual

def test_kkt_orthonormal_closed_form():
    # DERIVED: for orthonormal A the minimizer is soft(A^T b, lambda)
    rng = np.random.default_rng(9)
    Q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    b = rng.standard_normal(6)
    P = ProblemInstance(Q, b)
    lam = 0.4
    xstar = numerics.soft_threshold(Q.T @ b, lam)
    assert model.kkt_residual(xstar, P, lam) <= 1e-12


def test_kkt_zero_vector_cases():
    rng = np.random.default_rng(12)
    P = make_problem(rng)
    lmax = float(np.max(np.abs(P.A.T @ P.b)))
    assert model.kkt_residual(np.zeros(P.n), P, lmax * 1.01) == 0.0
    assert model.kkt_residual(np.zeros(P.n), P, 0.5 * lmax) == pytest.approx(0.5 * lmax)


def test_objective_and_kkt_take_any_operator():
    # the 5 x 8 case that failed on a DenseDictionary, and the [A, 2 I]
    # stack as a matrix, a DenseDictionary and an ExtendedDictionary
    rng = np.random.default_rng(17)
    A = rng.standard_normal((5, 8))
    b = rng.standard_normal(5)
    stack = np.hstack([A, 2.0 * np.eye(5)])
    for M, ops in ((A, [DenseDictionary(A)]),
                   (stack, [DenseDictionary(stack),
                            ExtendedDictionary(A, identity_scale=2.0)])):
        x = rng.standard_normal(M.shape[1])
        want = model.objective(x, ProblemInstance(M, b), 0.1)
        want_kkt = model.kkt_residual(x, ProblemInstance(M, b), 0.1)
        for D in ops:
            P = ProblemInstance(D, b)
            assert model.objective(x, P, 0.1) == pytest.approx(want,
                                                               rel=1e-12)
            assert model.kkt_residual(x, P, 0.1) == pytest.approx(
                want_kkt, rel=1e-12)


def test_kkt_requires_positive_lambda():
    rng = np.random.default_rng(13)
    P = make_problem(rng)
    with pytest.raises(ValueError):
        model.kkt_residual(np.zeros(P.n), P, 0.0)


def test_kkt_from_correlation_matches_split_definition():
    # worst of |c_i - lam sgn x_i| on the support and |c_i| - lam off it,
    # floored at 0, taken over the two index sets separately
    rng = np.random.default_rng(14)
    for trial in range(50):
        n = int(rng.integers(1, 30))
        x = rng.standard_normal(n) * (rng.random(n) < 0.4)
        c = rng.standard_normal(n)
        lam = float(rng.uniform(0.1, 2.0))
        if trial % 3 == 0:
            c[x != 0] = lam * np.sign(x[x != 0])   # exact optimality on it
        on = x != 0.0
        parts = [0.0]
        if on.any():
            parts.append(float(np.max(np.abs(c[on] - lam * np.sign(x[on])))))
        if (~on).any():
            parts.append(float(np.max(np.abs(c[~on]))) - lam)
        assert model.kkt_from_correlation(x, c, lam) == max(parts)


@pytest.mark.parametrize("x, c", [([1.0, 0.0], [0.5, np.nan]),
                                  ([1.0, 0.0], [np.nan, 0.1]),
                                  ([np.nan, 0.0], [0.5, 0.1])])
def test_kkt_from_correlation_propagates_nan(x, c):
    # a NaN must fail every tolerance test, not read as converged
    kkt = model.kkt_from_correlation(np.array(x), np.array(c), 0.5)
    assert np.isnan(kkt)
    assert not kkt <= 1e-6


def _kkt_by_select(x, c, lam):
    """The select form kkt_from_correlation replaced: |c_i - lam sgn x_i|
    where x_i != 0 and |c_i| - lam elsewhere, worst floored at 0."""
    dev = np.where(x != 0.0, np.abs(c - lam * np.sign(x)), np.abs(c) - lam)
    return float(dev.max(initial=0.0))


_kkt_entries = st.one_of(
    st.sampled_from([0.0, -0.0, np.nan, 1.0, -1.0]),
    st.floats(-1e300, 1e300))   # bounded: c - lam sgn x cannot overflow


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 12).flatmap(lambda n: st.tuples(
           arrays(np.float64, n, elements=_kkt_entries),
           arrays(np.float64, n, elements=_kkt_entries))),
       st.one_of(st.just(0.0), st.floats(1e-300, 1e300)))
@example((np.zeros(0), np.zeros(0)), 0.5)
@example((np.array([-0.0, 2.0, 0.0]), np.array([0.75, 0.5, -0.0])), 0.5)
@example((np.array([-0.0, np.nan]), np.array([0.25, 0.5])), 0.5)
@example((np.array([1.0, 0.0]), np.array([np.nan, -0.0])), 0.5)
def test_kkt_from_correlation_is_bitwise_the_select_form(xc, lam):
    # the one-pass form equals the two-array select bit for bit, on the
    # empty vector, signed zeros and NaN included
    x, c = xc
    got = model.kkt_from_correlation(x, c, lam)
    want = _kkt_by_select(x, c, lam)
    if np.isnan(want):
        assert np.isnan(got)
    else:
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


_screen_entries = st.one_of(
    st.sampled_from([0.0, -0.0, np.nan, 0.5, -0.5, 1.0, -1.0]),
    st.floats(-1e300, 1e300))
# tol at the screen's own bound, one ulp to either side of it, at the full
# residual, or anywhere
_screen_tols = st.one_of(st.sampled_from(["bound", "below", "above", "kkt"]),
                         st.floats(-1e300, 1e300))


@settings(max_examples=500, deadline=None)
@given(st.integers(0, 12).flatmap(lambda n: st.tuples(
           arrays(np.float64, n, elements=_screen_entries),
           arrays(np.float64, n, elements=_screen_entries))),
       st.one_of(st.sampled_from([0.5, 1.0]), st.floats(1e-300, 1e300)),
       _screen_tols)
@example((np.zeros(0), np.zeros(0)), 0.5, "bound")
@example((np.zeros(0), np.zeros(0)), 0.5, -1.0)
@example((np.array([0.0, -0.0]), np.array([2.0, -0.25])), 0.5, "below")
@example((np.array([1.0, 0.0]), np.array([0.5, -0.5])), 0.5, "bound")
@example((np.array([1.0, 0.0]), np.array([3.0, np.nan])), 0.5, 1e-6)
@example((np.array([np.nan, 0.0]), np.array([3.0, 0.1])), 0.5, 1e-6)
@example((np.array([-2.0, 0.0]), np.array([0.25, -3.0])), 0.5, "kkt")
def test_kkt_screen_decides_as_the_full_residual(xc, lam, tol):
    # max|c| - lam > tol settles kkt > tol; either way the screened value
    # compares with tol as the full residual does, NaN in x or c included
    x, c = xc
    kkt = model.kkt_from_correlation(x, c, lam)
    bound = float(np.max(np.abs(c), initial=0.0)) - lam
    tol = {"bound": bound, "below": np.nextafter(bound, -np.inf),
           "above": np.nextafter(bound, np.inf), "kkt": kkt}.get(tol, tol)
    got = model._kkt_screened(x, -c, lam, tol)
    assert (got > tol) == (kkt > tol)
    assert (got <= tol) == (kkt <= tol)
    assert got <= kkt or np.isnan(kkt)


# ---------------------------------------------------------------- stopping rules

def rule_monitor(kind, threshold, ground_truth=None):
    return model.Monitor(SolverConfig(stopping=StoppingRule(kind, threshold)),
                         np.ones(2), ground_truth)


def test_check_stop_relative_objective():
    mon = rule_monitor("relative-objective", 1e-12)
    mon.rule_met(np.zeros(2), 1.0, None)
    assert mon.rule_met(np.zeros(2), 1.0, None)


def test_check_stop_relative_estimate_constant():
    x = np.array([1.0, 2.0])
    mon = rule_monitor("relative-estimate", 1e-9)
    mon.rule_met(x, 3.0, None)
    assert mon.rule_met(x.copy(), 2.9, None)


def test_check_stop_ground_truth():
    gt = np.array([1.0, 0.0])
    x = gt + np.array([1e-2, 0.0])
    assert not rule_monitor("ground-truth-distance", 1e-3, gt).rule_met(
        x, 1.0, None)
    assert rule_monitor("ground-truth-distance", 2e-2, gt).rule_met(
        x, 1.0, None)


def test_check_stop_ground_truth_missing():
    with pytest.raises(ValueError):
        rule_monitor("ground-truth-distance", 1e-3)


def test_check_stop_relative_needs_two_entries():
    mon = rule_monitor("relative-objective", 1e-3)
    assert not mon.rule_met(np.zeros(2), 1.0, None)


def test_check_stop_kkt_rule():
    assert rule_monitor("kkt-residual", 1e-6).rule_met(np.zeros(2), 1.0, 1e-7)
    assert not rule_monitor("kkt-residual", 1e-8).rule_met(
        np.zeros(2), 1.0, 1e-7)


def test_relative_estimate_keeps_a_copy_of_the_iterate():
    # solvers hand rule_met their live iterate and update it in place
    x = np.array([1.0, 2.0])
    mon = rule_monitor("relative-estimate", 1e-3)
    mon.rule_met(x, 3.0, None)
    x += 1.0
    assert not mon.rule_met(x, 3.0, None)


@pytest.mark.parametrize("stopping", ["kkt-residual", 1e-3,
                                      ("relative-objective", 1e-3)])
def test_config_rejects_a_stopping_that_is_not_a_rule(stopping):
    with pytest.raises(ValueError, match="StoppingRule"):
        SolverConfig(stopping=stopping)


@pytest.mark.parametrize("ground_truth", [None, np.zeros(12),
                                          np.full(12, np.nan)])
@pytest.mark.parametrize("name", SOLVER_NAMES)
def test_ground_truth_rule_fails_before_the_first_iteration(name,
                                                            ground_truth):
    # b = 0 makes A^T b = 0, whose answer x = 0 is returned without a step
    A = make_problem(np.random.default_rng(4)).A
    cfg = SolverConfig(stopping=StoppingRule("ground-truth-distance", 1e-3))
    for b in (np.ones(8), np.zeros(8)):
        P, events = ProblemInstance(A, b, ground_truth), []
        with pytest.raises(ValueError, match="ground truth"):
            getattr(bench, name + "_solve")(P, cfg, events.append)
        assert events == []


@pytest.mark.parametrize("kind", ["relative-objective", "relative-estimate",
                                  "ground-truth-distance"])
def test_kkt_callable_is_called_only_by_the_kkt_rule(kind):
    calls = []

    def kkt():
        calls.append(1)
        return 0.0

    mon = rule_monitor(kind, 1e-3, np.ones(2))
    for _ in range(3):
        mon.rule_met(np.ones(2), 1.0, kkt)
    assert calls == []
    mon = rule_monitor("kkt-residual", 1e-3)
    assert mon.rule_met(np.ones(2), 1.0, kkt) and calls == [1]


# ---------------------------------------------------------------- events

def _poison(value):
    """Overwrite an array an observer received (or the factor it holds)
    with garbage: NaN in a float array, -1 in an index array."""
    if isinstance(value, numerics.CholFactor):
        value = value.R
    if isinstance(value, np.ndarray):
        value[...] = np.nan if value.dtype.kind == "f" else -1


@pytest.mark.parametrize("name", SOLVER_NAMES)
def test_event_contract(name):
    # the observer owns what it receives, so wrecking it leaves the events
    # and the answer of the solve untouched; observing changes no answer
    P = synth.make_instance(synth.GenSpec(n=60, d=30, k=4, seed=3,
                                          noise_sigma=0.01))
    cfg = SolverConfig(max_iter=300)
    solve = getattr(bench, name + "_solve")
    plain = solve(P, cfg)
    events = []
    kept = solve(P, cfg, events.append)
    wrecked = []

    def observer(e):
        assert e.x.shape == (P.n,) and isinstance(e.state, dict)
        wrecked.append(e._replace(x=e.x.copy(), state=None))
        for value in [e.x, *e.state.values()]:
            _poison(value)

    seen = solve(P, cfg, observer)
    assert seen.iterations >= 2 and len(wrecked) == len(events)
    for a, e in zip(wrecked, events):
        assert a[:3] == e[:3] and a.weight == e.weight
        np.testing.assert_array_equal(a.x, e.x)
    penalized = SOLVERS[name].form != "equality"
    assert all((e.weight is not None) == penalized for e in events)
    for run in (kept, seen):
        assert np.array_equal(run.x_star, plain.x_star)
        assert run.iterations == plain.iterations
        assert run.converged == plain.converged


@pytest.mark.parametrize("name", SOLVER_NAMES)
def test_budget_exit_records_the_returned_estimate(name):
    # a run cut by max_iter still ends its events on the x_star it returns
    P = synth.make_instance(synth.GenSpec(n=60, d=30, k=4, seed=3))
    events = []
    res = getattr(bench, name + "_solve")(P, SolverConfig(max_iter=3),
                                          events.append)
    assert not res.converged and res.iterations == 3
    assert events[-1].iteration == res.iterations
    assert events[-1].residual_norm == pytest.approx(
        np.linalg.norm(P.b - P.A @ res.x_star), rel=1e-12)
    np.testing.assert_array_equal(events[-1].x, res.x_star)


def test_an_unobserved_solve_does_no_per_iteration_output_work(monkeypatch):
    # with no observer, no solve, cab_solve backend or aligner builds an
    # Event or counts a support: both raise here, and every run completes
    def refuse(*args, **kwargs):
        raise AssertionError("per-iteration output work with no observer")

    monkeypatch.setattr(model, "Event", refuse)
    monkeypatch.setattr(model, "support_size", refuse)
    P = synth.make_instance(synth.GenSpec(n=60, d=30, k=4, seed=3,
                                          noise_sigma=0.01))
    cfg = SolverConfig(max_iter=300)
    for name in SOLVER_NAMES:
        assert getattr(bench, name + "_solve")(P, cfg).iterations >= 1
    for backend in ("ist", "dalm"):
        x, e, res = robust.cab_solve(P.A, P.b, backend, cfg)
        assert res.iterations >= 1 and np.all(np.isfinite(x))
    rng = np.random.default_rng(4)
    B = rng.standard_normal((40, 3))
    b = B @ np.array([1.0, -2.0, 0.5])
    b[rng.choice(40, 4, replace=False)] += 5.0
    prob = robust.AlignmentProblem(B, b)
    for w, e in (robust.align_gp_solve(prob, None, cfg),
                 robust.align_homotopy_solve(prob, cfg),
                 robust.align_ist_solve(prob, None, cfg),
                 robust.align_palm_solve(prob, cfg)):
        assert w.shape == (3,) and np.all(np.isfinite(w))


def test_monitor_is_watched_by_an_observer_or_a_rule():
    b = np.ones(3)
    rule = StoppingRule("kkt-residual", 1e-3)
    assert not model.Monitor(SolverConfig(), b).watched
    assert model.Monitor(SolverConfig(), b, observer=lambda e: None).watched
    assert model.Monitor(SolverConfig(stopping=rule), b).watched


# ---------------------------------------------------------------- invariants

@pytest.mark.invariant
def test_objective_nonnegative_property():
    rng = np.random.default_rng(50)
    for _ in range(120):
        P = make_problem(rng, d=int(rng.integers(2, 10)), n=int(rng.integers(2, 14)))
        x = rng.standard_normal(P.n) * rng.uniform(0, 10)
        lam = rng.uniform(0, 2)
        assert model.objective(x, P, lam) >= 0.0


@pytest.mark.invariant
def test_kkt_zero_certifies_minimum_property():
    # kkt == 0 at soft(A^T b, lam) for orthonormal A; the point must beat
    # random perturbations of norm <= 1e-3
    rng = np.random.default_rng(51)
    for _ in range(100):
        n = int(rng.integers(2, 8))
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        b = rng.standard_normal(n)
        P = ProblemInstance(Q, b)
        lam = rng.uniform(0.1, 0.8)
        xstar = numerics.soft_threshold(Q.T @ b, lam)
        assert model.kkt_residual(xstar, P, lam) <= 1e-10
        fstar = model.objective(xstar, P, lam)
        deltas = rng.standard_normal((10_000, n))
        deltas *= (rng.uniform(0, 1e-3, 10_000) / np.linalg.norm(deltas, axis=1))[:, None]
        # batch objectives of the perturbed points
        R = P.b[:, None] - Q @ (xstar[:, None] + deltas.T)
        vals = 0.5 * np.sum(R * R, axis=0) + lam * np.sum(
            np.abs(xstar[:, None] + deltas.T), axis=0)
        assert np.all(vals >= fstar - 1e-12)


@pytest.mark.invariant
def test_orthonormal_minimizer_property():
    rng = np.random.default_rng(52)
    for _ in range(120):
        n = int(rng.integers(2, 10))
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        b = rng.standard_normal(n)
        P = ProblemInstance(Q, b)
        lam = rng.uniform(0.05, 1.0)
        xstar = numerics.soft_threshold(Q.T @ b, lam)
        assert model.kkt_residual(xstar, P, lam) <= 1e-10
