"""Bitwise pin of dalm's step and its per-dictionary row basis.

The reference below is alm.dalm_solve and alm._row_basis as they read
before cab_solve kept the basis per dictionary and the step dropped the
work its stopping test does not read: the clamp through
numerics.project_box_linf, the scale max(1, max|A^T y|) taken every
step, and config read in the loop. dalm must give the same answers,
iteration counts, converged flags, notes and observer events, bit for
bit, on a first query against a dictionary and on a repeat one.
"""

import numpy as np
import pytest

from ell1 import robust, synth
from ell1.alm import dalm_solve
from ell1.exceptions import IllConditionedError, NotPositiveDefiniteError
from ell1.gradient_projection import _REFRESH_EVERY
from ell1.model import Monitor, ProblemInstance, SolverConfig, StoppingRule
from ell1.numerics import (_lower_solve, chol_factor, padded_rows,
                           project_box_linf)
from ell1.operators import as_operator

# --- reference: the step and set-up before the change, verbatim -------------


def _row_basis(D):
    try:
        R = chol_factor(D.gram_dd()).R
    except NotPositiveDefiniteError as exc:
        raise IllConditionedError(
            "row Gram A A^T is not positive definite; the dual solver "
            "needs full row rank") from exc
    R_inv = _lower_solve(R.T, np.eye(R.shape[0]), 1)
    Qt = D.adjoint(R_inv).T
    out = padded_rows(*Qt.shape)
    out[...] = Qt
    return R, out


def ref_dalm(P, config, observer=None):
    D, b = as_operator(P.A), P.b
    n = P.n
    mon = Monitor(config, b, P.ground_truth, observer)
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return mon.trivial(n)
    beta = float(np.sum(np.abs(b))) / P.d
    R, Qt = _row_basis(D)
    u = _lower_solve(R.T, b, 0)
    if not (np.all(np.isfinite(Qt)) and np.all(np.isfinite(u))):
        raise IllConditionedError(
            "orthonormal row basis R^{-T} A or R^{-T} b is not finite")
    # the step runs in place: x and x_prev swap buffers every step, and
    # w holds beta (z - Aty), then |x| and |Aty|
    x, x_prev, z, w, Aty = padded_rows(5, n)
    drift = -u  # Q^T x - u at x = 0
    res_norm = b_norm
    mon.record(0, 0.0, res_norm, x, y=np.zeros(P.d), z=z, x_prev=x, Aty=Aty)
    it = 0
    converged = False
    while it < config.max_iter:
        np.divide(x, beta, out=z)
        np.add(Aty, z, out=z)
        project_box_linf(z, out=z)
        v = Qt @ z
        if drift is not None:
            v -= drift / beta
        x_prev, x = x, x_prev
        np.matmul(Qt.T, v, out=Aty)
        np.subtract(z, Aty, out=w)
        np.multiply(beta, w, out=w)
        np.subtract(x_prev, w, out=x)
        it += 1
        # the step sets Q^T x = u up to roundoff, so the drift is measured
        # only every _REFRESH_EVERY steps and taken as zero in between
        if it == 1 or it % _REFRESH_EVERY == 0:
            drift = Qt @ x - u
            res_norm = float(np.linalg.norm(R.T @ drift))
        else:
            drift = None
        l1 = float(np.add.reduce(np.abs(x, out=w)))
        # certified gap: y scaled into the dual box bounds the optimum
        # from below, so l1 minus the bound brackets the suboptimality
        scale = max(1.0, float(np.maximum.reduce(np.abs(Aty, out=w))))
        gap_ok = l1 - float(u.dot(v)) / scale <= config.tol * l1
        done = gap_ok and res_norm / b_norm <= config.tol
        if done or it == config.max_iter or config.stopping is not None:
            res_norm = float(np.linalg.norm(b - D.apply(x)))
            done = gap_ok and res_norm / b_norm <= config.tol
        if mon.watched:
            y = _lower_solve(R.T, v, 1) if observer is not None else None
            mon.record(it, l1, res_norm, x, y=y, z=z, x_prev=x_prev, Aty=Aty)
            done = done or mon.rule_met(x, l1, res_norm / b_norm)
        if done:
            converged = True
            break
    if not converged and it >= config.max_iter:
        mon.notes.append("iteration budget exhausted")
    return mon.result(x, it, converged)


# --- the pins --------------------------------------------------------------

KEYS = ("y", "z", "Aty", "x_prev")


def same_bits(a, b):
    """Equal as float64 bytes: -0.0 and +0.0 differ, NaNs must match."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_run(P, cfg):
    """dalm and the reference on P, watched by an observer and not."""
    events, ref_events = [], []
    res = dalm_solve(P, cfg, events.append)
    ref = ref_dalm(P, cfg, ref_events.append)
    assert same_bits(res.x_star, ref.x_star)
    assert res.iterations == ref.iterations
    assert res.converged == ref.converged
    assert res.notes == ref.notes
    assert len(events) == len(ref_events) == res.iterations + 1
    for e, f in zip(events, ref_events):
        assert e.iteration == f.iteration
        assert same_bits(e.objective, f.objective)
        assert same_bits(e.residual_norm, f.residual_norm)
        assert same_bits(e.x, f.x)
        assert e.weight == f.weight
        assert sorted(e.state) == sorted(KEYS)
        for k in KEYS:
            assert same_bits(e.state[k], f.state[k]), k
    # the stopping test alone, with nothing watching
    plain = dalm_solve(P, cfg)
    assert same_bits(plain.x_star, ref.x_star)
    assert plain.iterations == ref.iterations
    assert plain.converged == ref.converged and plain.notes == ref.notes
    return res, events


def dense_instance():
    return synth.make_instance(synth.GenSpec(n=120, d=60, k=8, seed=11))


def bouquet_query(seed):
    A, labels = synth.gen_bouquet_dict(60, 100, 10, 0.6, seed)
    rng = np.random.default_rng(seed)
    members = np.flatnonzero(labels == int(rng.integers(10)))
    x0 = np.zeros(100)
    x0[rng.choice(members, size=3, replace=False)] = rng.uniform(0.5, 1.5, 3)
    b_bad, _ = synth.corrupt_entries(A @ x0, 0.2, -1.0, 1.0, seed=seed)
    return A, b_bad


def ill_scaled_instance():
    # columns scaled over six decades: roundoff in the first steps turns
    # b'y = u'v negative, where the gap test must take max|A^T y|
    rng = np.random.default_rng(145)
    A = rng.standard_normal((6, 7)) * 10.0 ** rng.uniform(-3, 3, 7)
    return ProblemInstance(A, rng.standard_normal(6))


CONFIG = SolverConfig(tol=1e-7, max_iter=2000)


def test_dense_is_bitwise_the_old_step():
    res, _ = assert_same_run(dense_instance(), CONFIG)
    assert res.converged and res.iterations > _REFRESH_EVERY


def test_cab_first_and_repeat_queries_are_bitwise_the_old_step():
    A, b = bouquet_query(3)
    first = robust._cab_problem(A, b, CONFIG)
    assert not first.A._basis
    assert_same_run(first, CONFIG)
    again = robust._cab_problem(A, 0.5 * b, CONFIG)
    # the repeat query reads the rows the first one built
    assert again.A._basis is first.A._basis and again.A._basis
    res, _ = assert_same_run(again, CONFIG)
    assert res.converged


def cab_instance():
    return robust._cab_problem(*bouquet_query(4), CONFIG)


@pytest.mark.parametrize("make", [dense_instance, cab_instance])
def test_budget_cut_is_bitwise_the_old_step(make):
    # 50 steps end between two refreshes, with the certificate taken
    res, _ = assert_same_run(make(), SolverConfig(tol=1e-8, max_iter=50))
    assert res.iterations == 50 and not res.converged
    assert res.notes == ("iteration budget exhausted",)


def test_stopping_rule_run_is_bitwise_the_old_step():
    rule = StoppingRule(kind="relative-objective", threshold=1e-3)
    cfg = SolverConfig(tol=1e-14, max_iter=2000, stopping=rule)
    res, _ = assert_same_run(dense_instance(), cfg)
    assert res.converged and 1 < res.iterations < 2000


def test_negative_dual_bound_is_bitwise_the_old_step():
    P = ill_scaled_instance()
    res, events = assert_same_run(P, SolverConfig(tol=1e-8, max_iter=300))
    signs = [float(P.b @ e.state["y"]) < 0.0 for e in events[1:]]
    # both sides of the gap test: a negative b'y early, positive ones too
    assert signs[1] and not all(signs)
