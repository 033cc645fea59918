"""Shared test helpers."""

import numpy as np
import pytest


def _counting_view(A, counted=np.matmul):
    """View of A that counts the calls of the ufunc counted (by default
    the matrix products) taken with it."""
    count = [0]

    class Counting(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            if ufunc is counted and method == "__call__":
                count[0] += 1
            plain = tuple(v.view(np.ndarray) if isinstance(v, Counting)
                          else v for v in inputs)
            return getattr(ufunc, method)(*plain, **kwargs)

    return A.view(Counting), count


@pytest.fixture
def counting_view():
    """counting_view(A, counted=np.matmul) -> (view of A, [number of calls
    of counted taken with it])."""
    return _counting_view


@pytest.fixture
def solved_on(monkeypatch):
    """solved_on(case, name) runs the penalized solver name ("ist",
    "gpsr" or "homotopy") on one instance of case: "dense", "cab"
    (through cab_solve's implicit [A, I]) or "align" (through the
    aligner's projector, whose adjoint returns its argument). Returns the
    (P, config, result) of the one solve that took."""
    from ell1 import bench, robust, synth
    from ell1.model import SolverConfig

    def run(case, name):
        module = robust if case == "align" else bench
        solver = getattr(module, name + "_solve")
        calls = []

        def kept(P, config, observer=None):
            res = solver(P, config, observer)
            calls.append((P, config, res))
            return res

        monkeypatch.setattr(module, name + "_solve", kept)
        cfg = SolverConfig(tol=1e-8, max_iter=5000)
        P = synth.make_instance(synth.GenSpec(n=120, d=60, k=6, seed=9,
                                              noise_sigma=0.01))
        if case == "dense":
            bench.solve_named(name, P, cfg)
        elif case == "cab":
            b_bad, _ = synth.corrupt_entries(P.b, 0.1, -3.0, 3.0, seed=5)
            robust.cab_solve(P.A, b_bad, name, cfg)
        else:
            rng = np.random.default_rng(7)
            B = rng.standard_normal((120, 11))
            b_bad, _ = synth.corrupt_entries(
                B @ rng.standard_normal(11), 0.1, -3.0, 3.0, seed=507)
            aligner = {"ist": robust.align_ist_solve,
                       "gpsr": robust.align_gp_solve,
                       "homotopy": lambda prob, lam, cfg:
                           robust.align_homotopy_solve(prob, cfg)}[name]
            aligner(robust.AlignmentProblem(B, b_bad), None, cfg)
        (call,) = calls
        return call

    return run
