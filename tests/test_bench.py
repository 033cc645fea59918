"""Benchmark harness: grids, sweeps, writers, determinism."""

import csv
import itertools
import json
from types import SimpleNamespace

import numpy as np
import pytest

from ell1 import bench
from ell1.bench import (SOLVER_NAMES, PhaseGrid, SweepResult,
                        environment_metadata, interpolate_success_contour,
                        phase_contour_svg, phase_grid_to_csv,
                        run_corruption_sweep, run_noise_sweep, run_phase_grid,
                        solve_named, sweep_svg, sweep_to_csv,
                        write_summary_json)
from ell1.model import (ProblemInstance, SolverConfig, StoppingRule,
                        support_size)
from ell1.synth import GenSpec, make_instance


def spearman(x, y):
    rx = np.argsort(np.argsort(x))
    ry = np.argsort(np.argsort(y))
    return float(np.corrcoef(rx, ry)[0, 1])


def toy_grid(rates, rho=(0.1, 0.2), delta=(0.5,)):
    return PhaseGrid(n=100, rho_values=rho, delta_values=delta,
                     success_rate=np.asarray(rates, dtype=np.float64),
                     trials_per_cell=10, base_seed=0, success_tol=1e-3)


class TestPhaseGridType:
    def test_validation(self):
        with pytest.raises(ValueError):
            toy_grid([[1.0], [1.1]])
        with pytest.raises(ValueError):
            toy_grid([[1.0]], rho=(0.2, 0.1), delta=(0.5,))
        with pytest.raises(ValueError):
            toy_grid([[0.5], [0.5]], rho=(0.0, 0.5))
        with pytest.raises(ValueError):
            toy_grid([[0.5, 0.5]])
        with pytest.raises(ValueError):
            PhaseGrid(n=10, rho_values=(0.1,), delta_values=(0.5,),
                      success_rate=np.ones((1, 1)), trials_per_cell=0,
                      base_seed=0, success_tol=1e-3)


class TestSweepResultType:
    def test_validation(self):
        with pytest.raises(ValueError):
            SweepResult(axis_name="d", axis_values=(1, 2),
                        solvers=("a",), trials=1,
                        mean_time=np.ones((2, 2)))
        with pytest.raises(ValueError):
            SweepResult(axis_name="d", axis_values=(1,), solvers=("a",),
                        trials=0, mean_time=np.ones((1, 1)))


class TestSolveNamed:
    def test_unknown(self):
        P = make_instance(GenSpec(n=20, d=10, k=2, seed=0))
        with pytest.raises(ValueError):
            solve_named("magic", P, SolverConfig(tol=1e-6, max_iter=10))

    def test_gp_alias(self):
        P = make_instance(GenSpec(n=30, d=15, k=2, seed=1))
        cfg = SolverConfig(tol=1e-8, max_iter=500)
        a = solve_named("gp", P, cfg)
        b = solve_named("gpsr", P, cfg)
        assert np.array_equal(a.x_star, b.x_star)

    @pytest.mark.parametrize("name", SOLVER_NAMES)
    def test_reaches_the_patched_module_global(self, name, monkeypatch):
        # a profiler wraps bench.<name>_solve in place, so the table must
        # look each solver up at call time rather than hold its function
        P = make_instance(GenSpec(n=20, d=10, k=2, seed=0))
        cfg = SolverConfig(lam=0.1)
        calls = []
        monkeypatch.setattr(bench, name + "_solve",
                            lambda *args: calls.append(args) or "spy")
        assert solve_named(name, P, cfg) == "spy"
        assert calls == [(P, cfg)]

    @pytest.mark.parametrize("name", SOLVER_NAMES)
    def test_stopping_rule_and_trivial_input(self, name):
        P = make_instance(GenSpec(n=200, d=100, k=8, seed=11))
        free = solve_named(name, P, SolverConfig())
        rule = StoppingRule("ground-truth-distance", 0.5)
        res = solve_named(name, P, SolverConfig(stopping=rule))
        assert res.converged and res.iterations < free.iterations
        assert (np.linalg.norm(res.x_star - P.ground_truth)
                <= 0.5 * np.linalg.norm(P.ground_truth))

        penalized = name not in ("pdipa", "palm", "dalm")
        cases = [(np.eye(3), np.zeros(3))]
        if penalized:  # A^T b = 0 with b != 0: F(0) = 1/2 ||b||^2
            cases.append((np.array([[1.0, 2.0, -1.0], [0.0, 0.0, 0.0]]),
                          np.array([0.0, 1.0])))
        # the default weight 1e-2 ||A^T b||_inf is 0 on these inputs
        for (A, b), lam in itertools.product(cases, (0.1, None)):
            events = []
            res = getattr(bench, name + "_solve")(
                ProblemInstance(A, b), SolverConfig(lam=lam), events.append)
            assert res.converged and res.iterations == 0
            assert np.array_equal(res.x_star, np.zeros(3))
            b_norm = float(np.linalg.norm(b))
            want = 0.5 * b_norm ** 2 if penalized else 0.0
            assert ([(e.iteration, e.objective, e.residual_norm,
                      support_size(e.x)) for e in events]
                    == [(0, want, b_norm, 0)])


class TestPhaseGridRuns:
    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError):
            run_phase_grid("homotopy", 50, [0.1], [0.5], trials=0)

    def test_easy_cell_high_success(self):
        g = run_phase_grid("homotopy", 200, [0.02], [0.5], trials=20,
                           base_seed=17)
        assert g.success_rate[0, 0] >= 0.95

    def test_undersampled_cell_fails(self):
        # more nonzeros than measurements: recovery cannot happen
        g = run_phase_grid("homotopy", 200, [0.6], [0.3], trials=20,
                           base_seed=17)
        assert g.success_rate[0, 0] <= 0.05

    def test_parallel_matches_serial(self):
        kw = dict(trials=4, base_seed=9)
        a = run_phase_grid("homotopy", 100, [0.05, 0.2], [0.3, 0.6], **kw)
        b = run_phase_grid("homotopy", 100, [0.05, 0.2], [0.3, 0.6],
                           jobs=3, **kw)
        assert np.array_equal(a.success_rate, b.success_rate)

    @pytest.mark.parametrize("trials, jobs", [(0, 1), (1, 0), (2, -1)])
    def test_trials_and_jobs_below_one_rejected(self, trials, jobs):
        with pytest.raises(ValueError, match="at least 1"):
            run_phase_grid("homotopy", 20, [0.1], [0.5], trials=trials,
                           jobs=jobs)


class TestContour:
    def test_two_point_interpolation(self):
        g = toy_grid([[1.0], [0.9]])
        pts = interpolate_success_contour(g, 0.95)
        assert len(pts) == 1
        delta, rho = pts[0]
        assert delta == 0.5
        assert abs(rho - 0.15) <= 1e-12

    def test_never_crossing_column_omitted(self):
        g = toy_grid([[1.0, 0.2], [0.98, 0.1]], rho=(0.1, 0.2),
                     delta=(0.4, 0.8))
        pts = interpolate_success_contour(g, 0.95)
        assert pts == []

    def test_planted_crossing_recovered(self):
        # rates linear in rho cross the level exactly where planted
        rho = np.linspace(0.1, 0.5, 9)
        delta = np.linspace(0.3, 0.9, 7)
        level = 0.8
        slope = 2.0
        planted = 0.2 + 0.3 * delta
        rates = np.clip(level + slope * (planted[None, :] - rho[:, None]),
                        0.0, 1.0)
        g = PhaseGrid(n=100, rho_values=tuple(rho),
                      delta_values=tuple(delta), success_rate=rates,
                      trials_per_cell=5, base_seed=0, success_tol=1e-3)
        pts = interpolate_success_contour(g, level)
        assert len(pts) == len(delta)
        for (dv, rv), want in zip(pts, planted):
            assert abs(rv - want) <= 1e-12

    def test_level_validation(self):
        g = toy_grid([[1.0], [0.0]])
        with pytest.raises(ValueError):
            interpolate_success_contour(g, 0.0)
        with pytest.raises(ValueError):
            interpolate_success_contour(g, 1.0)


class TestNoiseSweep:
    def test_mode_validation(self):
        with pytest.raises(ValueError):
            run_noise_sweep(["fista"], "vary-x", {"n": 10}, trials=1)
        with pytest.raises(ValueError):
            run_noise_sweep(["fista"], "vary-d",
                            {"n": 10, "k": 1, "d_values": [5]}, trials=0)

    def test_noise_free_sanity_all_solvers(self):
        sw = run_noise_sweep(
            ["pdipa", "homotopy", "gpsr", "tnipm", "ist", "fista",
             "palm", "dalm"], "vary-d",
            {"n": 100, "k": 5, "d_values": [60, 80], "noise_sigma": 0.0},
            trials=3, base_seed=5,
            config=SolverConfig(tol=1e-6, max_iter=30000))
        assert float(sw.mean_rel_error.max()) <= 1e-3

    @pytest.mark.slow
    def test_error_decreases_with_measurements(self):
        # penalized solvers only: the equality-form families interpolate
        # the noise, so their error cannot shrink as d grows
        sw = run_noise_sweep(
            ["homotopy", "gpsr", "tnipm", "ist", "fista"], "vary-d",
            {"n": 400, "k": 40, "d_values": [160, 204, 248, 292, 336, 380],
             "noise_sigma": 0.1}, trials=10, base_seed=3)
        for s in range(len(sw.solvers)):
            assert spearman(sw.axis_values, sw.mean_rel_error[s]) <= -0.8

    def test_path_length_grows_with_sparsity(self):
        sw = run_noise_sweep(
            ["homotopy"], "vary-k",
            {"n": 400, "d": 300,
             "rho_values": [0.05, 0.08, 0.11, 0.14, 0.17, 0.20],
             "noise_sigma": 0.1}, trials=10, base_seed=3)
        assert spearman(sw.axis_values, sw.mean_iterations[0]) >= 0.8

    def test_deterministic_metrics(self):
        kw = dict(mode="vary-d",
                  spec={"n": 60, "k": 3, "d_values": [30, 40],
                        "noise_sigma": 0.05},
                  trials=2, base_seed=21)
        a = run_noise_sweep(["homotopy", "fista"], **kw)
        b = run_noise_sweep(["homotopy", "fista"], jobs=2, **kw)
        assert np.array_equal(a.mean_rel_error, b.mean_rel_error)
        assert np.array_equal(a.mean_iterations, b.mean_iterations)


class TestCorruptionSweep:
    @pytest.mark.slow
    def test_profile_over_levels(self):
        sw = run_corruption_sweep(
            {"d": 80, "n": 140, "groups": 20, "coherence": 0.6},
            [0.0, 0.3, 0.6, 0.9], ["homotopy"], trials=100, base_seed=11)
        rates = sw.success_rate[0]
        assert rates[0] >= 0.99
        # non-increasing, allowing one small adjacent inversion
        diffs = np.diff(rates)
        assert int(np.sum(diffs > 0.05)) == 0

    @pytest.mark.slow
    def test_heavy_corruption_near_chance(self):
        # 2/groups bound; 400 trials concentrate the estimate
        sw = run_corruption_sweep(
            {"d": 80, "n": 140, "groups": 20, "coherence": 0.6},
            [0.9], ["homotopy"], trials=400, base_seed=11)
        assert sw.success_rate[0, 0] <= 2.0 / 20

    def test_amplitude_knob_and_validation(self):
        with pytest.raises(ValueError):
            run_corruption_sweep({"d": 10, "n": 12, "groups": 2,
                                  "coherence": 0.5}, [0.5], ["ist"],
                                 trials=0)
        sw = run_corruption_sweep(
            {"d": 30, "n": 40, "groups": 4, "coherence": 0.5,
             "corruption_amp": 2.0}, [0.5], ["ist"], trials=2,
            base_seed=1, config=SolverConfig(tol=1e-6, max_iter=2000))
        assert sw.success_rate.shape == (1, 1)
        assert 0.0 <= sw.success_rate[0, 0] <= 1.0


RUNNERS = {
    "phase": lambda cfg: run_phase_grid("fista", 30, [0.1], [0.5], trials=2,
                                        config=cfg),
    "noise": lambda cfg: run_noise_sweep(
        ["fista"], "vary-d", {"n": 30, "k": 2, "d_values": [15]}, trials=2,
        config=cfg),
    "noise-free": lambda cfg: run_noise_sweep(
        ["fista"], "vary-d",
        {"n": 30, "k": 2, "d_values": [15], "noise_sigma": 0.0}, trials=2,
        config=cfg),
    "corruption": lambda cfg: run_corruption_sweep(
        {"d": 12, "n": 16, "groups": 2, "coherence": 0.5}, [0.2], ["fista"],
        trials=2, config=cfg),
}


@pytest.mark.parametrize("lam", [None, 0.02])
@pytest.mark.parametrize("runner", sorted(RUNNERS))
def test_runners_hand_the_solver_the_callers_config(runner, lam,
                                                    monkeypatch):
    # the experiments fill in a weight where lam is unset and pass every
    # other field through, options such as cab_solve's e_weight included
    cfg = SolverConfig(lam=lam, tol=1e-5, max_iter=30,
                       stopping=StoppingRule("ground-truth-distance", 0.5),
                       options={"e_weight": 2.0})
    seen = []

    def solve_spy(name, P, config):
        seen.append(config)
        return SimpleNamespace(x_star=np.zeros(P.n), iterations=0,
                               wall_time_seconds=0.0)

    def cab_spy(A, b, name, config):
        seen.append(config)
        return np.zeros(A.shape[1]), np.zeros(A.shape[0]), None

    monkeypatch.setattr(bench, "solve_named", solve_spy)
    monkeypatch.setattr(bench, "cab_solve", cab_spy)
    RUNNERS[runner](cfg)
    assert len(seen) == 2
    for c in seen:
        assert (c.tol, c.max_iter, c.stopping, c.options) == (
            cfg.tol, cfg.max_iter, cfg.stopping, cfg.options)
        if lam is None and runner != "corruption":
            assert c.lam > 0
        else:
            assert c.lam == lam


class TestWriters:
    def test_phase_csv_layout_and_determinism(self, tmp_path):
        g = run_phase_grid("homotopy", 60, [0.05, 0.2], [0.4, 0.7],
                           trials=3, base_seed=2)
        p1 = tmp_path / "grid1.csv"
        p2 = tmp_path / "grid2.csv"
        phase_grid_to_csv(g, p1)
        g_again = run_phase_grid("homotopy", 60, [0.05, 0.2], [0.4, 0.7],
                                 trials=3, base_seed=2)
        phase_grid_to_csv(g_again, p2)
        assert p1.read_bytes() == p2.read_bytes()
        rows = list(csv.reader(p1.open()))
        assert rows[0] == ["rho", "delta", "success_rate"]
        assert len(rows) == 1 + 4
        assert float(rows[1][2]) == g.success_rate[0, 0]

    def test_sweep_csv_columns(self, tmp_path):
        sw = SweepResult(axis_name="d", axis_values=(10, 20),
                         solvers=("fista", "palm"), trials=2,
                         mean_time=np.array([[0.1, 0.2], [0.3, 0.4]]),
                         mean_rel_error=np.array([[1e-3, 2e-3],
                                                  [3e-3, 4e-3]]),
                         mean_iterations=np.array([[5.0, 6.0],
                                                   [7.0, 8.0]]))
        path = tmp_path / "sweep.csv"
        sweep_to_csv(sw, path)
        rows = list(csv.reader(path.open()))
        assert rows[0] == ["d", "solver", "mean_time_seconds",
                           "mean_rel_error", "mean_iterations"]
        assert len(rows) == 1 + 4
        assert rows[1][1] == "fista"
        # full precision round trip
        assert float(rows[1][3]) == 1e-3

    def test_sweep_csv_success_rate_variant(self, tmp_path):
        sw = SweepResult(axis_name="corruption", axis_values=(0.5,),
                         solvers=("ist",), trials=2,
                         mean_time=np.array([[0.1]]),
                         success_rate=np.array([[0.75]]))
        path = tmp_path / "c.csv"
        sweep_to_csv(sw, path)
        rows = list(csv.reader(path.open()))
        assert rows[0] == ["corruption", "solver", "mean_time_seconds",
                           "success_rate"]
        assert rows[1][3] == "0.75"

    def test_csv_writers_use_lf_and_utf8(self, tmp_path):
        g = PhaseGrid(n=10, rho_values=(0.1, 0.2), delta_values=(0.5,),
                      success_rate=np.array([[1.0], [0.5]]),
                      trials_per_cell=1, base_seed=0, success_tol=1e-3)
        sw = SweepResult(axis_name="\u03b4", axis_values=(10, 20),
                         solvers=("fista",), trials=1,
                         mean_time=np.array([[0.25, 0.5]]))
        phase_grid_to_csv(g, tmp_path / "g.csv")
        sweep_to_csv(sw, tmp_path / "s.csv")
        assert (tmp_path / "g.csv").read_bytes() == (
            b"rho,delta,success_rate\n0.10000000000000001,0.5,1\n"
            b"0.20000000000000001,0.5,0.5\n")
        assert (tmp_path / "s.csv").read_bytes() == (
            "\u03b4,solver,mean_time_seconds\n10,fista,0.25\n"
            "20,fista,0.5\n").encode("utf-8")

    def test_summary_json(self, tmp_path):
        path = tmp_path / "summary.json"
        write_summary_json(path, "phase", {"n": 100, "solver": "fista"},
                           results={"cells": 4})
        payload = json.loads(path.read_text())
        assert payload["kind"] == "phase"
        assert payload["parameters"]["n"] == 100
        env = payload["environment"]
        assert sorted(env) == ["numpy", "package_version", "platform",
                               "python", "rng"]
        assert "PCG64" in env["rng"]
        # stable serialization
        write_summary_json(tmp_path / "again.json", "phase",
                           {"n": 100, "solver": "fista"},
                           results={"cells": 4})
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()

    def test_environment_metadata_standalone(self):
        env = environment_metadata()
        assert sorted(env) == ["numpy", "package_version", "platform",
                               "python", "rng"]
        assert all(isinstance(value, str) for value in env.values())

    def test_sweep_svg(self, tmp_path):
        sw = SweepResult(axis_name="d", axis_values=(10, 20, 30),
                         solvers=("fista", "palm"), trials=2,
                         mean_time=np.array([[0.1, 0.2, 0.3],
                                             [0.2, 0.3, 0.4]]),
                         mean_rel_error=np.array([[0.3, 0.2, 0.1],
                                                  [0.4, 0.3, 0.2]]))
        path = tmp_path / "plot.svg"
        sweep_svg(sw, "mean_rel_error", path)
        text = path.read_text()
        assert text.startswith("<svg")
        assert text.count("<polyline") == 2
        assert "fista" in text and "palm" in text
        with pytest.raises(ValueError):
            sweep_svg(sw, "success_rate", tmp_path / "no.svg")

    def test_contour_svg(self, tmp_path):
        rho = np.linspace(0.1, 0.5, 5)
        delta = np.linspace(0.3, 0.9, 4)
        rates = np.clip(0.8 + 2.0 * ((0.2 + 0.3 * delta)[None, :]
                                     - rho[:, None]), 0.0, 1.0)
        g = PhaseGrid(n=50, rho_values=tuple(rho),
                      delta_values=tuple(delta), success_rate=rates,
                      trials_per_cell=5, base_seed=0, success_tol=1e-3)
        path = tmp_path / "contour.svg"
        phase_contour_svg(g, [0.8], path)
        text = path.read_text()
        assert text.startswith("<svg")
        assert "<polyline" in text
        assert "80%" in text


def noisy_instance():
    return make_instance(GenSpec(n=200, d=80, k=10, seed=37,
                                 noise_sigma=0.01))


@pytest.mark.parametrize("name", SOLVER_NAMES)
def test_budget_stop_is_noted(name):
    # a run cut off by its iteration budget says so in its notes, and a
    # run that converges does not
    P = noisy_instance()
    lam = 1e-2 * float(np.max(np.abs(P.A.T @ P.b)))
    res = solve_named(name, P, SolverConfig(lam=lam, max_iter=2))
    assert not res.converged
    assert any(note.endswith("iteration budget exhausted")
               for note in res.notes), res.notes
    res = solve_named(name, P, SolverConfig(lam=lam, max_iter=20000))
    assert res.converged
    assert not any("budget" in note for note in res.notes), res.notes
