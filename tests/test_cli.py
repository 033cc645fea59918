"""Command-line interface: file I/O, exit codes, determinism."""

import argparse
import json

import numpy as np
import pytest

from ell1 import bench
from ell1.bench import SOLVERS
from ell1.cli import build_parser, run


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def write_instance(path, seed=7, n=60, d=30, k=4):
    rc = run(["gen", "--n", str(n), "--d", str(d), "--k", str(k),
              "--seed", str(seed), "--matrix", str(path / "A.csv"),
              "--rhs", str(path / "b.csv"),
              "--truth", str(path / "x0.csv")])
    assert rc == 0
    return path / "A.csv", path / "b.csv", path / "x0.csv"


def trial_ran(*args, **kwargs):
    raise AssertionError("a trial ran")


REQUIRED = "<required>"
ALL_SOLVERS = ("pdipa", "homotopy", "gpsr", "tnipm", "ist", "fista", "palm",
               "dalm", "gp")
CONFIG_FLAGS = {"--lambda": None, "--tol": None, "--max-iter": None}
OUTPUT_FLAGS = {"--svg": None, "--title": None, "--summary": None}
# option -> default, or (default, choices); REQUIRED stands for the default
# of a required option
PARSER = {
    "solve": {"--algo": ("fista", ALL_SOLVERS), "--matrix": REQUIRED,
              "--rhs": REQUIRED, **CONFIG_FLAGS, "--seed": None,
              "--out": REQUIRED},
    "gen": {"--n": REQUIRED, "--d": REQUIRED, "--k": REQUIRED,
            "--noise-sigma": 0.0, "--seed": 0, "--matrix": REQUIRED,
            "--rhs": REQUIRED, "--truth": None},
    "phase": {"--algo": (REQUIRED, ALL_SOLVERS), "--n": REQUIRED,
              "--grid": REQUIRED, "--trials": 20, "--seed": 0,
              "--success-tol": 1e-3, **CONFIG_FLAGS, "--jobs": 1,
              "--out": REQUIRED, "--levels": "50,90", **OUTPUT_FLAGS},
    "noise-sweep": {"--mode": (REQUIRED, ("vary-d", "vary-k")),
                    "--solvers": REQUIRED, "--n": REQUIRED, "--k": None,
                    "--d-values": None, "--d": None, "--rho-values": None,
                    "--noise-sigma": 0.1, "--trials": 10, "--seed": 0,
                    **CONFIG_FLAGS, "--jobs": 1, "--out": REQUIRED,
                    "--metric": ("mean_rel_error",
                                 ("mean_time", "mean_rel_error",
                                  "mean_iterations")),
                    **OUTPUT_FLAGS},
    "cab": {"--algo": ("homotopy", ALL_SOLVERS), "--matrix": REQUIRED,
            "--rhs": REQUIRED, **CONFIG_FLAGS, "--e-weight": None,
            "--seed": None, "--out": REQUIRED},
    "align": {"--algo": ("palm", ("gp", "homotopy", "ist", "palm")),
              "--basis": REQUIRED, "--rhs": REQUIRED, **CONFIG_FLAGS,
              "--seed": None, "--out": REQUIRED},
    "report": {"--input": REQUIRED, "--svg": REQUIRED, "--metric": None,
               "--levels": "50,90", "--title": None, "--summary": None},
}


def test_parser_options_defaults_and_choices():
    subs = next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction))
    seen = {}
    for name, sub in subs.choices.items():
        seen[name] = {}
        for action in sub._actions:
            if action.dest == "help":
                continue
            default = REQUIRED if action.required else action.default
            seen[name][action.option_strings[0]] = (
                default if action.choices is None
                else (default, tuple(action.choices)))
    assert seen == PARSER


class TestGen:
    def test_deterministic_and_seed_sensitive(self, workdir):
        write_instance(workdir / "1" if False else workdir, seed=7)
        a1 = (workdir / "A.csv").read_bytes()
        write_instance(workdir, seed=7)
        assert (workdir / "A.csv").read_bytes() == a1
        write_instance(workdir, seed=8)
        assert (workdir / "A.csv").read_bytes() != a1

    def test_consistent_instance(self, workdir):
        A_path, b_path, x0_path = write_instance(workdir)
        A = np.loadtxt(A_path, delimiter=",")
        b = np.loadtxt(b_path, delimiter=",")
        x0 = np.loadtxt(x0_path, delimiter=",")
        # noise-free: files reproduce the exact linear relation
        assert np.allclose(A @ x0, b, atol=1e-14)

    def test_validation_exit_2(self, workdir):
        rc = run(["gen", "--n", "10", "--d", "5", "--k", "20",
                  "--matrix", "A.csv", "--rhs", "b.csv"])
        assert rc == 2


class TestSolve:
    def test_json_schema_and_recovery(self, workdir):
        A_path, b_path, x0_path = write_instance(workdir)
        rc = run(["solve", "--algo", "fista", "--matrix", str(A_path),
                  "--rhs", str(b_path), "--lambda", "0.001",
                  "--seed", "7", "--out", "r.json"])
        assert rc == 0
        payload = json.loads((workdir / "r.json").read_text())
        assert list(payload.keys()) == [
            "algo", "n", "d", "lambda", "iterations", "converged",
            "wall_time_seconds", "x", "objective", "kkt_residual",
            "config_echo", "seed"]
        assert payload["algo"] == "fista"
        assert payload["n"] == 60 and payload["d"] == 30
        assert payload["lambda"] == 0.001
        assert payload["converged"] is True
        assert payload["seed"] == 7
        assert payload["kkt_residual"] <= 1e-4 * 0.001
        assert payload["config_echo"]["max_iter"] == 5000

    def test_equality_algo_reports_constraint_residual(self, workdir):
        A_path, b_path, x0_path = write_instance(workdir)
        rc = run(["solve", "--algo", "pdipa", "--matrix", str(A_path),
                  "--rhs", str(b_path), "--out", "r.json"])
        assert rc == 0
        payload = json.loads((workdir / "r.json").read_text())
        assert payload["lambda"] is None
        assert payload["kkt_residual"] <= 1e-6
        x0 = np.loadtxt(workdir / "x0.csv", delimiter=",")
        x = np.asarray(payload["x"])
        assert np.linalg.norm(x - x0) <= 1e-4 * np.linalg.norm(x0)

    def test_homotopy_zero_target_reports_equality_fields(self, workdir):
        A_path, b_path, x0_path = write_instance(workdir)
        rc = run(["solve", "--algo", "homotopy", "--matrix", str(A_path),
                  "--rhs", str(b_path), "--lambda", "0", "--out", "r.json"])
        assert rc == 0
        payload = json.loads((workdir / "r.json").read_text())
        assert payload["lambda"] == 0.0
        # zero weight: certificate is the constraint violation
        assert payload["kkt_residual"] <= 1e-10
        x0 = np.loadtxt(x0_path, delimiter=",")
        x = np.asarray(payload["x"])
        assert np.linalg.norm(x - x0) <= 1e-8 * np.linalg.norm(x0)
        assert payload["objective"] == pytest.approx(np.sum(np.abs(x)))

    def test_gp_alias_accepted(self, workdir):
        A_path, b_path, _ = write_instance(workdir)
        rc = run(["solve", "--algo", "gp", "--matrix", str(A_path),
                  "--rhs", str(b_path), "--out", "r.json"])
        assert rc == 0
        assert json.loads((workdir / "r.json").read_text())["algo"] == "gp"

    @pytest.mark.parametrize("name", sorted(SOLVERS))
    def test_every_table_name_runs(self, workdir, name):
        A_path, b_path, _ = write_instance(workdir, n=20, d=10, k=2)
        rc = run(["solve", "--algo", name, "--matrix", str(A_path),
                  "--rhs", str(b_path), "--max-iter", "200",
                  "--out", "r.json"])
        assert rc in (0, 1)
        payload = json.loads((workdir / "r.json").read_text())
        assert payload["algo"] == name and len(payload["x"]) == 20
        equality = SOLVERS[name].form == "equality"
        assert (payload["lambda"] is None) == equality

    def test_budget_exhaustion_exit_1_with_results(self, workdir):
        A_path, b_path, _ = write_instance(workdir)
        rc = run(["solve", "--algo", "ist", "--matrix", str(A_path),
                  "--rhs", str(b_path), "--max-iter", "3",
                  "--out", "r.json"])
        assert rc == 1
        payload = json.loads((workdir / "r.json").read_text())
        assert payload["converged"] is False
        assert len(payload["x"]) == 60

    def test_dimension_mismatch_names_both(self, workdir, capsys):
        np.savetxt(workdir / "A.csv", np.ones((3, 2)), fmt="%.17g",
                   delimiter=",")
        np.savetxt(workdir / "b.csv", np.ones((4, 1)), fmt="%.17g",
                   delimiter=",")
        rc = run(["solve", "--matrix", "A.csv", "--rhs", "b.csv",
                  "--out", "r.json"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "3x2" in err and "4" in err

    def test_missing_and_malformed_files(self, workdir):
        assert run(["solve", "--matrix", "nope.csv", "--rhs", "nope.csv",
                    "--out", "r.json"]) == 2
        (workdir / "bad.csv").write_text("1,2\n3,oops\n")
        (workdir / "v.csv").write_text("1\n2\n")
        assert run(["solve", "--matrix", "bad.csv", "--rhs", "v.csv",
                    "--out", "r.json"]) == 2

    def test_multi_column_rhs_rejected(self, workdir):
        np.savetxt(workdir / "A.csv", np.ones((2, 2)), fmt="%.17g",
                   delimiter=",")
        (workdir / "b.csv").write_text("1,2\n3,4\n")
        assert run(["solve", "--matrix", "A.csv", "--rhs", "b.csv",
                    "--out", "r.json"]) == 2

    @pytest.mark.parametrize("command", ["solve", "cab", "align"])
    def test_readme_key_order(self, workdir, command):
        rng = np.random.default_rng(2)
        M = rng.standard_normal((12, 4) if command == "align" else (12, 24))
        np.savetxt(workdir / "M.csv", M, fmt="%.17g", delimiter=",")
        np.savetxt(workdir / "b.csv", rng.standard_normal((12, 1)),
                   fmt="%.17g", delimiter=",")
        flag = "--basis" if command == "align" else "--matrix"
        rc = run([command, flag, "M.csv", "--rhs", "b.csv", "--max-iter",
                  "50", "--out", "r.json"])
        assert rc in (0, 1)
        payload = json.loads((workdir / "r.json").read_text())
        keys = ["algo", "n", "d", "lambda", "iterations", "converged",
                "wall_time_seconds", "x", "e", "objective", "kkt_residual",
                "config_echo", "seed"]
        if command == "solve":
            keys.remove("e")
        assert list(payload) == keys
        assert (payload["n"], payload["d"]) == (M.shape[1], M.shape[0])

    def test_unknown_flag_exit_2(self, workdir):
        assert run(["solve", "--matrix", "A.csv", "--rhs", "b.csv",
                    "--out", "r.json", "--frobnicate"]) == 2

    def test_round_trip_bit_identical(self, workdir):
        A_path, _, _ = write_instance(workdir, seed=3)
        from ell1.synth import GenSpec, make_instance
        P = make_instance(GenSpec(n=60, d=30, k=4, seed=3))
        assert np.array_equal(np.loadtxt(A_path, delimiter=","), P.A)


class TestPhase:
    def test_byte_identical_runs(self, workdir):
        argv = ["phase", "--algo", "homotopy", "--n", "60", "--grid",
                "2x2", "--trials", "3", "--seed", "42"]
        assert run(argv + ["--out", "g1.csv"]) == 0
        assert run(argv + ["--out", "g2.csv"]) == 0
        assert (workdir / "g1.csv").read_bytes() == \
            (workdir / "g2.csv").read_bytes()
        header = (workdir / "g1.csv").read_text().splitlines()[0]
        assert header == "rho,delta,success_rate"

    def test_svg_and_summary_outputs(self, workdir):
        rc = run(["phase", "--algo", "homotopy", "--n", "60", "--grid",
                  "2x2", "--trials", "2", "--seed", "1", "--out", "g.csv",
                  "--svg", "g.svg", "--levels", "50",
                  "--summary", "g.json"])
        assert rc == 0
        assert (workdir / "g.svg").read_text().startswith("<svg")
        summary = json.loads((workdir / "g.json").read_text())
        assert summary["kind"] == "phase"
        assert summary["parameters"]["grid"] == "2x2"
        assert sorted(summary["environment"]) == [
            "numpy", "package_version", "platform", "python", "rng"]

    def test_bad_grid_and_levels(self, workdir):
        assert run(["phase", "--algo", "ist", "--n", "20", "--grid",
                    "axb", "--out", "g.csv"]) == 2
        assert run(["phase", "--algo", "ist", "--n", "20", "--grid",
                    "2x2", "--trials", "1", "--out", "g.csv",
                    "--svg", "g.svg", "--levels", "150"]) == 2

    @pytest.mark.parametrize("flags, named", [
        (["--svg", "g.svg", "--levels", "150"], "levels"),
        (["--jobs", "0"], "jobs"),
        (["--jobs", "-3"], "jobs"),
    ])
    def test_bad_flags_stop_before_any_trial(self, workdir, capsys,
                                             monkeypatch, flags, named):
        # a flag that would fail the run or its outputs is caught before
        # the first trial: no trial, no CSV
        monkeypatch.setattr(bench, "_phase_task", trial_ran)
        rc = run(["phase", "--algo", "ist", "--n", "20", "--grid", "2x2",
                  "--trials", "1", "--out", "g.csv"] + flags)
        assert rc == 2
        assert named in capsys.readouterr().err
        assert not (workdir / "g.csv").exists()


class TestNoiseSweep:
    def test_small_sweep_and_report(self, workdir):
        rc = run(["noise-sweep", "--mode", "vary-d", "--solvers",
                  "homotopy,fista", "--n", "40", "--k", "3",
                  "--d-values", "20,30", "--noise-sigma", "0.05",
                  "--trials", "2", "--seed", "1", "--out", "sw.csv",
                  "--svg", "sw.svg", "--summary", "sw.json"])
        assert rc == 0
        lines = (workdir / "sw.csv").read_text().splitlines()
        assert lines[0] == ("d,solver,mean_time_seconds,mean_rel_error,"
                            "mean_iterations")
        assert len(lines) == 1 + 4
        assert (workdir / "sw.svg").read_text().count("<polyline") == 2
        rc = run(["report", "--input", "sw.csv", "--svg", "rep.svg",
                  "--metric", "mean_iterations", "--summary", "rep.json"])
        assert rc == 0
        assert (workdir / "rep.svg").read_text().count("<polyline") == 2
        summary = json.loads((workdir / "rep.json").read_text())
        assert summary["results"]["metric"] == "mean_iterations"

    def test_d_values_must_be_whole(self, workdir, capsys):
        rc = run(["noise-sweep", "--mode", "vary-d", "--solvers", "fista",
                  "--n", "40", "--k", "3", "--d-values", "10.7,15",
                  "--out", "s.csv"])
        assert rc == 2
        assert "--d-values" in capsys.readouterr().err
        assert not (workdir / "s.csv").exists()

    @pytest.mark.parametrize("flags, named", [
        (["--svg", "s.svg", "--metric", "trials"], "--metric"),
        (["--metric", "success_rate"], "--metric"),
        (["--jobs", "0"], "jobs"),
    ])
    def test_bad_flags_stop_before_any_trial(self, workdir, capsys,
                                             monkeypatch, flags, named):
        monkeypatch.setattr(bench, "_noise_task", trial_ran)
        rc = run(["noise-sweep", "--mode", "vary-d", "--solvers", "fista",
                  "--n", "40", "--k", "3", "--d-values", "20",
                  "--trials", "1", "--out", "s.csv"] + flags)
        assert rc == 2
        assert named in capsys.readouterr().err
        assert not (workdir / "s.csv").exists()

    def test_every_noise_metric_is_accepted(self, workdir):
        # the metrics --metric accepts are the columns the sweep CSV holds
        metrics = PARSER["noise-sweep"]["--metric"][1]
        for metric in metrics:
            assert run(["noise-sweep", "--mode", "vary-d", "--solvers",
                        "fista", "--n", "30", "--k", "2", "--d-values",
                        "15", "--trials", "1", "--out", "s.csv",
                        "--svg", "s.svg", "--metric", metric]) == 0
        header = (workdir / "s.csv").read_text().splitlines()[0]
        assert header.split(",")[2:] == [bench._SWEEP_COLUMNS[m]
                                         for m in metrics]

    def test_flag_requirements(self, workdir):
        assert run(["noise-sweep", "--mode", "vary-d", "--solvers",
                    "fista", "--n", "40", "--out", "s.csv"]) == 2
        assert run(["noise-sweep", "--mode", "vary-k", "--solvers",
                    "fista", "--n", "40", "--out", "s.csv"]) == 2
        assert run(["noise-sweep", "--mode", "vary-d", "--solvers",
                    "warp", "--n", "40", "--k", "2", "--d-values", "20",
                    "--out", "s.csv"]) == 2


class TestCabCommand:
    def make_corrupted(self, workdir, seed=3):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((30, 60))
        A /= np.linalg.norm(A, axis=0)
        x0 = np.zeros(60)
        x0[[4, 17, 33]] = [1.5, -2.0, 1.0]
        b = A @ x0
        b[5] += 4.0
        np.savetxt(workdir / "A.csv", A, fmt="%.17g", delimiter=",")
        np.savetxt(workdir / "b.csv", b[:, None], fmt="%.17g",
                   delimiter=",")
        return x0

    def test_default_backend_splits_corruption(self, workdir):
        x0 = self.make_corrupted(workdir)
        rc = run(["cab", "--matrix", "A.csv", "--rhs", "b.csv",
                  "--out", "c.json"])
        assert rc == 0
        payload = json.loads((workdir / "c.json").read_text())
        assert payload["algo"] == "homotopy"
        e = np.asarray(payload["e"])
        assert len(e) == 30 and len(payload["x"]) == 60
        assert int(np.argmax(np.abs(e))) == 5
        # near-vanishing penalty removes the shrinkage bias
        rc = run(["cab", "--matrix", "A.csv", "--rhs", "b.csv",
                  "--lambda", "1e-5", "--out", "c2.json"])
        assert rc == 0
        payload = json.loads((workdir / "c2.json").read_text())
        x = np.asarray(payload["x"])
        assert np.linalg.norm(x - x0) <= 1e-2 * np.linalg.norm(x0)

    @pytest.mark.parametrize("name", tuple(SOLVERS))
    def test_every_implicit_name_runs(self, workdir, name):
        self.make_corrupted(workdir)
        rc = run(["cab", "--algo", name, "--matrix", "A.csv",
                  "--rhs", "b.csv", "--max-iter", "300", "--out", "c.json"])
        assert rc in (0, 1)
        payload = json.loads((workdir / "c.json").read_text())
        assert payload["algo"] == name
        assert len(payload["x"]) == 60 and len(payload["e"]) == 30
        equality = SOLVERS[name].form == "equality"
        assert (payload["lambda"] is None) == equality

    def test_non_finite_rhs_is_a_usage_error(self, workdir, capsys):
        self.make_corrupted(workdir)
        b = np.loadtxt(workdir / "b.csv", delimiter=",")
        b[4] = np.inf
        np.savetxt(workdir / "b.csv", b[:, None], fmt="%.17g", delimiter=",")
        assert run(["cab", "--algo", "homotopy", "--matrix", "A.csv",
                    "--rhs", "b.csv", "--out", "c.json"]) == 2
        assert "A and b must be finite" in capsys.readouterr().err
        assert not (workdir / "c.json").exists()

    def test_zero_weight_reports_equality_fields(self, workdir):
        # as `solve` does: a zero weight is certified by the constraint
        # violation, and the objective is the l1 norm of the stacked answer
        self.make_corrupted(workdir)
        rc = run(["cab", "--algo", "homotopy", "--lambda", "0",
                  "--matrix", "A.csv", "--rhs", "b.csv", "--out", "c.json"])
        assert rc == 0
        payload = json.loads((workdir / "c.json").read_text())
        assert payload["lambda"] == 0.0
        x, e = np.asarray(payload["x"]), np.asarray(payload["e"])
        A = np.loadtxt(workdir / "A.csv", delimiter=",")
        b = np.loadtxt(workdir / "b.csv", delimiter=",")
        violation = float(np.max(np.abs(A @ x + e - b)))
        assert payload["objective"] == pytest.approx(
            np.sum(np.abs(x)) + np.sum(np.abs(e)))
        assert payload["kkt_residual"] <= 1e-10
        assert payload["kkt_residual"] == pytest.approx(violation, abs=1e-14)

    def test_e_weight_echoed(self, workdir):
        self.make_corrupted(workdir)
        rc = run(["cab", "--matrix", "A.csv", "--rhs", "b.csv",
                  "--e-weight", "2.0", "--out", "c.json"])
        assert rc == 0
        payload = json.loads((workdir / "c.json").read_text())
        assert payload["config_echo"]["e_weight"] == 2.0


class TestAlignCommand:
    def make_misaligned(self, workdir, seed=5, scale=1.0):
        rng = np.random.default_rng(seed)
        B = rng.standard_normal((40, 5))
        w0 = rng.standard_normal(5)
        b = B @ w0
        b[7] += 5.0
        b[20] -= 3.0
        b *= scale
        np.savetxt(workdir / "B.csv", B, fmt="%.17g", delimiter=",")
        np.savetxt(workdir / "b.csv", b[:, None], fmt="%.17g",
                   delimiter=",")
        return w0

    def test_default_algo_recovers(self, workdir):
        w0 = self.make_misaligned(workdir)
        rc = run(["align", "--basis", "B.csv", "--rhs", "b.csv",
                  "--out", "a.json"])
        assert rc == 0
        payload = json.loads((workdir / "a.json").read_text())
        assert payload["algo"] == "palm"
        assert payload["lambda"] is None
        w = np.asarray(payload["x"])
        assert np.linalg.norm(w - w0) <= 1e-6
        e = np.asarray(payload["e"])
        assert sorted(np.flatnonzero(np.abs(e) > 0.1).tolist()) == [7, 20]

    def test_penalized_algo_reports_lambda(self, workdir):
        self.make_misaligned(workdir)
        rc = run(["align", "--algo", "gp", "--basis", "B.csv",
                  "--rhs", "b.csv", "--out", "a.json"])
        assert rc == 0
        payload = json.loads((workdir / "a.json").read_text())
        assert payload["lambda"] > 0
        assert payload["converged"] is True

    @pytest.mark.parametrize("scale", [1.0, 1e-9])
    def test_unconverged_in_any_units(self, workdir, scale):
        # one palm step leaves w far off at every scale of b, so the
        # convergence test must not read a small b as converged
        self.make_misaligned(workdir, scale=scale)
        rc = run(["align", "--algo", "palm", "--max-iter", "1",
                  "--basis", "B.csv", "--rhs", "b.csv", "--out", "a.json"])
        assert rc == 1
        payload = json.loads((workdir / "a.json").read_text())
        assert payload["converged"] is False

    @pytest.mark.parametrize("algo", ["gp", "homotopy", "ist", "palm"])
    def test_zero_rhs_exact_fit(self, workdir, algo):
        B = np.random.default_rng(1).standard_normal((10, 2))
        np.savetxt(workdir / "B.csv", B, fmt="%.17g", delimiter=",")
        np.savetxt(workdir / "b.csv", np.zeros((10, 1)), fmt="%.17g",
                   delimiter=",")
        rc = run(["align", "--algo", algo, "--basis", "B.csv",
                  "--rhs", "b.csv", "--out", "a.json"])
        assert rc == 0
        payload = json.loads((workdir / "a.json").read_text())
        assert payload["converged"] is True
        assert payload["x"] == [0.0, 0.0] and payload["e"] == [0.0] * 10

    def test_zero_weight_reports_exact_fit_fields(self, workdir):
        # homotopy at weight 0 solves the exact-fit form, and is certified
        # as palm is: by the constraint violation
        w0 = self.make_misaligned(workdir)
        rc = run(["align", "--algo", "homotopy", "--lambda", "0",
                  "--basis", "B.csv", "--rhs", "b.csv", "--out", "a.json"])
        assert rc == 0
        payload = json.loads((workdir / "a.json").read_text())
        assert payload["lambda"] == 0.0 and payload["converged"] is True
        w, e = np.asarray(payload["x"]), np.asarray(payload["e"])
        assert np.linalg.norm(w - w0) <= 1e-8 * np.linalg.norm(w0)
        assert payload["objective"] == pytest.approx(np.sum(np.abs(e)))
        assert payload["kkt_residual"] <= 1e-10

    @pytest.mark.parametrize("algo", ["gp", "homotopy", "ist", "palm"])
    def test_rhs_in_range_fits_exactly(self, workdir, algo):
        # at b = B w0 the least-squares residual is roundoff, so the
        # default weight is 0 and the exact fit is certified as such
        w0 = self.make_misaligned(workdir)
        B = np.loadtxt(workdir / "B.csv", delimiter=",")
        np.savetxt(workdir / "b.csv", (B @ w0)[:, None], fmt="%.17g",
                   delimiter=",")
        rc = run(["align", "--algo", algo, "--basis", "B.csv",
                  "--rhs", "b.csv", "--out", "a.json"])
        assert rc == 0
        payload = json.loads((workdir / "a.json").read_text())
        assert payload["converged"] is True
        w = np.asarray(payload["x"])
        assert np.linalg.norm(w - w0) <= 1e-12 * np.linalg.norm(w0)

    def test_wide_basis_rejected(self, workdir):
        np.savetxt(workdir / "B.csv", np.ones((3, 5)), fmt="%.17g",
                   delimiter=",")
        np.savetxt(workdir / "b.csv", np.ones((3, 1)), fmt="%.17g",
                   delimiter=",")
        assert run(["align", "--basis", "B.csv", "--rhs", "b.csv",
                    "--out", "a.json"]) == 2


class TestReportCommand:
    def test_phase_report(self, workdir):
        (workdir / "g.csv").write_text(
            "rho,delta,success_rate\n"
            "0.1,0.5,1\n0.2,0.5,0.9\n0.1,0.7,1\n0.2,0.7,0.8\n")
        rc = run(["report", "--input", "g.csv", "--svg", "g.svg",
                  "--levels", "95"])
        assert rc == 0
        assert "<polyline" in (workdir / "g.svg").read_text()

    @pytest.mark.parametrize("argv", [
        ["phase", "--algo", "homotopy", "--n", "40", "--grid", "3x3",
         "--trials", "2", "--seed", "1"],
        ["noise-sweep", "--mode", "vary-k", "--solvers", "homotopy,ist",
         "--n", "30", "--d", "15", "--rho-values", "0.1,0.2",
         "--trials", "1"]])
    def test_round_trip_reproduces_svg(self, workdir, argv):
        assert run(argv + ["--out", "t.csv", "--svg", "t.svg"]) == 0
        assert "<polyline" in (workdir / "t.svg").read_text()
        assert run(["report", "--input", "t.csv", "--svg", "r.svg"]) == 0
        assert (workdir / "r.svg").read_bytes() == \
            (workdir / "t.svg").read_bytes()

    def test_missing_metric_and_garbage(self, workdir):
        (workdir / "s.csv").write_text(
            "d,solver,mean_time_seconds\n10,fista,0.5\n")
        assert run(["report", "--input", "s.csv", "--svg", "s.svg",
                    "--metric", "mean_rel_error"]) == 2
        (workdir / "junk.csv").write_text("just,words\n")
        assert run(["report", "--input", "junk.csv",
                    "--svg", "j.svg"]) == 2


class TestOutDirEnv:
    def test_outputs_land_in_env_dir(self, workdir, monkeypatch):
        out = workdir / "dest"
        out.mkdir()
        monkeypatch.setenv("ELL1_OUT_DIR", str(out))
        rc = run(["gen", "--n", "10", "--d", "5", "--k", "2",
                  "--matrix", "A.csv", "--rhs", "b.csv"])
        assert rc == 0
        assert (out / "A.csv").exists() and (out / "b.csv").exists()
        # inputs are read from where the user said, not the output dir
        rc = run(["solve", "--matrix", str(out / "A.csv"),
                  "--rhs", str(out / "b.csv"), "--out", "r.json"])
        assert rc == 0
        assert (out / "r.json").exists()
