"""Tests of the benchmark itself, on tiny instances.

Run from the repository root:

    python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run

sys.path.insert(0, run.SRC)

import tracer  # noqa: E402
import workloads  # noqa: E402
from ell1 import bench, numerics, operators, robust  # noqa: E402
from ell1.model import SolverResult  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def _tiny(name):
    ones = {m: 1 for m in workloads.WORKLOADS[name].samples}
    make = {
        "gauss-clean": workloads._gaussian(n=60, d=30, k=3, sigma=0.0),
        "gauss-noisy": workloads._gaussian(n=60, d=30, k=3, sigma=0.01),
        "face-queries": workloads._face(d=40, n=80, groups=8,
                                        coherence=0.6, level=0.2,
                                        dictionaries=2),
    }[name]
    return workloads.Workload(name, "", ones, make)


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Tiny versions of every workload, one set-up, report in tmp_path."""
    monkeypatch.setattr(workloads, "WORKLOADS",
                        {n: _tiny(n) for n in workloads.WORKLOADS})
    monkeypatch.setattr(workloads, "ALIGN_ROWS", 120)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "OUT", str(tmp_path))
    return tmp_path


def _main(capsys, workload, trace, seed=3):
    code = run.main(["--workload", workload, "--seed", str(seed),
                     "--seconds", "1", "--trace", str(trace)])
    assert code == 0
    out = capsys.readouterr().out.strip().splitlines()
    return out, json.loads(out[-1])


def test_spec_names_workloads_and_metrics():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()]
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert SPEC["command"][1:] == ["perfbench/run.py"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["gauss-clean", "gauss-noisy",
                                      "face-queries"])
def test_every_metric_emitted_with_its_unit(tiny, capsys, workload, trace):
    lines, result = _main(capsys, workload, trace)
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert {m["name"]: m["unit"] for m in spec} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    printed = {line.split()[0] for line in lines[:-1] if line.strip()}
    assert {m["name"] for m in spec} <= printed


def test_wrong_answer_lowers_ok_frac(tiny, capsys, monkeypatch):
    _, before = _main(capsys, "gauss-noisy", 0)
    assert before["metrics"]["ok_frac"]["value"] == 1.0

    def wrong(P, config, observer=None):
        return SolverResult(np.zeros(P.n), 1, 0.0, True, [])

    monkeypatch.setattr(bench, "fista_solve", wrong)
    _, after = _main(capsys, "gauss-noisy", 0)
    assert after["failed"] == before["failed"] + 1
    assert after["metrics"]["ok_frac"]["value"] < 1.0
    # a wrong answer reported as converged makes the run incorrect
    assert after["correct"] is False


def test_unconverged_failure_keeps_run_correct(tiny, capsys):
    # gpsr runs out of budget on noiseless recovery at the tiny penalty
    _, result = _main(capsys, "gauss-clean", 0)
    assert result["failed"] >= 1
    assert result["correct"] is True


def test_traced_answers_bitwise_identical(tiny, capsys):
    _, result = _main(capsys, "face-queries", 1)
    with open(os.path.join(tiny, "face-queries-seed3-trace1.json"),
              encoding="utf-8") as fh:
        report = json.load(fh)
    assert report["identical"] is True
    assert result["correct"] is True
    assert result["metrics"]["robust.ext_products"]["value"] > 0
    assert os.path.getsize(os.path.join(
        tiny, "face-queries-seed3-trace1-spans.txt.gz")) > 0


def test_traced_counts_repeat_exactly(tiny, capsys):
    _, first = _main(capsys, "gauss-noisy", 1)
    _, second = _main(capsys, "gauss-noisy", 1)
    for name, metric in first["metrics"].items():
        if metric["unit"] == "count":
            assert second["metrics"][name]["value"] == metric["value"], name


def test_instrumentation_restores_the_library():
    before = (numerics.chol_factor, numerics.CholFactor.__dict__["solve"],
              operators.DenseDictionary.__dict__["apply_columns"],
              robust.ExtendedDictionary.__dict__["__matmul__"],
              robust.chol_factor, robust.cab_solve, bench.dalm_solve)
    tr = tracer.Tracer()
    with tracer.Instrumentation(tr) as inst:
        assert numerics.chol_factor is not before[0]
        A = np.arange(12.0).reshape(3, 4)
        x = np.linspace(-1.0, 1.0, 4)
        y = inst.view(A) @ x
        assert y.tobytes() == (A @ x).tobytes()
        assert type(y) is np.ndarray
    after = (numerics.chol_factor, numerics.CholFactor.__dict__["solve"],
             operators.DenseDictionary.__dict__["apply_columns"],
             robust.ExtendedDictionary.__dict__["__matmul__"],
             robust.chol_factor, robust.cab_solve, bench.dalm_solve)
    assert all(a is b for a, b in zip(before, after))
    assert tr.name == ["operators.product"]


def test_self_time_subtracts_children():
    tr = tracer.Tracer()
    outer = tr.open("outer")
    inner = tr.open("inner")
    tr.close(inner)
    tr.close(outer)
    dur, self_t = tr.durations()
    assert tr.parent == [-1, 0]
    assert self_t[0] == pytest.approx(dur[0] - dur[1])
    assert self_t[1] == dur[1]


def test_same_seed_same_inputs_other_seed_differs(monkeypatch):
    monkeypatch.setattr(workloads, "ALIGN_ROWS", 120)
    wl = _tiny("face-queries")
    counts = wl.counts(1)

    def matrices(seed):
        return [np.array(getattr(o, a)) for o, a in
                wl.make(seed, counts).matrices]

    first, again, other = matrices(5), matrices(5), matrices(6)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(first, again))
    assert any(a.tobytes() != b.tobytes() for a, b in zip(first, other))


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gauss-clean",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
