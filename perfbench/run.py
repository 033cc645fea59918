"""Solver benchmark: three seeded workloads through the public entry points.

Run from the repository root:

    python3 perfbench/run.py --workload gauss-clean --seed 1 --seconds 30 \\
        --trace 0

``--trace 0`` times every call with nothing instrumented and prints the
end-to-end metrics. ``--trace 1`` runs a quarter of that call set twice,
first plain and then under the span tracer of ``tracer.py``, checks that
every answer is bitwise identical between the two passes, and prints the
per-layer metrics. Either way each metric is printed on its own line with
its unit, the full report goes to ``perfbench/out/``, and the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

Every solve is closed loop: one caller in one process, each solve starting
after the previous one returned. BLAS is pinned to one thread before numpy
is imported. A speed probe (fixed numpy work that never calls ell1) runs
before every solve, and the end-to-end times are scaled by its run median
to the speed at which it takes PROBE_REF_S: on a shared host the raw times
of identical work drift by up to a third between runs, the probe drifts
with them, and the scaled times do not.

A solve fails when it raises, returns non-finite values or misses its
workload's accuracy check; ``ok_frac`` is the share that passed. The run is
``correct`` unless an answer is non-finite, a solver reports convergence
on an answer that fails its check, a call raises anything but the
library's ``NumericalError``, or the traced answers differ from the plain
ones. An honest ``converged=False`` that misses the check, such as gpsr at
its iteration budget, is counted as failed without making the run
incorrect.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback

os.environ["OPENBLAS_NUM_THREADS"] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# set-up is measured this many times per run (this process plus children)
SETUP_REPEATS = 3
# a traced run times this share of the plain run's samples, twice
TRACE_SHARE = 0.25
# median time of the speed probe on the reference machine (see speed_probe)
PROBE_REF_S = 0.0016


def parse_args(argv, workload_names):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workload_names)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


class Record:
    """One timed call and how its answer fared."""

    __slots__ = ("call", "seconds", "outcome", "passed", "error", "sound",
                 "probe")

    def __init__(self, call, seconds, outcome, passed, error, sound, probe):
        self.probe = probe
        self.call = call
        self.seconds = seconds
        self.outcome = outcome
        self.passed = passed
        self.error = error
        self.sound = sound


def speed_probe(np, aligned):
    """Fixed work shaped like a solver iteration, timed between solves.

    Forty shrinkage steps on a fixed 200 x 500 cache-aligned matrix:
    matrix-vector products both ways, elementwise kernels and the
    interpreter loop around them. It never touches ell1, so a change to
    the library cannot move it; only the machine's speed can.
    """
    rng = np.random.default_rng(20100719)
    M = aligned(rng.standard_normal((200, 500)))
    b = rng.standard_normal(200)

    def probe():
        t0 = time.perf_counter()
        x = np.zeros(500)
        for _ in range(40):
            v = x - 1e-3 * (M.T @ (M @ x - b))
            x = np.sign(v) * np.maximum(np.abs(v) - 1e-4, 0.0)
        return time.perf_counter() - t0

    return probe


def run_calls(calls, numerical_error, np, probe, tracer=None):
    """Time each call closed loop, then check its answer outside the timer.

    The speed probe runs just before each call, outside its timer.
    """
    records = []
    for sid, call in enumerate(calls):
        probe_s = probe()
        if tracer is not None:
            tracer.solve_id = sid
        error = None
        outcome = None
        sound = True
        t0 = time.perf_counter()
        try:
            outcome = call.run()
        except numerical_error as exc:
            error = "%s: %s" % (type(exc).__name__, exc)
        except Exception:  # a crash is reported, not allowed to stop the run
            error = traceback.format_exc()
            sound = False
        seconds = time.perf_counter() - t0
        if tracer is not None:
            tracer.solve_id = -1
        passed = False
        if outcome is not None:
            finite = all(bool(np.all(np.isfinite(a))) for a in outcome.arrays)
            passed = finite and bool(call.check(outcome))
            sound = finite and not (outcome.converged and not passed)
        records.append(Record(call, seconds, outcome, passed, error, sound,
                              probe_s))
    return records


def identical(plain, traced):
    """Bitwise equality of every answer array across two passes."""
    for a, b in zip(plain, traced):
        if (a.outcome is None) != (b.outcome is None):
            return False
        if a.outcome is None:
            continue
        if a.outcome.iterations != b.outcome.iterations:
            return False
        for x, y in zip(a.outcome.arrays, b.outcome.arrays):
            if x.shape != y.shape or x.tobytes() != y.tobytes():
                return False
    return len(plain) == len(traced)


def end_to_end(records, setups, metric_names):
    """Medians per metric, set-up included, scaled to the reference speed.

    The scale is PROBE_REF_S over the median speed-probe time of the run:
    the host's speed drifts by tens of percent between runs, and the probe
    follows that drift while knowing nothing of the library. The raw
    medians are printed beside the scaled ones and kept in the report.
    """
    speed = PROBE_REF_S / statistics.median(r.probe for r in records)
    metrics = {"setup_s": (statistics.median(setups) * speed, "s"),
               "ok_frac": (sum(r.passed for r in records) / len(records),
                           "fraction")}
    detail = {}
    for name in metric_names:
        rs = [r for r in records if r.call.metric == name]
        raw = statistics.median(r.seconds for r in rs)
        metrics[name] = (raw * speed, "s")
        detail[name] = "raw=%.6g n=%d failed=%d unconverged=%d" % (
            raw, len(rs), sum(not r.passed for r in rs),
            sum(r.outcome is not None and r.outcome.converged is False
                for r in rs))
    return metrics, detail


def per_layer(records, tracer, overhead_s, gen_s, prefixes):
    """Per-layer counts and times from the traced pass's spans."""
    import tracer as tr_mod

    dur, self_t = tracer.durations()
    count, total = {}, {}
    solver_self, products, gathers = {}, {}, {}
    for i, name in enumerate(tracer.name):
        count[name] = count.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + dur[i]
        sid = tracer.solve[i]
        if sid < 0:
            continue
        prefix = records[sid].call.prefix
        if name.startswith(tr_mod.SOLVER_PREFIX):
            solver_self[prefix] = solver_self.get(prefix, 0.0) + self_t[i]
        elif name in (tr_mod.PRODUCT, tr_mod.EXT_PRODUCT):
            products[prefix] = products.get(prefix, 0) + 1
        elif name == tr_mod.GATHER:
            gathers[prefix] = gathers.get(prefix, 0) + 1

    def c(name):
        return count.get(name, 0)

    def s(name):
        return float(total.get(name, 0.0))

    m = {
        "operators.products": (c(tr_mod.PRODUCT), "count"),
        "operators.product_s": (s(tr_mod.PRODUCT), "s"),
        "operators.gathers": (c(tr_mod.GATHER), "count"),
        "operators.gather_s": (s(tr_mod.GATHER), "s"),
    }
    for short in ("chol_factor", "chol_update", "chol_solve", "pcg",
                  "spectral_norm", "elementwise"):
        m["numerics." + short] = (c("numerics." + short), "count")
        m["numerics." + short + "_s"] = (s("numerics." + short), "s")
    pcg_calls = c("numerics.pcg")
    m["numerics.pcg_iters"] = (tracer.pcg_iters, "count")
    m["numerics.pcg_iters_per_call"] = (
        tracer.pcg_iters / pcg_calls if pcg_calls else 0.0, "1/call")
    m["accel.calls"] = (c(tr_mod.ACCEL), "count")
    m["accel.s"] = (s(tr_mod.ACCEL), "s")
    m["robust.ext_products"] = (c(tr_mod.EXT_PRODUCT), "count")
    m["robust.ext_product_s"] = (s(tr_mod.EXT_PRODUCT), "s")
    m["robust.a_only_s"] = (s(tr_mod.A_ONLY), "s")
    for prefix, has_iters in prefixes:
        mine = [r for r in records if r.call.prefix == prefix]
        m[prefix + ".products"] = (products.get(prefix, 0), "count")
        m[prefix + ".self_s"] = (float(solver_self.get(prefix, 0.0)), "s")
        if not has_iters:
            continue
        iters = sum(r.outcome.iterations for r in mine
                    if r.outcome is not None)
        m[prefix + ".iters"] = (iters, "count")
        m[prefix + ".unconverged"] = (
            sum(r.outcome is not None and not r.outcome.converged
                for r in mine), "count")
        m[prefix + ".products_per_iter"] = (
            products.get(prefix, 0) / iters if iters else 0.0, "1/iter")
    iters = m["homotopy.iters"][0]
    m["homotopy.gathers_per_breakpoint"] = (
        gathers.get("homotopy", 0) / iters if iters else 0.0, "1/iter")
    m["synth.gen_s"] = (gen_s, "s")
    m["trace.overhead_s"] = (overhead_s, "s")
    return m


def _blas_threads():
    """Threads the loaded OpenBLAS will use, or None when unknown."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh
                     if "openblas" in line.lower()}
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(seed):
    import numpy
    import scipy

    import ell1
    blas = numpy.show_config(mode="dicts").get(
        "Build Dependencies", {}).get("blas", {})
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "kernels_compiled": bool(ell1.kernels_compiled),
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


def _child_setup(args):
    cmd = [sys.executable, os.path.abspath(__file__),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150,
                          check=True)
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def main(argv=None):
    if not os.path.isfile(os.path.join(SRC, "ell1", "__init__.py")):
        print("perfbench: no ell1 sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import numpy as np

    import ell1
    import workloads
    from ell1.exceptions import NumericalError
    import_s = time.perf_counter() - t0
    if not os.path.abspath(ell1.__file__).startswith(SRC + os.sep):
        print("perfbench: ell1 imported from %s, not %s"
              % (ell1.__file__, SRC), file=sys.stderr)
        return 2

    args = parse_args(argv, sorted(workloads.WORKLOADS))
    wl = workloads.WORKLOADS[args.workload]
    counts = wl.counts(args.seconds, TRACE_SHARE if args.trace else 1.0)
    t1 = time.perf_counter()
    inputs = wl.make(args.seed, counts)
    gen_s = time.perf_counter() - t1
    if args.setup_only:
        print(json.dumps({"setup_s": import_s + gen_s}))
        return 0
    setups = [import_s + gen_s]
    setups += [_child_setup(args) for _ in range(SETUP_REPEATS - 1)]

    probe = speed_probe(np, workloads.aligned)
    plain = run_calls(inputs.calls, NumericalError, np, probe)
    records = plain
    identical_ok = True
    if args.trace:
        import tracer as tr_mod
        tracer = tr_mod.Tracer()
        with tr_mod.Instrumentation(tracer) as inst:
            for owner, attr in inputs.matrices:
                setattr(owner, attr, inst.view(getattr(owner, attr)))
            try:
                traced = run_calls(inputs.calls, NumericalError, np, probe,
                                   tracer)
            finally:
                for owner, attr in inputs.matrices:
                    setattr(owner, attr, getattr(owner, attr).view(np.ndarray))
        identical_ok = identical(plain, traced)
        records = plain + traced
        overhead = (sum(r.seconds for r in traced)
                    - sum(r.seconds for r in plain))
        prefixes = ([(workloads.SOLVER_PREFIX[s], True)
                     for s in workloads.SOLVERS]
                    + [(workloads.ALIGN_PREFIX[a], False)
                       for a in workloads.ALIGNERS])
        metrics = per_layer(traced, tracer, overhead, gen_s, prefixes)
        detail = {}
    else:
        names = (["solve_s." + s for s in workloads.SOLVERS]
                 + ["align_s." + a for a in workloads.ALIGNERS])
        metrics, detail = end_to_end(records, setups, names)

    failed = sum(not r.passed for r in records)
    correct = identical_ok and all(r.sound for r in records)
    env = environment(args.seed)
    for name, (value, unit) in metrics.items():
        print("%-44s %14.6g %-8s %s" % (name, value, unit,
                                         detail.get(name, "")))
    print("attempted=%d failed=%d fail_frac=%.4f identical=%s"
          % (len(records), failed, failed / len(records), identical_ok))
    for r in records:
        if r.error is not None and not r.sound:
            print("crash in %s:\n%s" % (r.call.metric, r.error))
    print("environment " + json.dumps(env, sort_keys=True))

    os.makedirs(OUT, exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    report = {
        "args": vars(args), "environment": env, "counts": counts,
        "setup_s": setups, "import_s": import_s, "gen_s": gen_s,
        "identical": identical_ok,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
        "calls": [{"metric": r.call.metric, "seconds": r.seconds,
                   "probe_s": r.probe,
                   "passed": r.passed, "error": r.error,
                   "iterations": r.outcome and r.outcome.iterations,
                   "converged": r.outcome and r.outcome.converged}
                  for r in records],
    }
    with open(os.path.join(OUT, stem + ".json"), "w",
              encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, default=str)
    if args.trace:
        tracer.write(os.path.join(OUT, stem + "-spans.txt.gz"))

    print(json.dumps({
        "correct": bool(correct), "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
