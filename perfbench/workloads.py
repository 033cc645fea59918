"""The benchmark's workloads: their inputs, the calls they time, and the
check each answer must pass.

Every input comes from the ``ell1.synth`` generators and the workload
seed, so the same seed gives the same inputs; the solvers receive only the
generated arrays. A workload is a seeded stream of instances. Each timed
metric takes the first N instances of the stream, with N chosen per metric
so that its median settles within one run: solvers whose iteration counts
vary widely between instances (dalm, gpsr on the bouquet dictionary) get
many samples, solvers that always run to their iteration budget get few.
Each metric's calls are spread evenly over the run, so slow drift of the
machine's speed reaches every metric alike.

Alignment problems ride along on every workload, so that every end-to-end
metric is measured on every workload.
"""

from dataclasses import dataclass

import numpy as np

from ell1 import bench, robust
from ell1.model import ProblemInstance, SolverConfig
from ell1.synth import (add_noise, corrupt_entries, gen_bouquet_dict,
                        gen_gaussian_dict, gen_sparse_signal, trial_seed)

SOLVERS = ("pdipa", "homotopy", "gpsr", "tnipm", "ist", "fista", "palm",
           "dalm")
ALIGNERS = ("gp", "homotopy", "ist", "palm")

# trace prefix of each solver: <module>.<solver>, or the module alone when
# the two names agree
SOLVER_PREFIX = {
    "pdipa": "pdipa", "homotopy": "homotopy",
    "gpsr": "gradient_projection.gpsr", "tnipm": "gradient_projection.tnipm",
    "ist": "shrinkage.ist", "fista": "shrinkage.fista",
    "palm": "alm.palm", "dalm": "alm.dalm",
}
ALIGN_PREFIX = {name: "robust.align_" + name for name in ALIGNERS}

# the sample counts below are for a run of this many seconds
REFERENCE_SECONDS = 30

# relative-error bound on noiseless recovery: the phase grid's success tol
CLEAN_TOL = 1e-3
# noisy recovery may miss x0 by this multiple of ||noise|| / ||x0||
NOISE_FACTOR = 3.0
# alignment coefficient error allowed, as in acceptance criterion 7
ALIGN_TOL = 1e-2

# alignment problems: tall Gaussian B with 20% gross errors
ALIGN_ROWS, ALIGN_COLS, ALIGN_BAD = 200, 12, 0.2
ALIGN_CONFIG = SolverConfig(tol=1e-8, max_iter=4000)
# the ist aligner gets criterion 7's larger budget; at 4000 it stops short
ALIGN_IST_CONFIG = SolverConfig(tol=1e-8, max_iter=40000)


@dataclass
class Outcome:
    """What one timed call returned, reduced to what the checks need."""

    arrays: tuple
    iterations: int = None
    converged: bool = None


@dataclass
class Call:
    """One timed call: metric name, trace prefix, thunk and answer check."""

    metric: str
    prefix: str
    run: object
    check: object


@dataclass
class Inputs:
    """Everything a workload generated in set-up.

    ``matrices`` lists (owner, attribute) pairs naming each dictionary a
    solver receives as a raw matrix, so a traced run can view them.
    """

    calls: list
    matrices: list


def aligned(a):
    """Copy of a at a cache-line (64-byte) aligned address.

    BLAS speed on a matrix moves by up to half with the address of its
    first element modulo 64, and numpy's allocator leaves that to chance,
    so without this every dictionary would carry its own random speed.
    """
    buf = np.empty(a.nbytes + 64, dtype=np.uint8)
    start = -buf.ctypes.data % 64
    out = buf[start:start + a.nbytes].view(a.dtype).reshape(a.shape)
    out[...] = a
    return out


def _result_outcome(res):
    return Outcome((res.x_star,), res.iterations, res.converged)


def _rel_err(x, ref):
    return float(np.linalg.norm(x - ref) / np.linalg.norm(ref))


def _align_stream(seed, count):
    """Tall alignment problems as acceptance criterion 7 builds them."""
    out = []
    bad = int(ALIGN_BAD * ALIGN_ROWS)
    for j in range(count):
        rng = np.random.default_rng(trial_seed(seed, 2, j))
        B = aligned(rng.standard_normal((ALIGN_ROWS, ALIGN_COLS)))
        w0 = rng.standard_normal(ALIGN_COLS)
        b = B @ w0
        rows = rng.choice(ALIGN_ROWS, size=bad, replace=False)
        b[rows] += 3.0 * rng.choice([-1.0, 1.0], size=bad) \
            * (1.0 + rng.random(bad))
        out.append((robust.AlignmentProblem(B, b, ground_truth_w=w0), w0))
    return out


def _align_calls(problems, counts, matrices):
    solve = {
        "gp": lambda p: robust.align_gp_solve(p, None, ALIGN_CONFIG),
        "homotopy": lambda p: robust.align_homotopy_solve(p, ALIGN_CONFIG),
        "ist": lambda p: robust.align_ist_solve(p, None, ALIGN_IST_CONFIG),
        "palm": lambda p: robust.align_palm_solve(p, ALIGN_CONFIG),
    }
    calls = []
    for j, (prob, w0) in enumerate(problems):
        matrices.append((prob, "B"))
        for name in ALIGNERS:
            if j >= counts["align_s." + name]:
                continue
            calls.append(Call(
                "align_s." + name, ALIGN_PREFIX[name],
                lambda p=prob, f=solve[name]: Outcome(f(p)),
                lambda out, w0=w0: _rel_err(out.arrays[0], w0) <= ALIGN_TOL))
    return calls


def _spread_in_time(calls):
    """Order calls so each metric's samples sit evenly over the run.

    The k-th of a metric's N calls goes to position (k + 1/2) / N, so a
    metric with three samples is timed near the start, middle and end of
    the run rather than all at the start: the machine's speed drifts over
    seconds, and a median over samples taken at one moment would carry
    that moment's speed.
    """
    seen = {}
    total = {}
    for c in calls:
        total[c.metric] = total.get(c.metric, 0) + 1
    keyed = []
    for i, c in enumerate(calls):
        k = seen.get(c.metric, 0)
        seen[c.metric] = k + 1
        keyed.append(((k + 0.5) / total[c.metric], i, c))
    return [c for _, _, c in sorted(keyed, key=lambda t: t[:2])]


def _inputs(seed, counts, per_instance, matrices):
    """Add the alignment calls and order everything for the run."""
    align = _align_calls(
        _align_stream(seed, max(counts["align_s." + a] for a in ALIGNERS)),
        counts, matrices)
    return Inputs(_spread_in_time(
        [c for group in per_instance for c in group] + align), matrices)


def _gaussian(n, d, k, sigma):
    """Instances built exactly as bench._noise_task builds them."""

    def make(seed, counts):
        solver_counts = [counts["solve_s." + s] for s in SOLVERS]
        per_instance = []
        matrices = []
        for i in range(max(solver_counts)):
            s = trial_seed(seed, 1, i)
            A = aligned(gen_gaussian_dict(d, n, s))
            x0 = np.sqrt(k) * gen_sparse_signal(n, k, s)
            b = add_noise(A @ x0, sigma, s)
            P = ProblemInstance(A, b, ground_truth=x0, noise_sigma=sigma)
            if sigma == 0.0:
                lam = 1e-4 * float(np.max(np.abs(A.T @ b)))
                bound = CLEAN_TOL
            else:
                lam = sigma
                bound = NOISE_FACTOR * sigma * np.sqrt(d) / np.linalg.norm(x0)
            cfg = SolverConfig(tol=1e-6, max_iter=5000, lam=lam)
            matrices.append((P, "A"))
            group = []
            for name, count in zip(SOLVERS, solver_counts):
                if i < count:
                    group.append(Call(
                        "solve_s." + name, SOLVER_PREFIX[name],
                        lambda P=P, cfg=cfg, name=name: _result_outcome(
                            bench.solve_named(name, P, cfg)),
                        lambda out, x0=x0, bound=bound:
                            _rel_err(out.arrays[0], x0) <= bound))
            per_instance.append(group)
        return _inputs(seed, counts, per_instance, matrices)

    return make


def _face(d, n, groups, coherence, level, dictionaries):
    """Bouquet dictionaries, each shared by a stream of corrupted queries.

    Queries are built as bench._corruption_task builds one: three atoms
    of one group, then ``level`` of the entries replaced by draws up to
    the peak clean amplitude; query q goes to dictionary q mod
    ``dictionaries``. More than one dictionary per run keeps one hard or
    easy dictionary draw from setting the whole run's times. tnipm is no
    cab_solve backend, so its query is the same corruption-extended
    system with [A, I] written out.
    """
    cfg = SolverConfig(tol=1e-8, max_iter=4000)
    backend = {name: name for name in SOLVERS}
    backend["gpsr"] = "gp"

    def make(seed, counts):
        books = []
        for j in range(dictionaries):
            A, labels = gen_bouquet_dict(d, n, groups, coherence,
                                         trial_seed(seed, 0, j))
            books.append((aligned(A), aligned(np.hstack([A, np.eye(d)])),
                          labels))
        solver_counts = [counts["solve_s." + s] for s in SOLVERS]
        per_instance = []
        matrices = []

        def identified(x, g, labels):
            energy = [np.linalg.norm(x[labels == gg]) for gg in range(groups)]
            return int(np.argmax(energy)) == g

        for q in range(max(solver_counts)):
            A, AI, labels = books[q % dictionaries]
            s = trial_seed(seed, 1, q)
            rng = np.random.default_rng(s)
            g = int(rng.integers(groups))
            members = np.flatnonzero(labels == g)
            active = rng.choice(members, size=min(3, members.size),
                                replace=False)
            x0 = np.zeros(n)
            x0[active] = (rng.uniform(0.5, 1.5, size=active.size)
                          * rng.choice([-1.0, 1.0], size=active.size))
            b = A @ x0
            scale = float(np.max(np.abs(b)))
            b_bad, _ = corrupt_entries(b, level, -scale, scale, s + 100000)
            P_ext = ProblemInstance(AI, b_bad)
            matrices.append((P_ext, "A"))
            group = []
            for name, count in zip(SOLVERS, solver_counts):
                if q >= count:
                    continue
                if name == "tnipm":
                    run = (lambda P=P_ext: _result_outcome(
                        bench.solve_named("tnipm", P, cfg)))
                else:
                    run = (lambda A=A, b=b_bad, be=backend[name]:
                           _cab(A, b, be, cfg))
                group.append(Call(
                    "solve_s." + name, SOLVER_PREFIX[name], run,
                    lambda out, g=g, labels=labels:
                        identified(out.arrays[0][:n], g, labels)))
            per_instance.append(group)
        return _inputs(seed, counts, per_instance, matrices)

    return make


def _cab(A, b, backend, cfg):
    x, e, res = robust.cab_solve(A, b, backend, cfg)
    return Outcome((x, e), res.iterations, res.converged)


@dataclass(frozen=True)
class Workload:
    """A named input stream with per-metric sample counts."""

    name: str
    why: str
    samples: dict
    make: object

    def counts(self, seconds, share=1.0):
        """Samples per metric for a run of ``seconds`` (share scales it)."""
        scale = share * seconds / REFERENCE_SECONDS
        return {m: max(1, int(round(c * scale)))
                for m, c in self.samples.items()}


def _samples(solve, align):
    out = {"solve_s." + s: c for s, c in zip(SOLVERS, solve)}
    out.update({"align_s." + a: c for a, c in zip(ALIGNERS, align)})
    return out


# sample counts per REFERENCE_SECONDS, in SOLVERS and ALIGNERS order
WORKLOADS = {w.name: w for w in (
    Workload(
        "gauss-clean",
        "noiseless recovery, fresh Gaussian A per instance: short homotopy "
        "path, first-order solvers cost products x iterations, no "
        "per-dictionary reuse, gpsr runs out of budget",
        _samples((30, 60, 8, 15, 40, 40, 50, 120), (20, 20, 10, 30)),
        _gaussian(n=500, d=200, k=20, sigma=0.0)),
    Workload(
        "gauss-noisy",
        "noisy recovery (sigma 0.01): long homotopy path of column gathers "
        "and factor updates, dalm runs its whole budget, tnipm lives in "
        "PCG, pdipa refactors",
        _samples((30, 30, 30, 15, 30, 40, 30, 7), (20, 20, 10, 30)),
        _gaussian(n=500, d=200, k=20, sigma=0.01)),
    Workload(
        "face-queries",
        "paper's use case: many corrupted queries against few bouquet "
        "dictionaries, so work that depends only on A repeats; the only "
        "workload using the [A, I] extended dictionary",
        _samples((30, 30, 24, 12, 30, 6, 35, 140), (20, 25, 10, 30)),
        _face(d=150, n=300, groups=15, coherence=0.6, level=0.2,
              dictionaries=16)),
)}
