"""Problem and solver records shared by every algorithm module.

The objective all lambda-form solvers minimize is
    F(x) = 1/2 ||b - A x||_2^2 + lambda ||x||_1
and the equality-constrained solvers target min ||x||_1 subject to A x = b.
"""

import copy
import time
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from ell1.operators import as_operator, is_operator

TraceEntry = namedtuple("TraceEntry", "iteration objective residual_norm support_size")


class Event(namedtuple("Event",
                       "iteration objective residual_norm x weight state")):
    """What an observer receives with every trace entry of a solve.

    The first three fields equal those of the TraceEntry recorded with it.
    x is the iterate, weight the weight the objective is taken at (None
    for the equality form), and state a dict of the solver's own
    variables; the solver docstrings name its keys.
    """

    __slots__ = ()


StopRecord = namedtuple("StopRecord", "x objective kkt")
StopRecord.__new__.__defaults__ = (None,)

_RELATIVE_KINDS = ("relative-objective", "relative-estimate")
_STOP_KINDS = _RELATIVE_KINDS + ("ground-truth-distance", "kkt-residual")


@dataclass(frozen=True)
class StoppingRule:
    """Named termination criterion with its threshold."""

    kind: str
    threshold: float

    def __post_init__(self):
        if self.kind not in _STOP_KINDS:
            raise ValueError("unknown stopping rule %r (choose from %s)"
                             % (self.kind, ", ".join(_STOP_KINDS)))
        if not self.threshold > 0:
            raise ValueError("threshold must be positive")


@dataclass
class ProblemInstance:
    """Instance: dictionary A (d x n), observation b (d,).

    A is a matrix or a dictionary operator (operators.is_operator), which
    is kept as it is; a matrix is checked to be finite, and b always is.
    ground_truth and noise_sigma are optional bookkeeping for synthetic
    instances; solvers never read them.
    """

    A: np.ndarray
    b: np.ndarray
    ground_truth: np.ndarray = None
    noise_sigma: float = None

    def __post_init__(self):
        operator = is_operator(self.A)
        if not operator:
            self.A = np.ascontiguousarray(self.A, dtype=np.float64)
            if self.A.ndim != 2:
                raise ValueError("A must be a matrix, got shape %r"
                                 % (self.A.shape,))
        self.b = np.ascontiguousarray(self.b, dtype=np.float64)
        if self.b.ndim != 1 or self.b.shape[0] != self.A.shape[0]:
            raise ValueError("b must be a vector of length %d, got shape %r"
                             % (self.A.shape[0], self.b.shape))
        if not (np.all(np.isfinite(self.b))
                and (operator or np.all(np.isfinite(self.A)))):
            raise ValueError("A and b must be finite")
        if self.ground_truth is not None:
            self.ground_truth = np.ascontiguousarray(self.ground_truth,
                                                     dtype=np.float64)
            if self.ground_truth.shape != (self.A.shape[1],):
                raise ValueError("ground truth must have length n")

    @property
    def d(self):
        return self.A.shape[0]

    @property
    def n(self):
        return self.A.shape[1]


@dataclass
class SolverConfig:
    """Common solver knobs; every solver is solve(P, config, observer=None).

    lam is the penalized solvers' only source of their weight; lam=None
    means the default 1e-2 * ||A^T b||_inf resolved per instance, and the
    equality-form solvers ignore it. Every solver stops on its native
    criterion at `tol` (KKT residual for the lambda-form solvers,
    feasibility and gap for the equality form). A `stopping` rule is
    checked in addition, once per iteration, and a solve it ends reports
    converged=True. Its kkt slot holds the KKT residual at the target
    weight for the penalized solvers and ||b - A x|| / ||b|| for the
    equality-form ones; bench.SOLVERS gives each solver's form. The
    continuation solvers (gpsr, ist, fista) check the rule only once they
    have reached the target weight. Algorithm-specific constants are read
    from `options` and documented in the solver docstrings.
    """

    lam: float = None
    tol: float = 1e-6
    max_iter: int = 5000
    stopping: StoppingRule = None
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.lam is not None and not self.lam >= 0:
            raise ValueError("lambda must be nonnegative")
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if not self.max_iter >= 1:
            raise ValueError("max_iter must be at least 1")

    def resolved_lambda(self, Atb):
        return float(self.lam) if self.lam is not None else default_lambda(Atb)

    def opt(self, name, default):
        return self.options.get(name, default)


@dataclass
class SolverResult:
    """What every solver returns."""

    x_star: np.ndarray
    iterations: int
    wall_time_seconds: float
    converged: bool
    trace: list
    notes: tuple = ()

    def __post_init__(self):
        if self.iterations < 0 or self.wall_time_seconds < 0:
            raise ValueError("iterations and wall time must be nonnegative")
        if len(self.trace) > self.iterations + 1:
            raise ValueError("trace may hold at most one entry per iteration")


def default_lambda(Atb):
    """Default weight 1e-2 ||A^T b||_inf, from Atb = A^T b."""
    return 1e-2 * float(np.max(np.abs(Atb), initial=0.0))


def objective(x, problem, lam):
    """F(x) = 1/2 ||b - A x||^2 + lam ||x||_1."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (problem.n,):
        raise ValueError("x must have length n=%d, got shape %r"
                         % (problem.n, x.shape))
    if not lam >= 0:
        raise ValueError("lambda must be nonnegative")
    r = problem.b - as_operator(problem.A).apply(x)
    return 0.5 * float(r @ r) + lam * float(np.sum(np.abs(x)))


def kkt_residual(x, problem, lam):
    """Max violation of the first-order conditions of F at x.

    With c = A^T (b - A x): |c_i - lam sgn(x_i)| on the support,
    max(|c_i| - lam, 0) off it. Zero iff x minimizes F.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (problem.n,):
        raise ValueError("x must have length n=%d, got shape %r"
                         % (problem.n, x.shape))
    if not lam > 0:
        raise ValueError("lambda must be positive")
    D = as_operator(problem.A)
    c = D.adjoint(problem.b - D.apply(x))
    return kkt_from_correlation(x, c, lam)


def kkt_from_correlation(x, c, lam):
    """kkt_residual when the correlation c = A^T (b - A x) is already known.

    Iterative solvers compute c as part of their own gradient work; this
    avoids paying the matrix products twice. One elementwise pass: an
    entry on the support deviates by |c_i - lam sgn x_i|, one off it by
    |c_i| - lam, and the worst deviation is floored at 0. A NaN anywhere
    in x or c makes the result NaN, which fails every tolerance test.
    """
    x = np.asarray(x, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    dev = np.where(x != 0.0, np.abs(c - lam * np.sign(x)), np.abs(c) - lam)
    return float(dev.max(initial=0.0))


def check_stop(history, rule, ground_truth=None):
    """Evaluate a stopping rule on the latest iterate snapshot(s).

    history is a sequence of StopRecord(x, objective, kkt); relative rules
    need the last two records, the others only the last.
    """
    if not isinstance(rule, StoppingRule):
        raise ValueError("rule must be a StoppingRule")
    if len(history) == 0:
        raise ValueError("history is empty")
    last = history[-1]
    if rule.kind in _RELATIVE_KINDS:
        if len(history) < 2:
            raise ValueError("relative rules need at least two history entries")
        prev = history[-2]
        if rule.kind == "relative-objective":
            denom = abs(prev.objective)
            delta = abs(last.objective - prev.objective)
        else:
            denom = float(np.linalg.norm(prev.x))
            delta = float(np.linalg.norm(np.asarray(last.x) - np.asarray(prev.x)))
        return delta <= rule.threshold * denom
    if rule.kind == "ground-truth-distance":
        if ground_truth is None:
            raise ValueError("ground-truth-distance rule needs a ground truth")
        gt = np.asarray(ground_truth, dtype=np.float64)
        denom = float(np.linalg.norm(gt))
        if denom == 0.0:
            raise ValueError("ground truth must be nonzero")
        return float(np.linalg.norm(np.asarray(last.x) - gt)) <= rule.threshold * denom
    # kkt-residual
    if last.kkt is None:
        raise ValueError("kkt-residual rule needs records carrying kkt values")
    return last.kkt <= rule.threshold


def support_size(x, rel_tol=1e-10):
    """Number of entries meaningfully away from zero."""
    x = np.asarray(x)
    if x.size == 0:
        return 0
    mag = np.abs(x)
    cutoff = rel_tol * max(float(mag.max()), 1.0)
    return int(np.count_nonzero(mag > cutoff))


class Monitor:
    """Clock, trace, notes, observer and user stopping rule of one run.

    Built at the start of a solve; every solver records its trace through
    it, asks it whether config.stopping holds, and gets its SolverResult
    from it, including the single answer to an input whose optimum is
    x = 0. It is the only caller of the solve's observer.
    """

    def __init__(self, config, b, ground_truth=None, observer=None):
        self._t0 = time.perf_counter()
        self._rule = config.stopping
        self._b = b
        self._ground_truth = ground_truth
        self._observer = observer
        self._last = ()
        self.trace = []
        self.notes = []

    def record(self, it, objective, residual_norm, x, weight=None, **state):
        """Append the trace entry of iterate x and tell the observer.

        With an observer set, it is called with one Event carrying the
        entry's fields, x, weight and state. It gets copies of x and of
        every state value, so a solver passes its live arrays and nothing
        is copied when no observer is set.
        """
        self.trace.append(TraceEntry(it, objective, residual_norm,
                                     support_size(x)))
        if self._observer is not None:
            self._observer(Event(it, objective, residual_norm, x.copy(),
                                 weight, copy.deepcopy(state)))

    def rule_met(self, x, objective, kkt):
        """Whether config.stopping holds at iterate x.

        kkt is the value the kkt-residual rule compares, or a callable
        returning it. With no rule set this does nothing and returns
        False; otherwise the record joins the last one and check_stop
        decides (a relative rule needs two records).
        """
        rule = self._rule
        if rule is None:
            return False
        if callable(kkt):
            kkt = kkt()
        self._last = self._last[-1:] + (StopRecord(x.copy(), objective, kkt),)
        if rule.kind in _RELATIVE_KINDS and len(self._last) < 2:
            return False
        return check_stop(self._last, rule, ground_truth=self._ground_truth)

    def result(self, x, iterations, converged):
        """The run's SolverResult, timed from the monitor's creation."""
        return SolverResult(x, iterations, time.perf_counter() - self._t0,
                            converged, self.trace, notes=tuple(self.notes))

    def trivial(self, n, weight=None):
        """x = 0 after 0 iterations, for an input where zero is optimal.

        That is A^T b = 0 for the penalized form at any weight, whose
        trace entry carries F(0) = 1/2 ||b||^2, and b = 0 for the equality
        form (weight None), whose trace entry carries ||0||_1 = 0.
        """
        x = np.zeros(n)
        b_norm = float(np.linalg.norm(self._b))
        self.record(0, 0.0 if weight is None else 0.5 * b_norm ** 2, b_norm,
                    x, weight)
        return self.result(x, 0, True)
