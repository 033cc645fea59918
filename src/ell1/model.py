"""Problem and solver records shared by every algorithm module.

The objective all lambda-form solvers minimize is
    F(x) = 1/2 ||b - A x||_2^2 + lambda ||x||_1
and the equality-constrained solvers target min ||x||_1 subject to A x = b.
"""

import copy
import math
import time
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from ell1.operators import as_operator, is_operator

class Event(namedtuple("Event",
                       "iteration objective residual_norm x weight state")):
    """What an observer receives for every recorded iterate of a solve.

    iteration is the step count, objective the solver's objective at x
    and residual_norm ||b - A x||. x is the iterate, weight the weight
    the objective is taken at (None for the equality form), and state a
    dict of the solver's own variables; the solver docstrings name its
    keys. support_size(e.x) gives the iterate's support count.
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


# fista's exact_L, cab_solve's e_weight
OPTIONS = frozenset({"exact_L", "e_weight"})


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
    have reached the target weight. `options` holds the algorithm-specific
    knobs named in OPTIONS, documented in the solver docstrings; any other
    key raises ValueError.
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
        unknown = set(self.options) - OPTIONS
        if unknown:
            raise ValueError("unknown solver options: %s"
                             % ", ".join(sorted(map(repr, unknown))))

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
    notes: tuple = ()

    def __post_init__(self):
        if self.iterations < 0 or self.wall_time_seconds < 0:
            raise ValueError("iterations and wall time must be nonnegative")


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
    avoids paying the matrix products twice. An entry on the support
    deviates by |c_i - lam sgn x_i|, one off it by |c_i| - lam, and the
    worst deviation is floored at 0. Off the support lam sgn x_i is a zero
    and c_i minus it is exact, so both cases are |c - lam sgn x| minus
    lam where sgn x_i = 0 (and minus an exact 0.0 elsewhere), with no
    select between two full arrays. A NaN anywhere in x or c makes the
    result NaN, which fails every tolerance test.
    """
    x = np.asarray(x, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    s = np.sign(x)
    dev = np.abs(c - lam * s)
    dev -= lam * (s == 0.0)
    return float(dev.max(initial=0.0))


def _kkt_screened(x, g, lam, tol):
    """kkt_from_correlation(x, -g, lam), or a lower bound on it above tol.

    g = A^T (A x - b) is the gradient, so -g is the correlation. Every
    entry deviates by at least |g_i| - lam, and in floating point too
    (rounding is monotone), so max|g| - lam > tol settles that the
    residual exceeds tol at the cost of two reductions over g and one
    over x; only when it does not is the full residual computed. Compared
    with tol by > or <=, the result decides as the full residual does.
    The reductions propagate NaN: a NaN in g makes the bound NaN, which
    fails the test, and a NaN in x sends the test to the full residual,
    so either gives NaN as kkt_from_correlation does.
    """
    bound = max(float(np.maximum.reduce(g, None, initial=0.0)),
                -float(np.minimum.reduce(g, None, initial=0.0))) - lam
    if bound > tol and not math.isnan(
            float(np.maximum.reduce(x, None, initial=0.0))):
        return bound
    return kkt_from_correlation(x, -g, lam)


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
    """Number of entries above rel_tol of the largest magnitude, so the
    count does not change when x is rescaled."""
    x = np.asarray(x)
    if x.size == 0:
        return 0
    mag = np.abs(x)
    return int(np.count_nonzero(mag > rel_tol * float(mag.max())))


class Monitor:
    """Clock, notes, observer and user stopping rule of one run.

    Built at the start of a solve; every solver records its iterates
    through it, asks it whether config.stopping holds, and gets its
    SolverResult from it, including the single answer to an input whose
    optimum is x = 0. It is the only caller of the solve's observer.
    A run is watched when an observer or a stopping rule is set, for a
    rule reads the objective and iterate too; an unwatched solver skips
    the values only record and rule_met would read.
    """

    def __init__(self, config, b, ground_truth=None, observer=None):
        self._t0 = time.perf_counter()
        self._rule = config.stopping
        self._b = b
        self._ground_truth = ground_truth
        self._observer = observer
        self._last = ()
        self.notes = []

    @property
    def watched(self):
        """Whether an observer or a stopping rule is set: the only
        readers of what a solver hands record and rule_met."""
        return self._observer is not None or self._rule is not None

    def record(self, it, objective, residual_norm, x, weight=None, **state):
        """Tell the observer, if one is set, about iterate x.

        It is called with one Event carrying it, objective, residual_norm,
        x, weight and state. It gets copies of x and of every state value,
        so a solver passes its live arrays; with no observer set nothing
        is built or copied.
        """
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
                            converged, notes=tuple(self.notes))

    def trivial(self, n, weight=None):
        """x = 0 after 0 iterations, for an input where zero is optimal.

        That is ||A^T b||_inf <= weight for the penalized form, whose one
        event carries F(0) = 1/2 ||b||^2, and b = 0 for the equality form
        (weight None), whose one event carries ||0||_1 = 0.
        """
        x = np.zeros(n)
        b_norm = float(np.linalg.norm(self._b))
        self.record(0, 0.0 if weight is None else 0.5 * b_norm ** 2, b_norm,
                    x, weight)
        return self.result(x, 0, True)
