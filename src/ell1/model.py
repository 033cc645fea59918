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


_STOP_KINDS = ("relative-objective", "relative-estimate",
               "ground-truth-distance", "kkt-residual")


@dataclass(frozen=True)
class StoppingRule:
    """Named termination criterion with its threshold."""

    kind: str
    threshold: float

    def __post_init__(self):
        if self.kind not in _STOP_KINDS:
            raise ValueError("unknown stopping rule %r (choose from %s)"
                             % (self.kind, ", ".join(_STOP_KINDS)))
        if not 0 < self.threshold < math.inf:
            raise ValueError("threshold must be finite and positive")


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
    knobs named in OPTIONS, documented in the solver docstrings.
    Construction raises ValueError unless lam is None or finite and >= 0,
    tol is finite and > 0, max_iter is an integer >= 1 (Python or numpy,
    not a float or bool), stopping is None or a StoppingRule, every option
    is named in OPTIONS, e_weight is finite and > 0 and exact_L is a bool.
    """

    lam: float = None
    tol: float = 1e-6
    max_iter: int = 5000
    stopping: StoppingRule = None
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.lam is not None and not 0 <= self.lam < math.inf:
            raise ValueError("lambda must be finite and nonnegative")
        if not 0 < self.tol < math.inf:
            raise ValueError("tol must be finite and positive")
        if (not isinstance(self.max_iter, (int, np.integer))
                or isinstance(self.max_iter, bool) or self.max_iter < 1):
            raise ValueError("max_iter must be an integer of at least 1")
        if not isinstance(self.stopping, (type(None), StoppingRule)):
            raise ValueError("stopping must be a StoppingRule, got %r"
                             % (self.stopping,))
        unknown = set(self.options) - OPTIONS
        if unknown:
            raise ValueError("unknown solver options: %s"
                             % ", ".join(sorted(map(repr, unknown))))
        if not 0 < self.opt("e_weight", 1.0) < math.inf:
            raise ValueError("option e_weight must be finite and positive")
        if not isinstance(self.opt("exact_L", False), (bool, np.bool_)):
            raise ValueError("option exact_L must be a bool")

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
    optimum is x = 0. It alone calls the observer and judges the rule,
    and it raises ValueError when built for a ground-truth-distance rule
    without a finite, nonzero ground truth. A run is watched when an
    observer or a stopping rule is set, for a rule reads the objective
    and iterate too; an unwatched solver skips the values only record and
    rule_met would read.
    """

    def __init__(self, config, b, ground_truth=None, observer=None):
        self._t0 = time.perf_counter()
        self._rule = rule = config.stopping
        self._b = b
        self._observer = observer
        self._last = None
        self.notes = []
        if rule is not None and rule.kind == "ground-truth-distance":
            self._ground_truth = np.asarray(
                () if ground_truth is None else ground_truth, np.float64)
            gt_norm = float(np.linalg.norm(self._ground_truth))
            if not 0 < gt_norm < math.inf:
                raise ValueError("a ground-truth-distance rule needs a "
                                 "finite, nonzero ground truth")
            self._gt_bound = rule.threshold * gt_norm

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
        returning it, called only under that rule. A relative rule compares
        with the previous call, so its first call returns False. With no
        rule set this does nothing and returns False.
        """
        rule = self._rule
        if rule is None:
            return False
        if rule.kind == "kkt-residual":
            return (kkt() if callable(kkt) else kkt) <= rule.threshold
        if rule.kind == "ground-truth-distance":
            return (float(np.linalg.norm(x - self._ground_truth))
                    <= self._gt_bound)
        prev, self._last = self._last, (x.copy(), objective)
        if prev is None:
            return False
        if rule.kind == "relative-objective":
            return abs(objective - prev[1]) <= rule.threshold * abs(prev[1])
        return (float(np.linalg.norm(x - prev[0]))
                <= rule.threshold * float(np.linalg.norm(prev[0])))

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
