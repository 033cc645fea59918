"""Error types shared across the solver modules."""


class NumericalError(RuntimeError):
    """Base class for numerical failures inside a solver."""


class NotPositiveDefiniteError(NumericalError):
    """A Cholesky factorization or downdate lost positive definiteness."""


class NumericalBreakdownError(NumericalError):
    """An iteration produced non-finite values or a dead search direction."""


class IllConditionedError(NumericalError):
    """A linear system was too ill-conditioned to solve reliably."""
