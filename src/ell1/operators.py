"""Dictionary operators.

Every solver calls as_operator(P.A) once and then touches the dictionary
only through the operator protocol: apply (D w), adjoint (D^T r),
norm_sq, gram_dd, weighted_gram_dd, column_norms_sq and column (a copy of
one column, which the path solver fetches once per entering column).
DenseDictionary implements it for a matrix, robust.ExtendedDictionary for
the implicit [A, I]. Both also keep the gathers apply_columns, columns_dot
and gram_column, which no solver calls.
"""

import numpy as np

from ell1 import numerics


def is_operator(A):
    """Whether A already implements the operator protocol."""
    return hasattr(A, "adjoint")


def as_operator(A):
    """A itself when it is an operator, else A wrapped in DenseDictionary."""
    return A if is_operator(A) else DenseDictionary(A)


class DenseDictionary:
    """Explicit dense dictionary D of shape (d, N)."""

    def __init__(self, A):
        # keeps an ndarray subclass, so a counting view sees the products
        self.A = np.require(A, np.float64, "C")
        if self.A.ndim != 2:
            raise ValueError("dictionary must be a matrix")

    @property
    def shape(self):
        return self.A.shape

    def apply(self, w):
        return self.A @ w

    def adjoint(self, r):
        return self.A.T @ r

    def column(self, j):
        return self.A[:, j].copy()

    def apply_columns(self, idx, coeffs):
        return self.A[:, idx] @ coeffs

    def columns_dot(self, idx, v):
        return self.A[:, idx].T @ v

    def gram_column(self, idx, j):
        return self.A[:, idx].T @ self.A[:, j]

    def column_norms_sq(self):
        return np.sum(self.A * self.A, axis=0)

    def norm_sq(self):
        """Largest eigenvalue of D^T D, exact to roundoff (one Gram
        product and one LAPACK eigenvalue)."""
        return numerics.spectral_norm_sq(self.A)

    def weighted_gram_dd(self, w):
        """D diag(w) D^T as a dense (d, d) matrix, for w >= 0: one
        symmetric rank-N product B B^T with B = D diag(sqrt(w)), which
        BLAS takes as a syrk at half a general product's flops. The
        result is exactly symmetric."""
        # B keeps A's ndarray subclass, so a counting view sees the product
        B = (self.A * np.sqrt(w)).view(type(self.A))
        return B @ B.T

    def gram_dd(self):
        return self.A @ self.A.T
