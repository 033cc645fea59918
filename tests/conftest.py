"""Shared test helpers."""

import numpy as np
import pytest


def _counting_view(A):
    """View of A that counts the matrix products taken with it."""
    count = [0]

    class Counting(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            if ufunc is np.matmul and method == "__call__":
                count[0] += 1
            plain = tuple(v.view(np.ndarray) if isinstance(v, Counting)
                          else v for v in inputs)
            return getattr(ufunc, method)(*plain, **kwargs)

    return A.view(Counting), count


@pytest.fixture
def counting_view():
    """counting_view(A) -> (view of A, [number of products taken with it])."""
    return _counting_view
