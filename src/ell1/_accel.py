"""The four inner kernels that numerics builds on, in numpy.

soft_threshold and project_box_linf work on float64 arrays of any shape
and return new arrays, or write into out when given one (soft_threshold
then leaves sgn(u) in u); chol_update and chol_downdate modify an upper
Cholesky factor in place. numerics, and the accelerated and ist steps
of shrinkage on their own buffers, call them as ``_accel.<name>``, so a
caller that replaces a kernel here (a profiler, say) sees every call.
"""

import numpy as np


def soft_threshold(u, a, out=None):
    if out is None:
        return np.sign(u) * np.maximum(np.abs(u) - a, 0.0)
    # the same operations with no temporary: u is left holding sgn(u)
    np.maximum(np.subtract(np.abs(u, out=out), a, out=out), 0.0, out=out)
    return np.multiply(np.sign(u, out=u), out, out=out)


def project_box_linf(z, out=None):
    # np.clip's result for NaN, +-0 and +-inf, at a third of its call cost
    return np.minimum(np.maximum(z, -1.0, out=out), 1.0, out=out)


def chol_update(R, v):
    """In-place rank-1 update of an upper factor: R'^T R' = R^T R + v v^T.

    Consumes v. Returns 0 (matches the status convention of chol_downdate).
    """
    n = R.shape[0]
    for k in range(n):
        rkk = R[k, k]
        r = np.hypot(rkk, v[k])
        c = r / rkk
        s = v[k] / rkk
        R[k, k] = r
        if k + 1 < n:
            row = (R[k, k + 1:] + s * v[k + 1:]) / c
            R[k, k + 1:] = row
            v[k + 1:] = c * v[k + 1:] - s * row
    return 0


def chol_downdate(R, v):
    """In-place rank-1 downdate: R'^T R' = R^T R - v v^T. Consumes v.

    Returns 0 on success, k+1 when definiteness is lost at pivot k; on
    failure R is partially modified and must be discarded by the caller.
    """
    n = R.shape[0]
    for k in range(n):
        rkk = R[k, k]
        d2 = (rkk - v[k]) * (rkk + v[k])
        if d2 <= 0.0:
            return k + 1
        r = np.sqrt(d2)
        c = r / rkk
        s = v[k] / rkk
        R[k, k] = r
        if k + 1 < n:
            row = (R[k, k + 1:] - s * v[k + 1:]) / c
            R[k, k + 1:] = row
            v[k + 1:] = c * v[k + 1:] - s * row
    return 0
