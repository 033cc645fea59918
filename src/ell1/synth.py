"""Seeded generators for synthetic experiments.

Every generator is a pure function of its arguments including the seed.
Randomness comes from numpy's PCG64 via default_rng; sub-streams are
derived with SeedSequence so instances stay bit-reproducible.
"""

from dataclasses import dataclass

import numpy as np

from ell1.model import ProblemInstance

RNG_NAME = "numpy PCG64 (default_rng, SeedSequence sub-streams)"


@dataclass(frozen=True)
class GenSpec:
    """Recipe for one synthetic instance."""

    n: int
    d: int
    k: int
    seed: int
    noise_sigma: float = 0.0

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("d must be at least 1")
        if not 1 <= self.k <= self.n:
            raise ValueError("need 1 <= k <= n")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be nonnegative")


def _rng(seed, stream):
    # distinct deterministic sub-stream per purpose
    return np.random.default_rng(np.random.SeedSequence((int(seed), stream)))


def gen_gaussian_dict(d, n, seed):
    """Random Gaussian d x n matrix with unit-norm columns."""
    if d < 1 or n < 1:
        raise ValueError("d and n must be at least 1")
    A = _rng(seed, 0).standard_normal((d, n))
    return A / np.linalg.norm(A, axis=0)


def gen_sparse_signal(n, k, seed):
    """k-sparse vector: uniform random support, normal values, unit l2 norm."""
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    rng = _rng(seed, 1)
    support = rng.choice(n, size=k, replace=False)
    vals = rng.standard_normal(k)
    while np.any(vals == 0.0):
        vals[vals == 0.0] = rng.standard_normal(int(np.sum(vals == 0.0)))
    x = np.zeros(n)
    x[support] = vals / np.linalg.norm(vals)
    return x


def add_noise(b, sigma, seed):
    """b plus i.i.d. N(0, sigma^2) noise. sigma=0 returns a copy of b."""
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    b = np.asarray(b, dtype=np.float64)
    if sigma == 0.0:
        return b.copy()
    return b + sigma * _rng(seed, 2).standard_normal(b.shape[0])


def corrupt_entries(b, fraction, lo, hi, seed):
    """Replace floor(fraction*d) uniformly chosen entries by U[lo, hi] draws.

    Returns (corrupted vector, boolean mask of replaced entries).
    """
    if not 0 <= fraction <= 1:
        raise ValueError("fraction must lie in [0, 1]")
    if hi < lo:
        raise ValueError("need lo <= hi")
    b = np.asarray(b, dtype=np.float64)
    d = b.shape[0]
    m = int(np.floor(fraction * d))
    mask = np.zeros(d, dtype=bool)
    out = b.copy()
    if m:
        rng = _rng(seed, 3)
        idx = rng.choice(d, size=m, replace=False)
        mask[idx] = True
        out[idx] = rng.uniform(lo, hi, size=m)
    return out, mask


def gen_bouquet_dict(d, n, groups, coherence, seed):
    """Tightly clustered dictionary: a shared mean direction plus per-group
    offsets and small column-wise perturbations, unit-normalized.

    Returns (matrix, group_labels). Within-group correlation exceeds
    cross-group correlation; as coherence -> 1 all columns bunch around the
    shared mean, as coherence -> 0 statistics approach a Gaussian dictionary.
    """
    if not 0 < coherence < 1:
        raise ValueError("coherence must lie in (0, 1)")
    if not 1 <= groups <= n:
        raise ValueError("need 1 <= groups <= n")
    rng = _rng(seed, 4)
    mean_dir = rng.standard_normal(d)
    mean_dir /= np.linalg.norm(mean_dir)
    group_dirs = rng.standard_normal((groups, d))
    group_dirs /= np.linalg.norm(group_dirs, axis=1)[:, None]

    # near-equal contiguous blocks
    sizes = np.full(groups, n // groups)
    sizes[: n % groups] += 1
    labels = np.repeat(np.arange(groups), sizes)

    group_weight = 0.3  # fraction of the non-mean energy shared within a group
    resid = np.sqrt(1.0 - coherence ** 2)
    noise = rng.standard_normal((d, n))
    cols = (coherence * mean_dir[:, None]
            + resid * np.sqrt(group_weight) * group_dirs[labels].T
            + resid * np.sqrt(1.0 - group_weight) * noise / np.sqrt(d))
    cols /= np.linalg.norm(cols, axis=0)
    return cols, labels


def make_instance(spec):
    """Assemble a ProblemInstance from a GenSpec (noise applied if set)."""
    A = gen_gaussian_dict(spec.d, spec.n, spec.seed)
    x0 = gen_sparse_signal(spec.n, spec.k, spec.seed)
    b = A @ x0
    if spec.noise_sigma > 0:
        b = add_noise(b, spec.noise_sigma, spec.seed)
    return ProblemInstance(A, b, ground_truth=x0, noise_sigma=spec.noise_sigma)


def trial_seed(base_seed, *indices):
    """Stable 64-bit seed mixed from a base seed and grid indices."""
    ss = np.random.SeedSequence((int(base_seed),) + tuple(int(i) for i in indices))
    return int(ss.generate_state(1, np.uint64)[0])
