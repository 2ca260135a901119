"""Seeded random inputs for checks and property tests.

Every public sampler takes an explicit integer seed or an existing Generator,
so identical configurations reproduce identical streams.
"""

from __future__ import annotations

import numpy as np

from .opalg import operator_norm


def rng_from(seed: int | np.random.Generator) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def random_operator(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Complex Gaussian matrix rescaled to unit operator norm.

    The norm is opalg.operator_norm (a scaled Gram eigenvalue, nan for a
    non-finite matrix, exactly 0 for a zero matrix), the one that
    hqmm.random_words divides its stacked draws by, so both give the same
    matrices bit for bit.
    """
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return g / operator_norm(g)
