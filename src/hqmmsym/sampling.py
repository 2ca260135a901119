"""Seeded random inputs for checks and property tests.

Every public sampler takes an explicit integer seed or an existing Generator,
so identical configurations reproduce identical streams.
"""

from __future__ import annotations

import numpy as np


def rng_from(seed: int | np.random.Generator) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def random_operator(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Complex Gaussian matrix rescaled to unit operator norm."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return g / np.linalg.norm(g, ord=2)


def random_psd(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    p = g @ g.conj().T
    return p / np.linalg.norm(p, ord=2)


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    p = random_psd(rng, dim)
    return p / np.trace(p).real
