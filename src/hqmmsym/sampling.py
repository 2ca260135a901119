"""Seeded generators and a random matrix sampler.

rng_from gives the generator of an integer seed, so identical seeds
reproduce identical streams.  A verify run draws from it once, in
cli.run, and decodes every row's inputs from that one buffer
(grouprep.haar_quaternions, hqmm.unit_sites); no check draws.
random_operator draws one matrix from a given generator, for tests.
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
    non-finite matrix, exactly 0 for a zero matrix; in closed form for
    dim 2 and 3, with eigvalsh near a degenerate top pair of a 3 x 3, and
    from eigvalsh for larger dim), the one that hqmm.unit_sites divides
    its stacked sites by.  No norm depends on the rest of its stack, so
    both give the same matrices bit for bit.
    """
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return g / operator_norm(g)
