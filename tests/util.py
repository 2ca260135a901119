"""Shared independent oracles for the test suite.

Everything here deliberately avoids the library's own evaluation paths:
complete positivity is probed by pushing random states through the
extended map, likelihoods come from the textbook forward recursion,
matrix exponentials from a plain power series, and dense word values
from one product per index chain.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from hqmmsym import BipartiteMap, CausalStructure, OperatorMap
from hqmmsym.aklt import _site_tensor


def brute_force_cp(m: OperatorMap, rng: np.random.Generator, trials: int = 200) -> float:
    """Smallest eigenvalue seen when pushing random states through id tensor map.

    Random pure states on ancilla tensor input (ancilla dimension equal to
    the input dimension) are mapped blockwise; a CP map keeps every output
    PSD, so a clearly negative return value certifies non-positivity.
    Pure inputs carry the most entanglement and witness the violation far
    more strongly than generic mixed ones.
    """
    d_in, d_out = m.dim_in, m.dim_out
    d_anc = d_in
    worst = np.inf
    for _ in range(trials):
        v = rng.standard_normal(d_anc * d_in) + 1j * rng.standard_normal(d_anc * d_in)
        w = np.outer(v, v.conj()) / float(np.vdot(v, v).real)
        out = np.zeros((d_anc * d_out, d_anc * d_out), dtype=complex)
        for a in range(d_anc):
            for b in range(d_anc):
                block = w[a * d_in : (a + 1) * d_in, b * d_in : (b + 1) * d_in]
                out[a * d_out : (a + 1) * d_out, b * d_out : (b + 1) * d_out] = m.apply_array(
                    block
                )
        worst = min(worst, float(np.linalg.eigvalsh((out + out.conj().T) / 2)[0]))
    return worst


def expm_series(a: np.ndarray, terms: int = 60) -> np.ndarray:
    """Matrix exponential by direct power series."""
    out = np.eye(a.shape[0], dtype=complex)
    term = np.eye(a.shape[0], dtype=complex)
    for k in range(1, terms):
        term = term @ a / k
        out = out + term
    return out


def forward_likelihood(
    initial: np.ndarray, transition: np.ndarray, emission: np.ndarray, symbols
) -> float:
    """Classical hidden-chain likelihood of a symbol sequence."""
    alpha = np.asarray(initial, dtype=float) * emission[:, symbols[0]]
    for y in symbols[1:]:
        alpha = (alpha @ transition) * emission[:, y]
    return float(alpha.sum())


def wigner_d1(beta: float) -> np.ndarray:
    """Spin-1 small-d matrix in the (+, 0, -) basis."""
    c, s = np.cos(beta), np.sin(beta)
    return np.array(
        [
            [(1 + c) / 2, -s / np.sqrt(2), (1 - c) / 2],
            [s / np.sqrt(2), c, -s / np.sqrt(2)],
            [(1 - c) / 2, s / np.sqrt(2), (1 + c) / 2],
        ]
    )


def random_unital_kraus(
    rng: np.random.Generator, dim_in: int, dim_out: int, count: int
) -> list[np.ndarray]:
    """Kraus family with sum_s K_s K_s+ = identity on the output space."""
    raw = [
        rng.standard_normal((dim_out, dim_in)) + 1j * rng.standard_normal((dim_out, dim_in))
        for _ in range(count)
    ]
    s = sum(k @ k.conj().T for k in raw)
    w, v = np.linalg.eigh(s)
    inv_sqrt = (v / np.sqrt(w)) @ v.conj().T
    return [inv_sqrt @ k for k in raw]


def random_unital_bipartite(
    rng: np.random.Generator, dim_in1: int, dim_in2: int, dim_out: int, count: int = 4
) -> BipartiteMap:
    kraus = random_unital_kraus(rng, dim_in1 * dim_in2, dim_out, count)
    return BipartiteMap.build_from_kraus(dim_in1, dim_in2, dim_out, kraus)


def partial_trace_second(w: np.ndarray, d1: int, d2: int) -> np.ndarray:
    """Trace out the second tensor factor by explicit index loops."""
    out = np.zeros((d1, d1), dtype=complex)
    for a in range(d1):
        for b in range(d1):
            for j in range(d2):
                out[a, b] += w[a * d2 + j, b * d2 + j]
    return out


def random_stochastic(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    m = rng.uniform(0.1, 1.0, size=(rows, cols))
    return m / m.sum(axis=1, keepdims=True)


def assert_cpu(defects: dict, tol: float = 1e-10) -> None:
    """Each term of a certify_cpu dict is within tol (nan is not)."""
    assert all(value <= tol for value in defects.values()), defects


def dense_chain_value(triple, structure, word) -> complex:
    """aklt.dense_word_value with one full product per index chain.

    The site tensors are the referee's own; every chain is walked from its
    first entry, off-diagonal endings are skipped, and the terms are added
    in lexicographic order of the chains.  Sharing chain prefixes must give
    the same bits.
    """
    structure = CausalStructure.parse(structure)
    n = len(word)
    h, o = triple.hidden_dim, triple.obs_dim
    c_h = triple.transition.coeff.tolist()
    c_ho = triple.emission.coeff.tolist()
    sites = [
        _site_tensor(structure, c_h, c_ho, x, y, h, o)
        for x, y in zip(word.xs.tolist(), word.ys.tolist())
    ]
    rho0 = triple.phi0.tolist()
    first = [rho0[q][p] for p in range(h) for q in range(h)]
    diagonal = {p * h + p for p in range(h)}
    total = 0.0 + 0.0j
    for chain in product(range(h * h), repeat=n + 1):
        if chain[n] not in diagonal:
            continue
        term = first[chain[0]]
        for k in range(n):
            term = term * sites[k][chain[k]][chain[k + 1]]
        total += term
    return complex(total)
