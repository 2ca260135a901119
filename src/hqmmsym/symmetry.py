"""Symmetry checks for generative triples under a rotation action.

A symmetry action carries a projective unitary rep pi on the hidden space
and a linear rep rho on the observable space.  Each local check takes a
stack of rotations q[N, 4] (and test operators where needed) and returns
the N per-sample deviations of its defining identity; the global check
draws its rotations and words per volume from a seed.  The verdict
against a tolerance is made by check_result, in the cli.CHECKS table.
Map-level identities are compared through the operator norm of the
difference of Choi matrices, so a small deviation bounds the defect on
every input.
Each check evaluates all of its samples as one batch: stacked unitaries,
closed-form coefficient contractions and one stacked opalg.operator_norms,
a scaled Gram eigenvalue per matrix (nan for a non-finite matrix, exactly 0
for a zero matrix): in closed form for the 2 x 2 and 3 x 3 defects, with
eigvalsh for a 3 x 3 whose top two eigenvalues nearly coincide, and by
one stacked eigvalsh for the larger Choi matrices.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .grouprep import ProjectiveRep, haar_rotations
# finite_volume_state and operator_norm are unused here but stay bound:
# bench/tests checks that the tracer in bench/tracing.py wraps and restores
# this module's bindings of both.
from .hqmm import (  # noqa: F401
    GenerativeTriple,
    finite_volume_state,
    finite_volume_states,
    random_words,
    sliced_coefficients,
)
from .opalg import (  # noqa: F401
    BipartiteMap,
    OperatorMap,
    batched_kron,
    choi_matrices,
    operator_norm,
    operator_norms,
    worst_deviation,
)
from .sampling import rng_from


@dataclass(frozen=True)
class SymmetryAction:
    """Hidden-space projective rep paired with an observable-space linear rep."""

    pi: ProjectiveRep
    rho: ProjectiveRep


@dataclass(frozen=True)
class CheckResult:
    """Verdict on one checked condition, as check_result makes it."""

    condition: str
    samples: int
    seed: int
    max_deviation: float
    tolerance: float
    passed: bool

    def to_json_dict(self) -> dict:
        """JSON fields; a non-finite max_deviation is written as null, as JSON has no NaN."""
        out = asdict(self)
        out["pass"] = out.pop("passed")
        if not np.isfinite(out["max_deviation"]):
            out["max_deviation"] = None
        return out


def check_result(condition: str, samples: int, seed: int, deviations, tolerance) -> CheckResult:
    """The verdict on a condition: its worst per-sample deviation against the tolerance.

    The rows of cli.CHECKS are the only callers; the check functions here
    return deviations and make no verdict.
    """
    worst = worst_deviation(deviations)
    return CheckResult(condition, samples, seed, worst, tolerance, worst <= tolerance)


def _conjugate(u: np.ndarray, a: np.ndarray) -> np.ndarray:
    """u a u+ over stacked (broadcast) leading axes."""
    return u @ a @ np.conj(np.swapaxes(u, -1, -2))


def _conjugation_defects(m: OperatorMap, v_in: np.ndarray, u_out: np.ndarray) -> np.ndarray:
    """Choi distances between E(V . V+) and U E(.) U+ for stacks V[k], U[k].

    In closed form, E(V e_ij V+)[p, q] = (V^T C_pq conj V)[i, j] with
    C_pq[i, j] = coeff[p, q, i, j], and (U E(e_ij) U+)[p, q] is entry
    [(p, q), (i, j)] of (U kron conj U) @ coeff.reshape(d_out^2, d_in^2),
    one matmul for all (i, j).  The input side does not form V kron conj V.
    """
    c = m.coeff
    d_out, _, d_in, _ = c.shape
    left = np.swapaxes(v_in, -1, -2)[:, None, None] @ c @ v_in.conj()[:, None, None]
    right = batched_kron(u_out, u_out.conj()) @ c.reshape(d_out * d_out, d_in * d_in)
    return operator_norms(choi_matrices(left - right.reshape(-1, d_out, d_out, d_in, d_in)))


def check_initial_invariance(phi0: np.ndarray, action: SymmetryAction, q: np.ndarray) -> np.ndarray:
    """Per-rotation norm of pi(g) phi0 pi(g)+ - phi0, for the rotations q[k]."""
    u = action.pi.stack(q)
    return operator_norms(_conjugate(u, phi0) - phi0)


def check_transition_equivariance(
    transition: BipartiteMap, action: SymmetryAction, q: np.ndarray
) -> np.ndarray:
    """Per-rotation Choi defect of E_H intertwining pi tensor pi with pi."""
    u = action.pi.stack(q)
    return _conjugation_defects(transition, batched_kron(u, u), u)


def check_emission_covariance(
    emission: BipartiteMap, action: SymmetryAction, q: np.ndarray
) -> np.ndarray:
    """Per-rotation Choi defect of E_HO intertwining pi tensor rho with pi."""
    u = action.pi.stack(q)
    return _conjugation_defects(emission, batched_kron(u, action.rho.stack(q)), u)


def check_sliced_covariance(
    triple: GenerativeTriple,
    structure,
    action: SymmetryAction,
    q: np.ndarray,
    xs: np.ndarray,
    ys: np.ndarray,
) -> np.ndarray:
    """Per-sample Choi defect of the sliced one-site map under rotated site observables.

    Sample k rotates the site (xs[k], ys[k]) by q[k]; the map must be
    conjugated by pi(q[k]).
    """
    h = triple.hidden_dim
    u = action.pi.stack(q)
    v = action.rho.stack(q)
    rotated = sliced_coefficients(triple, structure, _conjugate(u, xs), _conjugate(v, ys))
    plain = sliced_coefficients(triple, structure, xs, ys)
    # Z -> U S(U+ Z U) U+ has coefficient matrix K S K+ with K = U kron conj U
    conjugated = _conjugate(batched_kron(u, u.conj()), plain)
    return operator_norms(choi_matrices((rotated - conjugated).reshape(-1, h, h, h, h)))


def check_global_invariance(
    triple: GenerativeTriple,
    structure,
    action: SymmetryAction,
    n_max: int,
    samples: int,
    seed: int,
) -> list[np.ndarray]:
    """Per-sample deviation of every finite-volume value under sitewise rotation.

    Entry n holds volume n: sites 0..n, so words of n+1 sites.  Each sample
    draws a fresh group element and a fresh random word from the seed.
    Each volume folds its words and their rotations as one batch.
    """
    rng = rng_from(seed)
    by_volume = []
    for n in range(n_max + 1):
        q = haar_rotations(rng, samples)
        u = action.pi.stack(q)
        v = action.rho.stack(q)
        xs, ys = random_words(rng, triple, samples, n + 1)
        values = finite_volume_states(
            triple,
            structure,
            np.concatenate([xs, _conjugate(u[:, None], xs)]),
            np.concatenate([ys, _conjugate(v[:, None], ys)]),
        )
        by_volume.append(np.abs(values[samples:] - values[:samples]))
    return by_volume

