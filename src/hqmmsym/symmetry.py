"""Symmetry checks for generative triples under a rotation action.

A symmetry action carries a projective unitary rep pi on the hidden space
and a linear rep rho on the observable space.  Each local check takes a
stack of rotations q[N, 4] (and test operators where needed) and returns
the N per-sample deviations of its defining identity; the global check
draws its rotations and words from a seed, volume by volume, and then
evaluates all volumes as one batch, with the bits of a batch per volume.
The verdict against a tolerance is made by check_result, in the cli.CHECKS
table.
A local check also takes its rotations as a RotationBatch, which builds
the stacks pi(q) and rho(q) once for every check it is passed to: a
verify run draws one batch and hands it to each of its map-level rows.
Map-level identities are compared through the operator norm of the
difference of Choi matrices, so a small deviation bounds the defect on
every input.  A map E is covariant when E(V . V+) = U E(.) U+; the Choi
matrix C of E is formed once, and sample k's defect is
||W C W+ - C|| with W = V^T kron U+, the Choi defect conjugated by the
unitary 1 kron U+, which leaves the norm as it is.
Each check evaluates all of its samples as one batch: stacked unitaries,
closed-form coefficient contractions, conjugations through opalg.conjugate
(site observables and 2 x 2 to 4 x 4 unitaries entry by entry over the
stack, the Choi matrix with one GEMM for W C) and one stacked
opalg.operator_norms,
a scaled Gram eigenvalue per matrix (nan for a non-finite matrix, exactly 0
for a zero matrix): in closed form for the 2 x 2 and 3 x 3 defects, with
eigvalsh for a 3 x 3 whose top two eigenvalues nearly coincide, and by
one stacked eigvalsh for the larger Choi matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grouprep import ProjectiveRep, rotations_from_gaussians
# finite_volume_state and operator_norm are unused here but stay bound:
# bench/tests checks that the tracer in bench/tracing.py wraps and restores
# this module's bindings of both.
from .hqmm import (  # noqa: F401
    GenerativeTriple,
    finite_volume_state,
    fold_words,
    site_gaussians,
    sliced_coefficients,
    unit_sites,
)
from .opalg import (  # noqa: F401
    BipartiteMap,
    OperatorMap,
    batched_kron,
    choi_matrices,
    conjugate,
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
        deviation = self.max_deviation
        return {
            "condition": self.condition,
            "samples": self.samples,
            "seed": self.seed,
            "max_deviation": deviation if math.isfinite(deviation) else None,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


def check_result(condition: str, samples: int, seed: int, deviations, tolerance) -> CheckResult:
    """The verdict on a condition: its worst per-sample deviation against the tolerance.

    The rows of cli.CHECKS are the only callers; the check functions here
    return deviations and make no verdict.
    """
    worst = worst_deviation(deviations)
    return CheckResult(condition, samples, seed, worst, tolerance, worst <= tolerance)


def _conjugation_defects(m: OperatorMap, v_in: np.ndarray, u_out: np.ndarray) -> np.ndarray:
    """Choi distances between E(V . V+) and U E(.) U+ for stacks V[k] and unitary U[k].

    With C the Choi matrix of E, the Choi matrix of E(V . V+) is
    (V^T kron 1) C (conj V kron 1) and that of U E(.) U+ is
    (1 kron U) C (1 kron U+).  Conjugating their difference by the
    unitary 1 kron U+ keeps its norm, so the defect is ||W C W+ - C||
    with W = V^T kron U+: one C for every sample, and opalg.conjugate
    forms W C for all samples as one GEMM.
    """
    c = choi_matrices(m.coeff)
    w = batched_kron(np.swapaxes(v_in, -1, -2), np.conj(np.swapaxes(u_out, -1, -2)))
    return operator_norms(conjugate(w, c) - c)


class RotationBatch:
    """Rotations q[N, 4] with their stacks pi(q) and rho(q) under one action.

    Each stack is built on first use and kept, so every check handed the
    batch shares one stack per rep; the batch holds nothing else.
    """

    def __init__(self, action: SymmetryAction, q: np.ndarray):
        self.action = action
        self.q = q

    @cached_property
    def pi(self) -> np.ndarray:
        return self.action.pi.stack(self.q)

    @cached_property
    def rho(self) -> np.ndarray:
        return self.action.rho.stack(self.q)


def rotation_batch(action: SymmetryAction, q: np.ndarray | RotationBatch) -> RotationBatch:
    """q as a RotationBatch under action; a RotationBatch must be one for action."""
    if not isinstance(q, RotationBatch):
        return RotationBatch(action, q)
    if q.action is not action:
        raise ValueError("the RotationBatch was built for another action")
    return q


def check_initial_invariance(
    phi0: np.ndarray, action: SymmetryAction, q: np.ndarray | RotationBatch
) -> np.ndarray:
    """Per-rotation norm of pi(g) phi0 pi(g)+ - phi0, for the rotations q[k]."""
    u = rotation_batch(action, q).pi
    return operator_norms(conjugate(u, phi0) - phi0)


def check_transition_equivariance(
    transition: BipartiteMap, action: SymmetryAction, q: np.ndarray | RotationBatch
) -> np.ndarray:
    """Per-rotation Choi defect of E_H intertwining pi tensor pi with pi."""
    u = rotation_batch(action, q).pi
    return _conjugation_defects(transition, batched_kron(u, u), u)


def check_emission_covariance(
    emission: BipartiteMap, action: SymmetryAction, q: np.ndarray | RotationBatch
) -> np.ndarray:
    """Per-rotation Choi defect of E_HO intertwining pi tensor rho with pi."""
    batch = rotation_batch(action, q)
    return _conjugation_defects(emission, batched_kron(batch.pi, batch.rho), batch.pi)


def check_sliced_covariance(
    triple: GenerativeTriple,
    structure,
    action: SymmetryAction,
    q: np.ndarray | RotationBatch,
    xs: np.ndarray,
    ys: np.ndarray,
) -> np.ndarray:
    """Per-sample Choi defect of the sliced one-site map under rotated site observables.

    Sample k rotates the site (xs[k], ys[k]) by q[k]; the map must be
    conjugated by pi(q[k]).  The rotated and the plain sites' maps come
    from one sliced_coefficients call.
    """
    h = triple.hidden_dim
    batch = rotation_batch(action, q)
    u = batch.pi
    sites_x = np.concatenate([conjugate(u, xs), xs])
    sites_y = np.concatenate([conjugate(batch.rho, ys), ys])
    rotated, plain = np.split(sliced_coefficients(triple, structure, sites_x, sites_y), 2)
    # Z -> U S(U+ Z U) U+ has coefficient matrix K S K+ with K = U kron conj U
    conjugated = conjugate(batched_kron(u, u.conj()), plain)
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
    draws a fresh group element and a fresh random word from the seed,
    volume by volume: the Haar Gaussians of a volume's samples, then its
    words' site Gaussians.  All volumes are then one batch: one
    rotations_from_gaussians, one stack per rep, one unit_sites map, one
    conjugation of every site by its sample's rotation and one
    sliced_coefficients call for the plain and rotated sites.  One
    fold_words call folds every plain word, then every rotated word, and
    the deviations split by volume.  Every step is per row, so each
    deviation has the bits of a batch per volume.
    """
    rng = rng_from(seed)
    lengths = range(1, n_max + 2)
    haar_draws, site_draws = [], []
    for n_sites in lengths:
        haar_draws.append(rng.standard_normal((samples, 4)))
        site_draws.append(site_gaussians(rng, triple, samples * n_sites))
    q = rotations_from_gaussians(np.concatenate(haar_draws))
    xs, ys = unit_sites(triple, np.concatenate(site_draws))
    # the sample, over all volumes, whose word holds each site
    owner = np.repeat(np.arange(len(q)), np.repeat(lengths, samples))
    rotated_xs = conjugate(action.pi.stack(q)[owner], xs)
    rotated_ys = conjugate(action.rho.stack(q)[owner], ys)
    transfers = sliced_coefficients(
        triple, structure, np.concatenate([xs, rotated_xs]), np.concatenate([ys, rotated_ys])
    )
    words = [n_sites for n_sites in lengths for _ in range(samples)]
    plain, rotated = np.split(fold_words(triple, transfers, words * 2), 2)
    return np.split(np.abs(rotated - plain), samples * np.arange(1, n_max + 1))
