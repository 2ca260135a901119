"""Symmetry checks for generative triples under a rotation action.

A symmetry action carries a projective unitary rep pi on the hidden space
and a linear rep rho on the observable space.  Each check samples group
elements (and test operators where needed), measures the worst deviation
of the defining identity and reports it against a tolerance.  Map-level
identities are compared through the operator norm of the difference of
Choi matrices, so a passing check bounds the deviation on every input.
Each check evaluates all of its samples as one batch: stacked unitaries,
closed-form coefficient contractions and one stacked SVD.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import RankEstimationError
from .grouprep import ProjectiveRep, haar_rotations
# finite_volume_state and operator_norm are unused here but stay bound:
# bench/tests checks that the tracer in bench/tracing.py wraps and restores
# this module's bindings of both.
from .hqmm import (  # noqa: F401
    CausalStructure,
    GenerativeTriple,
    finite_volume_state,
    finite_volume_states,
    random_words,
    sliced_coefficients,
)
from .opalg import (  # noqa: F401
    BipartiteMap,
    ComplexOperator,
    OperatorMap,
    batched_kron,
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
    """Outcome of one sampled symmetry check."""

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
    """The result of a check: its worst per-sample deviation against the tolerance."""
    worst = worst_deviation(deviations)
    return CheckResult(condition, samples, seed, worst, tolerance, worst <= tolerance)


def _conjugate(u: np.ndarray, a: np.ndarray) -> np.ndarray:
    """u a u+ over stacked (broadcast) leading axes."""
    return u @ a @ np.conj(np.swapaxes(u, -1, -2))


def _choi_norms(diff: np.ndarray) -> np.ndarray:
    """Operator norms of the Choi matrices of stacked coefficient tensors.

    diff[k, p, q, i, j] is the (p, q) entry of the k-th map applied to the
    matrix unit e_ij; its Choi matrix has entry [(i, p), (j, q)].  One
    stacked SVD for all k.
    """
    count, d_out, _, d_in, _ = diff.shape
    choi = diff.transpose(0, 3, 1, 4, 2)
    return operator_norms(choi.reshape(count, d_in * d_out, d_in * d_out))


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
    return _choi_norms(left - right.reshape(-1, d_out, d_out, d_in, d_in))


def check_initial_invariance(
    phi0: ComplexOperator,
    action: SymmetryAction,
    samples: int = 200,
    seed: int = 0,
    tolerance: float = 1e-10,
) -> CheckResult:
    """Invariance of the initial state under the hidden-space action."""
    rng = rng_from(seed)
    u = action.pi.stack(haar_rotations(rng, samples))
    deviations = operator_norms(_conjugate(u, phi0.entries) - phi0.entries)
    return check_result("initial_invariance", samples, seed, deviations, tolerance)


def check_transition_equivariance(
    transition: BipartiteMap,
    action: SymmetryAction,
    samples: int = 200,
    seed: int = 0,
    tolerance: float = 1e-10,
) -> CheckResult:
    """E_H intertwines pi tensor pi on the input with pi on the output."""
    rng = rng_from(seed)
    u = action.pi.stack(haar_rotations(rng, samples))
    deviations = _conjugation_defects(transition, batched_kron(u, u), u)
    return check_result("transition_equivariance", samples, seed, deviations, tolerance)


def check_emission_covariance(
    emission: BipartiteMap,
    action: SymmetryAction,
    samples: int = 200,
    seed: int = 0,
    tolerance: float = 1e-10,
) -> CheckResult:
    """E_HO intertwines pi tensor rho on the input with pi on the output."""
    rng = rng_from(seed)
    gs = haar_rotations(rng, samples)
    u = action.pi.stack(gs)
    v = action.rho.stack(gs)
    deviations = _conjugation_defects(emission, batched_kron(u, v), u)
    return check_result("emission_covariance", samples, seed, deviations, tolerance)


def check_sliced_covariance(
    triple: GenerativeTriple,
    structure,
    action: SymmetryAction,
    samples: int = 200,
    seed: int = 0,
    tolerance: float = 1e-10,
) -> CheckResult:
    """Rotating the site observables conjugates the sliced one-site map."""
    structure = CausalStructure.parse(structure)
    rng = rng_from(seed)
    h = triple.hidden_dim
    gs = haar_rotations(rng, samples)
    u = action.pi.stack(gs)
    v = action.rho.stack(gs)
    # one random (x, y) site per sample, drawn after all group elements
    xs, ys = random_words(rng, triple, samples, 1)
    xs, ys = xs[:, 0], ys[:, 0]
    rotated = sliced_coefficients(triple, structure, _conjugate(u, xs), _conjugate(v, ys))
    plain = sliced_coefficients(triple, structure, xs, ys)
    # Z -> U S(U+ Z U) U+ has coefficient matrix K S K+ with K = U kron conj U
    conjugated = _conjugate(batched_kron(u, u.conj()), plain)
    deviations = _choi_norms((rotated - conjugated).reshape(samples, h, h, h, h))
    return check_result("sliced_covariance", samples, seed, deviations, tolerance)


def check_global_invariance(
    triple: GenerativeTriple,
    structure,
    action: SymmetryAction,
    n_max: int = 6,
    samples: int = 50,
    seed: int = 0,
    tolerance: float = 1e-9,
) -> dict[int, CheckResult]:
    """Invariance of every finite-volume value under sitewise rotation.

    Volume n holds sites 0..n, so the words have n+1 sites.  Each sample
    draws a fresh group element and a fresh random word.  Each volume
    folds its words and their rotations as one batch.
    """
    structure = CausalStructure.parse(structure)
    rng = rng_from(seed)
    results = {}
    for n in range(n_max + 1):
        gs = haar_rotations(rng, samples)
        u = action.pi.stack(gs)
        v = action.rho.stack(gs)
        xs, ys = random_words(rng, triple, samples, n + 1)
        values = finite_volume_states(
            triple,
            structure,
            np.concatenate([xs, _conjugate(u[:, None], xs)]),
            np.concatenate([ys, _conjugate(v[:, None], ys)]),
        )
        deviations = np.abs(values[samples:] - values[:samples])
        results[n] = check_result(f"global_invariance[n={n}]", samples, seed, deviations, tolerance)
    return results


def invariant_states(
    rep: ProjectiveRep,
    group_samples: int = 200,
    seed: int = 0,
    rel_threshold: float = 1e-8,
) -> list[ComplexOperator]:
    """Basis of invariant density operators of a projective rep.

    Solves the common commutant of sampled rep unitaries as the nullspace
    of stacked commutator matrices, read off from the singular spectrum.
    Singular values falling between the cutoff and ten times the cutoff
    leave the rank ambiguous and raise RankEstimationError rather than
    silently picking a side.
    """
    d = rep.dim
    rng = rng_from(seed)
    eye = np.eye(d)
    u = rep.stack(haar_rotations(rng, group_samples))
    eyes = np.broadcast_to(eye, u.shape)
    # row-major vec: vec(UX - XU) = (U kron I - I kron U^T) vec(X)
    blocks = batched_kron(u, eyes) - batched_kron(eyes, np.swapaxes(u, -1, -2))
    stacked = blocks.reshape(-1, d * d)
    _, s, vh = np.linalg.svd(stacked, full_matrices=False)
    threshold = rel_threshold * s[0]
    if np.any((s > threshold) & (s <= 10.0 * threshold)):
        raise RankEstimationError(s, threshold)
    nullity = int(np.sum(s <= threshold))
    if nullity == 0:
        return []
    basis = [vh[k].reshape(d, d) for k in range(d * d - nullity, d * d)]
    # the commutant is closed under adjoints, so Hermitian parts span it
    candidates = []
    for m in basis:
        candidates.append((m + m.conj().T) / 2.0)
        candidates.append((m - m.conj().T) / 2.0j)
    picked = []
    vecs: list[np.ndarray] = []
    for h in candidates:
        v = h.reshape(-1).copy()
        for w in vecs:
            v -= np.vdot(w, v) * w
        nrm = np.linalg.norm(v)
        if nrm > 1e-10:
            vecs.append(v / nrm)
            picked.append((v / nrm).reshape(d, d))
        if len(picked) == nullity:
            break
    states = []
    for h in picked:
        h = (h + h.conj().T) / 2.0
        evals = np.linalg.eigvalsh(h)
        shifted = h + (abs(evals[0]) + 1.0) * eye
        states.append(ComplexOperator(d, shifted / np.trace(shifted).real))
    return states
