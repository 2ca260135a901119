"""Symmetry checks for generative triples under a rotation action.

A symmetry action carries a projective unitary rep pi on the hidden space
and a linear rep rho on the observable space.  Each local check is a
function of unitary stacks, u[k] = pi(g_k) and, where the identity needs
it, r[k] = rho(g_k) (and test operators where needed), and returns the N
per-sample deviations of its defining identity: sample k alone, on
u[k:k+1], r[k:k+1] and its site, gives the same number bit for bit.  A
stack whose length differs from u's, or whose matrices do not fit the
space they act on, is refused by opalg.check_stacks.  The global check
takes one rotation and one word per sample and reads every volume off
the suffixes of that word, each with the bits of folding its volume
alone.  Nothing here draws: cli.run makes a verify run's one draw.  The
verdict against a tolerance is made by check_result, in the cli.CHECKS
table.
Map-level identities are compared through the operator norm of the
difference of Choi matrices, so a small deviation bounds the defect on
every input; _conjugation_defects takes those norms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grouprep import ProjectiveRep
# finite_volume_state and operator_norm are unused here but stay bound:
# bench/tests checks that the tracer in bench/tracing.py wraps and restores
# this module's bindings of both.
from .hqmm import (  # noqa: F401
    GenerativeTriple,
    finite_volume_state,
    fold_suffixes,
    sliced_coefficients,
)
from .opalg import (  # noqa: F401
    OperatorMap,
    _parts,
    _products,
    batched_kron,
    check_stacks,
    choi_matrices,
    conjugate,
    operator_norm,
    operator_norms,
    worst_deviation,
)


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

    This is the one place a verdict is made: a condition passes exactly
    when its worst deviation is at most the tolerance, and a nan deviation
    fails.  The rows of cli.CHECKS are the only callers; the check
    functions here return deviations and make no verdict.
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

    A map built from exactly one Kraus operator K has C = k k+, with k
    the entries of K, and W k holds the entries of a = U+ K V.  The
    defect a a+ - k k+ has rank two, and _rank_one_defects takes its norm
    in closed form, with no W and no C.  Any other map, with several
    Kraus operators or only coefficients, takes the Choi path.

    A non-finite map or rotation entry makes its samples' defects nan on
    either path; numpy's warnings on the way (inf - inf, inf * 0) would
    only repeat that, and are not raised.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        if m.kraus is not None and len(m.kraus) == 1:
            return _rank_one_defects(m.kraus[0], v_in, u_out)
        c = choi_matrices(m.coeff)
        w = batched_kron(np.swapaxes(v_in, -1, -2), np.conj(np.swapaxes(u_out, -1, -2)))
        return operator_norms(conjugate(w, c) - c)


def _rank_one_defects(k: np.ndarray, v_in: np.ndarray, u_out: np.ndarray) -> np.ndarray:
    """Choi distances of the map X -> K X K+ for stacks V[n] and unitary U[n], in closed form.

    With a = U+ K V, s = a + K and d = a - K, all flattened, the defect
    is D = a a+ - K K+ = (s d+ + d s+) / 2, Hermitian of rank two.  Write
    d = (c / ||s||^2) s + r, with c = <s, d> and r orthogonal to s; in an
    orthonormal basis of span(s, r), D is
    [[2 Re c, ||s|| ||r||], [||s|| ||r||, 0]] / 2, so
    ||D|| = (|Re c| + hypot(Re c, ||s|| ||r||)) / 2.  r is formed as a
    vector, not through ||s||^2 ||d||^2 - |c|^2, which would lose every
    digit of a defect far below ||s|| ||d||; d = 0 gives exactly 0.
    K V and a are formed entry by entry with opalg._products, and each
    sum over the entries adds them in one fixed order, so no sample's
    bits depend on the rest of its stack.  Norms are square roots taken
    before their product, so inputs from 1e-150 to 1e150, the range in
    which the Choi entries |K_ij|^2 are representable, neither overflow
    nor underflow.  A sample whose defect is not finite gets nan, as
    operator_norms gives a non-finite matrix.
    """
    kr, ki = _parts(k, 1)
    kv = _products((kr, ki), _parts(v_in, 1))
    ur, ui = _parts(u_out, 1)
    # entry (i, j) of U+ is conj(U[j, i])
    ar, ai = _products((ur.swapaxes(0, 1), -ui.swapaxes(0, 1)), kv)
    sr, si, dr, di = ar + kr, ai + ki, ar - kr, ai - ki
    re_c, im_c, s_sq = _entry_sums([sr * dr + si * di, sr * di - si * dr, sr * sr + si * si])
    # s = 0 leaves c = 0, and then D = 0 whatever r is
    s_sq_or_1 = np.where(s_sq > 0, s_sq, 1.0)
    mr, mi = re_c / s_sq_or_1, im_c / s_sq_or_1
    rr, ri = dr - (mr * sr - mi * si), di - (mr * si + mi * sr)
    (r_sq,) = _entry_sums([rr * rr + ri * ri])
    out = (np.abs(re_c) + np.hypot(re_c, np.sqrt(s_sq) * np.sqrt(r_sq))) / 2
    return np.where(np.isfinite(out), out, np.nan)


def _entry_sums(terms: list[np.ndarray]) -> np.ndarray:
    """Sum of each terms[t][i, j, N] over its entries (i, j), added in row-major order.

    numpy's sum may add a reduced axis pairwise when it is contiguous, as
    it is for a stack of one, so its bits could depend on the size of the
    stack; this loop adds the same entries in the same order for any N.
    """
    stacked = np.stack(terms)
    stacked = stacked.reshape(len(terms), -1, stacked.shape[-1])
    sums = stacked[:, 0].copy()
    for e in range(1, stacked.shape[1]):
        sums += stacked[:, e]
    return sums


def check_initial_invariance(phi0: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per-sample norm of U phi0 U+ - phi0, for the stack u[k] = pi(g_k)."""
    check_stacks((len(u),), ("pi stack", u, len(phi0)))
    return operator_norms(conjugate(u, phi0) - phi0)


def check_transition_equivariance(transition: OperatorMap, u: np.ndarray) -> np.ndarray:
    """Per-sample Choi defect of E_H intertwining U tensor U with U, for u[k] = pi(g_k)."""
    check_stacks((len(u),), ("pi stack", u, transition.dim_out))
    return _conjugation_defects(transition, batched_kron(u, u), u)


def check_emission_covariance(emission: OperatorMap, u: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Per-sample Choi defect of E_HO intertwining U tensor R with U.

    u[k] = pi(g_k) and r[k] = rho(g_k); the stacks must be equally long.
    """
    h = emission.dim_out
    check_stacks((len(u),), ("pi stack", u, h), ("rho stack", r, emission.dim_in // h))
    return _conjugation_defects(emission, batched_kron(u, r), u)


def check_sliced_covariance(
    triple: GenerativeTriple,
    structure,
    u: np.ndarray,
    r: np.ndarray,
    xs: np.ndarray,
    ys: np.ndarray,
) -> np.ndarray:
    """Per-sample Choi defect of the sliced one-site map under rotated site observables.

    Sample k rotates the site (xs[k], ys[k]) by u[k] = pi(g_k) and
    r[k] = rho(g_k); the map must be conjugated by u[k].  The four stacks
    must be equally long.  The rotated and the plain sites' maps come
    from one sliced_coefficients call.
    """
    h, o = triple.hidden_dim, triple.obs_dim
    check_stacks(
        (len(u),),
        ("pi stack", u, h),
        ("rho stack", r, o),
        ("hidden sites", xs, h),
        ("observable sites", ys, o),
    )
    sites_x = np.concatenate([conjugate(u, xs), xs])
    sites_y = np.concatenate([conjugate(r, ys), ys])
    rotated, plain = np.split(sliced_coefficients(triple, structure, sites_x, sites_y), 2)
    # Z -> U S(U+ Z U) U+ has coefficient matrix K S K+ with K = U kron conj U
    conjugated = conjugate(batched_kron(u, u.conj()), plain)
    return operator_norms(choi_matrices((rotated - conjugated).reshape(-1, h, h, h, h)))


def check_global_invariance(
    triple: GenerativeTriple,
    structure,
    u: np.ndarray,
    r: np.ndarray,
    xs: np.ndarray,
    ys: np.ndarray,
) -> list[np.ndarray]:
    """Per-sample deviation of every finite-volume value under sitewise rotation.

    Sample k rotates every site of its word (xs[k], ys[k]), of n_max + 1
    sites, by u[k] = pi(g_k) and r[k] = rho(g_k).  Entry n holds volume
    n: sites 0..n, so words of n+1 sites, and volume n reads each word's
    suffix of n+1 sites: the last sites of a word of independent sites
    are a word of independent sites.  One conjugation of every site by
    its sample's rotation and one sliced_coefficients call for the plain
    and rotated sites feed one fold_suffixes batch of the plain and the
    rotated words, which gives every volume's values, at a cost linear in
    n_max.  Every step is per row, so each deviation has the bits of
    folding its volume's plain and rotated words alone.
    """
    h, o = triple.hidden_dim, triple.obs_dim
    samples, n_sites = np.shape(xs)[:2]
    check_stacks((len(u),), ("pi stack", u, h), ("rho stack", r, o))
    check_stacks((len(u), n_sites), ("hidden words", xs, h), ("observable words", ys, o))
    # each word's sites are rotated by its sample's rotation
    sites_x = np.concatenate([xs, conjugate(u[:, None], xs)]).reshape(-1, h, h)
    sites_y = np.concatenate([ys, conjugate(r[:, None], ys)]).reshape(-1, o, o)
    transfers = sliced_coefficients(triple, structure, sites_x, sites_y)
    words = transfers.reshape(2, samples, n_sites, h * h, h * h)
    plain, rotated = fold_suffixes(triple, words)
    return list(np.abs(rotated - plain).T.copy())
