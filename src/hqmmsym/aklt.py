"""Concrete spin-1 chain model built from a two-dimensional bond algebra.

The emission map is induced by a triple of 2x2 tensors, one per physical
label, through a single rectangular Kraus operator.  Three tensor variants
are provided: a normalized cartesian set proportional to the Pauli
matrices, its spherical-basis relabeling, and the paper's unnormalized
spherical set kept as a diagnostic.  The symmetry action pairs the
spin-1/2 projective rep pi on the bond space with the spin-1 rep rho on
the physical space, and the tensors are checked against the one
intertwining relation sum_k rho(g)_km A_k = pi(g) A_m pi(g)+.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .grouprep import (
    CONDON_SHORTLEY,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    spin_half_rep,
    spin_one_rep,
)
from .hqmm import (
    CausalStructure,
    GenerativeTriple,
    ObservableWord,
    finite_volume_state,
    partial_trace_map,
)
from .opalg import BipartiteMap, frozen_square_stack, operator_norms
from .symmetry import SymmetryAction

VARIANTS = ("normalized_cartesian", "normalized_spherical", "paper_literal")


@dataclass(frozen=True)
class AkltTensors:
    """Labeled tensor triple defining an emission map; tensors[k] is A_k, read-only."""

    variant: str
    basis: str
    labels: tuple[str, ...]
    tensors: np.ndarray  # (o, h, h)

    def __post_init__(self):
        object.__setattr__(self, "tensors", frozen_square_stack(self.tensors, 3, "tensors"))


def _normalize_variant(variant: str) -> str:
    name = str(variant).replace("-", "_")
    if name not in VARIANTS:
        raise ConfigError(f"unknown tensor variant {variant!r}; expected one of {VARIANTS}")
    return name


def build_tensors(variant: str = "normalized_cartesian") -> AkltTensors:
    variant = _normalize_variant(variant)
    if variant == "normalized_cartesian":
        mats = [SIGMA_X / np.sqrt(3.0), SIGMA_Y / np.sqrt(3.0), SIGMA_Z / np.sqrt(3.0)]
        return AkltTensors(variant, "cartesian", ("x", "y", "z"), np.stack(mats))
    if variant == "normalized_spherical":
        cartesian = np.stack([SIGMA_X, SIGMA_Y, SIGMA_Z]) / np.sqrt(3.0)
        # spherical components pick up the conjugate basis change so the
        # emission covariance holds with the spherical physical rep
        mats = np.einsum("ma,aij->mij", CONDON_SHORTLEY.conj(), cartesian)
        return AkltTensors(variant, "spherical", ("+", "0", "-"), mats)
    mats = [
        np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex) / np.sqrt(2.0),
        np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex) / np.sqrt(2.0),
        np.array([[0.0, 0.0], [-1.0, 0.0]], dtype=complex) / np.sqrt(2.0),
    ]
    return AkltTensors(variant, "spherical", ("+", "0", "-"), np.stack(mats))


def gram_matrix(tensors: AkltTensors) -> np.ndarray:
    """Gram matrix G[k, l] = trace(A_k+ A_l) of the tensor triple."""
    stack = tensors.tensors
    return np.einsum("kba,lba->kl", stack.conj(), stack)


def emission_map(tensors: AkltTensors, order: str = "cp") -> BipartiteMap:
    """Emission map on bond tensor physical, E(X tensor Y) built from the tensors.

    Order 'cp' uses the coefficient <k|Y|k'> on A_k X A_k'+, which is the
    action of the single rectangular Kraus operator sum_k A_k tensor <k|.
    Order 'literal' transposes the physical coefficient to <k'|Y|k>; the
    resulting map is kept only as a diagnostic and is not completely
    positive.
    """
    stack = tensors.tensors
    o, h, _ = stack.shape
    if order == "cp":
        # kraus[p, a * o + k] = A_k[p, a]
        kraus = np.transpose(stack, (1, 2, 0)).reshape(h, h * o)
        return BipartiteMap.build_from_kraus(h, o, h, [kraus])
    if order == "literal":
        # coeff[p, q, a * o + i, b * o + j] = A_j[p, a] conj(A_i[q, b])
        coeff = np.einsum("jpa,iqb->pqaibj", stack, stack.conj()).reshape(h, h, h * o, h * o)
        return BipartiteMap(h * o, h, coeff, h, o)
    raise ConfigError(f"unknown emission order {order!r}; expected 'cp' or 'literal'")


def transition_map(hidden_dim: int = 2, normalized: bool = True) -> BipartiteMap:
    """Partial trace over the second bond factor, normalized to be unital.

    With normalized=False the map is W -> Z1 trace(Z2) on product inputs,
    which is completely positive but not unital; it is kept as a
    diagnostic for the consistency check.
    """
    return partial_trace_map(hidden_dim, hidden_dim, normalized)


def verify_intertwining(tensors: AkltTensors, action: SymmetryAction, q: np.ndarray) -> np.ndarray:
    """Per-rotation residual of sum_k rho(g)_km A_k = pi(g) A_m pi(g)+ for g = q[k].

    The tensor label k is contracted with the row index of rho(g).  The
    residual of a rotation is the largest operator norm of the difference
    over the labels m: near machine precision for the normalized variants,
    of order one for paper_literal.
    """
    stack = tensors.tensors
    u = action.pi.stack(q)[:, None]
    target = u @ stack @ np.conj(np.swapaxes(u, -1, -2))
    combo = np.einsum("skm,kab->smab", action.rho.stack(q), stack)
    return operator_norms(combo - target).max(axis=1)


@dataclass(frozen=True)
class AkltModel:
    """Generative triple together with its symmetry action and metadata."""

    tensors: AkltTensors
    triple: GenerativeTriple
    action: SymmetryAction
    structure: CausalStructure
    metadata: dict


def build_model(variant: str = "normalized_cartesian", structure="conventional") -> AkltModel:
    """Assemble the model for a tensor variant and causal structure.

    The tensors are used exactly as build_tensors gives them and nothing
    is checked here: whether the triple is CPU is for the cpu check to
    report from GenerativeTriple.defects, and whether a variant satisfies
    the intertwining relation and the symmetry conditions is for
    verify_intertwining and the symmetry checks.
    """
    structure = CausalStructure.parse(structure)
    tensors = build_tensors(variant)
    o, h, _ = tensors.tensors.shape
    triple = GenerativeTriple(
        hidden_dim=h,
        obs_dim=o,
        phi0=np.eye(h, dtype=complex) / h,
        transition=transition_map(h, normalized=True),
        emission=emission_map(tensors),
    )
    action = SymmetryAction(spin_half_rep(), spin_one_rep(tensors.basis))
    metadata = {
        "variant": tensors.variant,
        "basis": tensors.basis,
        "labels": list(tensors.labels),
    }
    return AkltModel(tensors, triple, action, structure, metadata)


def single_site_distribution(model: AkltModel) -> dict[str, float]:
    """Probabilities of the one-site label projectors under the model state."""
    values = {
        label: finite_volume_state(model.triple, model.structure, projector_word(model, label))
        for label in model.tensors.labels
    }
    return {label: float(value.real) for label, value in values.items()}


def projector_word(model: AkltModel, labels: str) -> ObservableWord:
    """Word of per-site label projectors with identity on the hidden slots."""
    if not labels:
        raise ConfigError("projector word needs at least one label")
    h, o = model.triple.hidden_dim, model.triple.obs_dim
    for ch in labels:
        if ch not in model.tensors.labels:
            raise ConfigError(
                f"label {ch!r} is not one of {''.join(model.tensors.labels)!r}"
            )
    ks = [model.tensors.labels.index(ch) for ch in labels]
    ys = np.zeros((len(ks), o, o))
    ys[np.arange(len(ks)), ks, ks] = 1.0
    return ObservableWord(np.broadcast_to(np.eye(h), (len(ks), h, h)), ys)


def _site_tensor(
    structure: CausalStructure,
    c_h: list,
    c_ho: list,
    x: list,
    y: list,
    h: int,
    o: int,
) -> list[list[complex]]:
    """Sliced site tensor as nested lists, s[p * h + q][i * h + j].

    The coefficients and site observables arrive as nested Python lists
    (ndarray.tolist()), so every product in the loops is a Python complex
    product rather than a numpy scalar operation.
    """
    s = [[0j] * (h * h) for _ in range(h * h)]
    if structure is CausalStructure.CONVENTIONAL:
        emitted = [[0j] * h for _ in range(h)]
        for u in range(h):
            for v in range(h):
                acc = 0.0 + 0.0j
                for a in range(h):
                    for a2 in range(h):
                        for c in range(o):
                            for c2 in range(o):
                                acc += c_ho[u][v][a * o + c][a2 * o + c2] * x[a][a2] * y[c][c2]
                emitted[u][v] = acc
        for p in range(h):
            for q in range(h):
                for i in range(h):
                    for j in range(h):
                        acc = 0.0 + 0.0j
                        for u in range(h):
                            for v in range(h):
                                acc += c_h[p][q][u * h + i][v * h + j] * emitted[u][v]
                        s[p * h + q][i * h + j] = acc
        return s
    linked = [[[[0j] * h for _ in range(h)] for _ in range(h)] for _ in range(h)]
    for u in range(h):
        for v in range(h):
            for i in range(h):
                for j in range(h):
                    acc = 0.0 + 0.0j
                    for a in range(h):
                        for a2 in range(h):
                            acc += c_h[u][v][a * h + i][a2 * h + j] * x[a][a2]
                    linked[u][v][i][j] = acc
    for p in range(h):
        for q in range(h):
            for i in range(h):
                for j in range(h):
                    acc = 0.0 + 0.0j
                    for u in range(h):
                        for v in range(h):
                            for c in range(o):
                                for c2 in range(o):
                                    acc += (
                                        c_ho[p][q][u * o + c][v * o + c2]
                                        * linked[u][v][i][j]
                                        * y[c][c2]
                                    )
                    s[p * h + q][i * h + j] = acc
    return s


def dense_word_value(triple: GenerativeTriple, structure, word: ObservableWord) -> complex:
    """Word value by brute-force summation over all index chains.

    The referee stays independent of the folded evaluation path: it builds
    its own sliced site tensors by explicit scalar loops over the map
    coefficients, held as nested Python lists, and sums the product of
    chain entries against the initial state over every index chain, with
    no einsum, matmul or fold.  The chains are walked depth first, so
    chains that share a prefix share its product, but each chain that
    ends on the diagonal is still one term, and the terms are added one
    by one in lexicographic order of the chains.  Time grows as
    (hidden_dim^2)^sites, so words beyond 8 sites are refused; memory
    holds one running product per site.
    """
    structure = CausalStructure.parse(structure)
    n = len(word)
    if n == 0:
        raise ValueError("empty word; the oracle needs at least one site")
    if n > 8:
        raise ValueError(f"dense contraction is limited to 8 sites, got {n}")
    word.check_dims(triple)
    h = triple.hidden_dim
    o = triple.obs_dim
    c_h = triple.transition.coeff.tolist()
    c_ho = triple.emission.coeff.tolist()
    sites = [
        _site_tensor(structure, c_h, c_ho, x, y, h, o)
        for x, y in zip(word.xs.tolist(), word.ys.tolist())
    ]
    rho0 = triple.phi0.tolist()
    # chain entry r is the index pair (p, q) = divmod(r, h)
    first = [rho0[q][p] for p in range(h) for q in range(h)]
    diagonal = [p * h + p for p in range(h)]
    last = n - 1

    def walk(k, t, row, total):
        # t is the product along a chain of k + 1 entries, row the row of
        # site k at the entry it ends on; the chains through it are walked
        # depth first, so in lexicographic order
        if k == last:
            for d in diagonal:
                total += t * row[d]
            return total
        after = sites[k + 1]
        for r, s in enumerate(row):
            total = walk(k + 1, t * s, after[r], total)
        return total

    total = 0.0 + 0.0j
    for t, row in zip(first, sites[0]):
        total = walk(0, t, row, total)
    return complex(total)
