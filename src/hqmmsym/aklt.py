"""Concrete spin-1 chain model built from a two-dimensional bond algebra.

The emission map is induced by a triple of 2x2 tensors, one per physical
label, through a single rectangular Kraus operator, so it is completely
positive by construction.  Three tensor variants are provided: a
normalized cartesian set proportional to the Pauli matrices, its
spherical-basis relabeling, and the paper's unnormalized spherical set
kept as a diagnostic.  The symmetry action pairs the spin-1/2 projective
rep pi on the bond space with the spin-1 rep rho on the physical space,
and the tensors are checked against the one intertwining relation
sum_k rho(g)_km A_k = pi(g) A_m pi(g)+.
"""

from __future__ import annotations

import math
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
    partial_trace_map,
)
from .opalg import BipartiteMap, conjugate, frozen_square_stack, operator_norms
from .symmetry import RotationBatch, SymmetryAction, rotation_batch

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


def emission_map(tensors: AkltTensors) -> BipartiteMap:
    """Emission map on bond tensor physical, E(X tensor Y) built from the tensors.

    The coefficient <k|Y|k'> multiplies A_k X A_k'+, which is the action of
    the single rectangular Kraus operator sum_k A_k tensor <k|, so the map
    is completely positive.
    """
    stack = tensors.tensors
    o, h, _ = stack.shape
    # kraus[p, a * o + k] = A_k[p, a]
    kraus = np.transpose(stack, (1, 2, 0)).reshape(h, h * o)
    return BipartiteMap.build_from_kraus(h, o, h, [kraus])


def transition_map(hidden_dim: int = 2, normalized: bool = True) -> BipartiteMap:
    """Partial trace over the second bond factor, normalized to be unital.

    With normalized=False the map is W -> Z1 trace(Z2) on product inputs,
    which is completely positive but not unital; it is kept as a
    diagnostic for the consistency check.
    """
    return partial_trace_map(hidden_dim, hidden_dim, normalized)


def verify_intertwining(
    tensors: AkltTensors, action: SymmetryAction, q: np.ndarray | RotationBatch
) -> np.ndarray:
    """Per-rotation residual of sum_k rho(g)_km A_k = pi(g) A_m pi(g)+ for g = q[k].

    The tensor label k is contracted with the row index of rho(g).  The
    residual of a rotation is the largest operator norm of the difference
    over the labels m: near machine precision for the normalized variants,
    of order one for paper_literal.  Given a RotationBatch for action, it
    reuses the batch's stacks.
    """
    stack = tensors.tensors
    batch = rotation_batch(action, q)
    target = conjugate(batch.pi[:, None], stack)
    combo = np.einsum("skm,kab->smab", batch.rho, stack)
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


def _site_terms(structure: CausalStructure, c_h: list, c_ho: list, h: int, o: int) -> tuple:
    """The nonzero coefficient terms of _site_tensor's two sums, in its loops' order.

    The coefficients arrive as nested Python lists (ndarray.tolist()).  A
    term whose coefficient is exactly 0 adds +-0 to a sum of finite terms,
    which leaves the sum's bits as they are, so it is left out.  The inner
    sum is the emitted operator (conventional) or the linked operator
    (causal); the outer sum gives the site tensor entry from it.
    """
    hs, os = range(h), range(o)
    if structure is CausalStructure.CONVENTIONAL:
        # emitted[u * h + v]: (coefficient, a, a2, c, c2)
        inner = [
            [
                (coef, a, a2, c, c2)
                for a in hs
                for a2 in hs
                for c in os
                for c2 in os
                if (coef := c_ho[u][v][a * o + c][a2 * o + c2])
            ]
            for u in hs
            for v in hs
        ]
        # s[p * h + q][i * h + j]: (coefficient, u * h + v)
        outer = [
            [
                [
                    (coef, u * h + v)
                    for u in hs
                    for v in hs
                    if (coef := c_h[p][q][u * h + i][v * h + j])
                ]
                for i in hs
                for j in hs
            ]
            for p in hs
            for q in hs
        ]
        return inner, outer
    # linked[u * h + v][i * h + j]: (coefficient, a, a2)
    inner = [
        [
            [(coef, a, a2) for a in hs for a2 in hs if (coef := c_h[u][v][a * h + i][a2 * h + j])]
            for i in hs
            for j in hs
        ]
        for u in hs
        for v in hs
    ]
    # s[p * h + q][i * h + j], for every (i, j): the pairs (u * h + v, group)
    # whose group of (coefficient, c, c2) terms is not empty
    outer = []
    for p in hs:
        for q in hs:
            groups = []
            for u in hs:
                for v in hs:
                    group = [
                        (coef, c, c2)
                        for c in os
                        for c2 in os
                        if (coef := c_ho[p][q][u * o + c][v * o + c2])
                    ]
                    if group:
                        groups.append((u * h + v, group))
            outer.append(groups)
    return inner, outer


def _site_tensor(structure: CausalStructure, terms: tuple, x: list, y: list) -> list[list[complex]]:
    """Sliced site tensor as nested lists, s[p * h + q][i * h + j].

    terms is _site_terms of the coefficients, and the site observables x, y
    are nested Python lists, so every product is a Python complex product
    rather than a numpy scalar operation.  Each sum adds its terms one by
    one in lexicographic order, starting from +0, and skips a term whose
    inner factor is exactly 0: with finite factors that term is +-0.
    """
    inner, outer = terms
    if structure is CausalStructure.CONVENTIONAL:
        emitted = []
        for row in inner:
            acc = 0j
            for coef, a, a2, c, c2 in row:
                acc += coef * x[a][a2] * y[c][c2]
            emitted.append(acc)
        s = []
        for row in outer:
            out = []
            for entry in row:
                acc = 0j
                for coef, uv in entry:
                    e = emitted[uv]
                    if e:
                        acc += coef * e
                out.append(acc)
            s.append(out)
        return s
    linked = []
    for row in inner:
        out = []
        for entry in row:
            acc = 0j
            for coef, a, a2 in entry:
                acc += coef * x[a][a2]
            out.append(acc)
        linked.append(out)
    s = []
    for groups in outer:
        out = []
        for ij in range(len(linked[0])):
            acc = 0j
            for uv, group in groups:
                l = linked[uv][ij]
                if l:
                    for coef, c, c2 in group:
                        acc += coef * l * y[c][c2]
            out.append(acc)
        s.append(out)
    return s


def dense_word_value(triple: GenerativeTriple, structure, word: ObservableWord) -> complex:
    """Word value by brute-force summation over all index chains.

    The one-word case of dense_word_values, which says how the referee
    computes it.
    """
    return dense_word_values(triple, structure, [word])[0]


def dense_word_values(triple: GenerativeTriple, structure, words) -> list[complex]:
    """Each word's value by brute-force summation over all index chains.

    The referee stays independent of the folded evaluation path: it builds
    its own sliced site tensors by explicit scalar loops over the map
    coefficients, held as nested Python lists, and sums the product of
    chain entries against the initial state over every index chain, with
    no einsum, matmul or fold.  Work whose result is known is skipped:
    each site-tensor sum runs over its nonzero coefficients only
    (_site_terms, listed once for all the words) and past inner factors
    that are exactly 0, and the chains are walked depth first, sharing the
    products of common prefixes, without descending through a chain entry
    or phi0 entry that is exactly 0.  A skipped term is a finite value
    times 0, so it is +-0, and adding +-0 to a sum that starts at +0 never
    changes it: the value is bit for bit the full sum's, term by term in
    lexicographic order of the chains.  That holds while every product is
    finite, so a word's value is complex(nan, nan) when an entry of phi0,
    of either coefficient tensor or of the word is not finite, and when
    their sizes could carry a product past 1e300, near the top of the
    float range.  Time grows as (hidden_dim^2)^sites, so words beyond 8
    sites are refused, as is an empty word; memory holds one running
    product per site.
    """
    structure = CausalStructure.parse(structure)
    words = list(words)
    for word in words:
        if len(word) == 0:
            raise ValueError("empty word; the oracle needs at least one site")
        if len(word) > 8:
            raise ValueError(f"dense contraction is limited to 8 sites, got {len(word)}")
        word.check_dims(triple)
    h = triple.hidden_dim
    o = triple.obs_dim
    # every partial sum and product is at most (1 + |phi0|) growth^n, with
    # the largest entries of phi0 and the word and the coefficient sums;
    # a non-finite entry makes the bound nan or inf
    top_phi0 = float(np.abs(triple.phi0).max())
    sum_t, sum_e = (float(np.abs(m.coeff).sum()) for m in (triple.transition, triple.emission))
    terms = _site_terms(
        structure, triple.transition.coeff.tolist(), triple.emission.coeff.tolist(), h, o
    )
    rho0 = triple.phi0.tolist()
    # chain entry r is the index pair (p, q) = divmod(r, h)
    first = [rho0[q][p] for p in range(h) for q in range(h)]
    values = []
    for word in words:
        top_x, top_y = (float(np.abs(a).max()) for a in (word.xs, word.ys))
        growth = (1.0 + sum_t) * (1.0 + sum_e) * (1.0 + top_x) * (1.0 + top_y)
        if math.prod([1.0 + top_phi0] + [growth] * len(word)) < 1e300:
            values.append(_chain_sum(structure, terms, first, word, h))
        else:
            values.append(complex(math.nan, math.nan))
    return values


def _chain_sum(structure: CausalStructure, terms: tuple, first: list, word, h: int) -> complex:
    """The sum over the word's index chains, from its site tensors and phi0's entries first."""
    sites = [
        _site_tensor(structure, terms, x, y) for x, y in zip(word.xs.tolist(), word.ys.tolist())
    ]
    # each row of a site as its (column, entry) pairs that are not exactly
    # 0; a chain ends on the diagonal, so the last site keeps only the
    # nonzero diagonal entries of each row
    rows = [[[(r, s) for r, s in enumerate(row) if s] for row in site] for site in sites[:-1]]
    rows.append([[row[d] for d in range(0, h * h, h + 1) if row[d]] for row in sites[-1]])
    last = len(sites) - 1

    def walk(k, t, entries, total):
        # t is the product along a chain of k + 1 entries, entries the row
        # of site k at the entry it ends on; the chains through it are
        # walked depth first, so in lexicographic order
        if k == last:
            for s in entries:
                total += t * s
            return total
        after = rows[k + 1]
        for r, s in entries:
            total = walk(k + 1, t * s, after[r], total)
        return total

    total = 0j
    for t, entries in zip(first, rows[0]):
        if t:
            total = walk(0, t, entries, total)
    return complex(total)
