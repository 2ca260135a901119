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

A variant's tensors and triple are built once per process (_variant,
one entry per variant) and shared: both are frozen over read-only arrays.
build_model makes a new action and info dict on every call.

The dense referee, dense_word_value and dense_suffix_values, sums word
values over every index chain from the coefficient tensors alone,
independently of the fold it checks, on float64 arrays and bit for bit
as a loop over Python complex numbers would.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionMismatchError
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
    Model,
    ObservableWord,
    partial_trace_map,
)
from .opalg import OperatorMap, check_stacks, conjugate, frozen_square_stack, operator_norms
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


def emission_map(tensors: AkltTensors) -> OperatorMap:
    """Emission map on bond tensor physical, E(X tensor Y) built from the tensors.

    The coefficient <k|Y|k'> multiplies A_k X A_k'+, which is the action of
    the single rectangular Kraus operator sum_k A_k tensor <k|, so the map
    is completely positive.
    """
    stack = tensors.tensors
    o, h, _ = stack.shape
    # kraus[p, a * o + k] = A_k[p, a]
    kraus = np.transpose(stack, (1, 2, 0)).reshape(h, h * o)
    return OperatorMap.from_kraus(h * o, h, [kraus])


def verify_intertwining(tensors: AkltTensors, u: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Per-sample residual of sum_k R_km A_k = U A_m U+ for u[k] = pi(g_k), r[k] = rho(g_k).

    The tensor label k is contracted with the row index of R.  The
    residual of a sample is the largest operator norm of the difference
    over the labels m: near machine precision for the normalized variants,
    of order one for paper_literal.  The stacks must be equally long, u of
    h x h and r of o x o matrices.
    """
    stack = tensors.tensors
    o, h, _ = stack.shape
    check_stacks((len(u),), ("pi stack", u, h), ("rho stack", r, o))
    target = conjugate(u[:, None], stack)
    combo = np.einsum("skm,kab->smab", r, stack)
    return operator_norms(combo - target).max(axis=1)


@functools.cache
def _variant(variant: str) -> tuple[AkltTensors, GenerativeTriple]:
    """The tensors and triple of a normalized variant name, built on its first call."""
    tensors = build_tensors(variant)
    o, h, _ = tensors.tensors.shape
    triple = GenerativeTriple(
        hidden_dim=h,
        obs_dim=o,
        phi0=np.eye(h, dtype=complex) / h,
        transition=partial_trace_map(h, h),
        emission=emission_map(tensors),
    )
    return tensors, triple


def build_model(variant: str = "normalized_cartesian", structure="conventional") -> Model:
    """Assemble the built-in model for a tensor variant and causal structure.

    The transition is hqmm.partial_trace_map(h, h), the normalized partial
    trace over the second bond factor, phi0 is maximally mixed, and the
    tensors are used exactly as build_tensors gives them; the tensors and
    triple are the variant's one pair (_variant).  Nothing is checked
    here: whether the triple is CPU is for the cpu check to report from
    GenerativeTriple.defects, and whether a variant satisfies the
    intertwining relation and the symmetry conditions is for
    verify_intertwining and the symmetry checks.
    """
    structure = CausalStructure.parse(structure)
    tensors, triple = _variant(_normalize_variant(variant))
    action = SymmetryAction(spin_half_rep(), spin_one_rep(tensors.basis))
    info = {
        "name": "aklt",
        "structure": structure.value,
        "variant": tensors.variant,
        "basis": tensors.basis,
        "labels": list(tensors.labels),
    }
    return Model(triple, structure, info, action, tensors)


def projector_word(model: Model, labels: str) -> ObservableWord:
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


# The most chain products the referee forms at once, over the words of one
# length: its memory beyond the site tensors does not grow with the sites.
_CHAIN_BLOCK = 1 << 14


def _parts(a: np.ndarray) -> np.ndarray:
    """The real and imaginary parts of a complex array, stacked on a new first axis."""
    parts = np.empty((2, *a.shape))
    parts[0], parts[1] = a.real, a.imag
    return parts


def _times(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Parts of the products of parts a and b, broadcast, as CPython forms a complex product.

    re = ar br - ai bi and im = ar bi + ai br, each product and sum rounded
    on its own; numpy's complex multiply may fuse them, depending on the build.
    """
    re = a[0] * b[0]
    out = np.empty((2, *re.shape))
    np.subtract(re, a[1] * b[1], out=out[0])
    np.add(a[0] * b[1], a[1] * b[0], out=out[1])
    return out


def _sum_in_order(terms: np.ndarray) -> np.ndarray:
    """Parts of the sums along axis 1 of a few terms of many entries, from +0 and in order.

    Adding whole terms gives every entry the additions of np.add.accumulate,
    whose loop would run along the terms once for each entry.
    """
    total = np.zeros(terms.shape[:1] + terms.shape[2:])
    for term in terms.swapaxes(0, 1):
        total = total + term
    return total


def _entries(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each column's coefficient entries that are not 0, in row order: rows[ks[m, j], j].

    Returns ks and the entries' parts.  Shorter columns are padded, last,
    with rows of their own 0 entries, whose terms are +-0.  ks keeps one
    column when all columns have the same rows, so the factors broadcast.
    """
    zero = rows == 0
    ks = np.argsort(zero, axis=0, kind="stable")[: len(rows) - zero.sum(axis=0).min()]
    coef = _parts(rows[ks, np.arange(rows.shape[1])])
    return (ks[:, :1] if (ks == ks[:, :1]).all() else ks), coef


def _site_tensors(structure: CausalStructure, triple: GenerativeTriple, xs, ys) -> np.ndarray:
    """Parts of the sliced site tensors s[pq, ij, site] of stacked sites, pq = p * h + q.

    The inner sum is the emitted operator (conventional) or the linked
    operator (causal), and the outer sum gives the tensor entry from it;
    each sum skips the coefficient entries that are 0 (_entries).
    """
    h, o = triple.hidden_dim, triple.obs_dim
    c_h, c_ho = triple.transition.coeff, triple.emission.coeff
    # t_rows[a * h + a2, (p, q, i, j)] = c_h[p, q, a * h + i, a2 * h + j]
    t_rows = c_h.reshape((h,) * 6).transpose(2, 4, 0, 1, 3, 5).reshape(h * h, -1)
    # e_rows[(a, a2, c, c2), pq] = c_ho[p, q, a * o + c, a2 * o + c2]
    e_rows = c_ho.reshape(h, h, h, o, h, o).transpose(2, 4, 3, 5, 0, 1).reshape(-1, h * h)
    x = _parts(xs.transpose(1, 2, 0).reshape(h * h, -1))  # x[:, a * h + a2, site]
    y = _parts(ys.transpose(1, 2, 0).reshape(o * o, -1))  # y[:, c * o + c2, site]
    if structure is CausalStructure.CONVENTIONAL:
        # emitted[uv] adds c_ho[u, v, a * o + c, a2 * o + c2] x[a, a2] y[c, c2]
        ks, coef = _entries(e_rows)
        terms = _times(coef[..., None], x[:, ks // (o * o)])
        emitted = _sum_in_order(_times(terms, y[:, ks % (o * o)]))
        # s[pq, ij] adds c_h[p, q, u * h + i, v * h + j] emitted[uv]
        ks, coef = _entries(t_rows)
        s = _sum_in_order(_times(coef[..., None], emitted[:, ks]))
        return s.reshape(2, h * h, h * h, -1)
    # linked[uv, ij] adds c_h[u, v, a * h + i, a2 * h + j] x[a, a2]
    ks, coef = _entries(t_rows)
    linked = _sum_in_order(_times(coef[..., None], x[:, ks])).reshape(2, h * h, h * h, -1)
    # s[pq, ij] adds c_ho[p, q, u * o + c, v * o + c2] linked[uv, ij] y[c, c2]
    ks, coef = _entries(e_rows)
    terms = _times(coef[..., None, None], linked[:, ks // (o * o)])
    return _sum_in_order(_times(terms, y[:, ks % (o * o), None]))


def _chain_totals(first: np.ndarray, steps: list) -> np.ndarray:
    """Parts of the chain sums of the words of one length.

    first[:, r_0] holds phi0's entries and steps[k][:, word, r_{k+1}, r_k]
    the site tensors, at the entries kept at each place.  A word's terms
    first[r_0] steps[0][r_1, r_0] ... steps[n-1][r_n, r_{n-1}] are formed
    left to right and added in lexicographic order of the chains, from +0.
    A block takes the subtrees of consecutive prefixes r_0 .. r_{depth-1},
    at the shallowest depth whose subtree fits in _CHAIN_BLOCK products, and
    carries the running sum on.  Its products are formed as [word, r_n, ...,
    r_0], so that numpy's inner loops run along the chains rather than the
    few words, and reordered for the sum.
    """
    words = steps[0].shape[1]
    sizes = [first.shape[1]] + [step.shape[2] for step in steps]
    total = np.zeros((2, words))
    if 0 in sizes:
        return total
    n = len(steps)
    depth = 1
    while depth < n and math.prod(sizes[depth:]) * words > _CHAIN_BLOCK:
        depth += 1
    per_block = max(1, _CHAIN_BLOCK // (math.prod(sizes[depth:]) * words))
    prefixes = math.prod(sizes[:depth])
    # [:, word, r_n, ..., r_depth, prefix] and the axes that make it
    # [:, prefix, r_depth, ..., r_n, word]
    shape = (2, words, *sizes[: depth - 1 : -1], -1)
    axes = (0, *range(len(shape) - 1, 0, -1))
    for start in range(0, prefixes, per_block):
        r = np.unravel_index(np.arange(start, min(start + per_block, prefixes)), sizes[:depth])
        t = first[:, None, r[0]]
        for k in range(depth - 1):
            t = _times(t, steps[k][:, :, r[k + 1], r[k]])
        t = _times(t[:, :, None], steps[depth - 1][..., r[-1]])
        for step in steps[depth:]:
            t = _times(t[:, :, None], step[..., None]).reshape(2, words, step.shape[2], -1)
        # many chains and few words: one accumulate along the chains per word
        terms = t.reshape(shape).transpose(axes).reshape(2, -1, words)
        total = np.add.accumulate(np.concatenate([total[:, None], terms], axis=1), axis=1)[:, -1]
    return total


def dense_word_value(triple: GenerativeTriple, structure, word: ObservableWord) -> complex:
    """The word's value by brute-force summation over all index chains.

    The referee stays independent of the folded evaluation path: it forms
    its own sliced site tensors from the map coefficients (_site_tensors)
    and sums the products of chain entries against the initial state over
    every index chain (_chain_totals), with no einsum, matmul or fold.  It
    holds the sites, and the chains, as float64 arrays of real and
    imaginary parts, forms every product as CPython forms a complex
    product and adds every sum's terms one by one in lexicographic order
    from +0: the value has the bits of a loop over Python complex
    numbers.  Terms that are exact zeros are left out: those of a
    coefficient entry that is 0, and the chains through an entry whose
    phi0 entry, or whose column in every site tensor, is 0.  Such a term
    is a finite value times 0, and adding +-0 to a sum that starts at +0
    leaves it as it is.  That needs every product finite, so the value is
    complex(nan, nan) when an entry of phi0, of either coefficient tensor
    or of the word is not finite, and when their sizes could carry a
    product past 1e300, near the top of the float range.  Time grows as
    (hidden_dim^2)^sites, so words beyond 8 sites are refused, as is an
    empty word; the chains go in blocks of _CHAIN_BLOCK products.  The
    word is one span for _span_values.
    """
    structure = CausalStructure.parse(structure)
    word.check_dims(triple)
    span = (np.array([0]), np.array([len(word)]))
    return complex(_span_values(triple, structure, word.xs, word.ys, *span)[0])


def dense_suffix_values(triple: GenerativeTriple, structure, xs, ys) -> np.ndarray:
    """Every suffix value of each word by brute-force summation over all index chains.

    xs[W, n, h, h] and ys[W, n, o, o] hold W words of n sites; values[w, j]
    is the value of word w's last j + 1 sites, as hqmm.fold_suffixes
    indexes them.  The suffixes are overlapping spans for _span_values,
    and each value has the bits of dense_word_value on its suffix alone.
    """
    structure = CausalStructure.parse(structure)
    xs, ys = np.asarray(xs, dtype=complex), np.asarray(ys, dtype=complex)
    h, o = triple.hidden_dim, triple.obs_dim
    if xs.ndim != 4 or xs.shape[2:] != (h, h) or ys.shape != xs.shape[:2] + (o, o):
        raise DimensionMismatchError("word sites", ("W", "n", h, h, o, o), (xs.shape, ys.shape))
    count, n = xs.shape[:2]
    if n == 0:
        raise ValueError("empty word; the oracle needs at least one site")
    # suffix j of word w ends where the word ends and has j + 1 sites
    lengths = np.tile(np.arange(1, n + 1), count)
    starts = np.repeat(np.arange(1, count + 1) * n, n) - lengths
    sites = (xs.reshape(-1, h, h), ys.reshape(-1, o, o))
    return _span_values(triple, structure, *sites, starts, lengths).reshape(count, n)


def _span_values(triple: GenerativeTriple, structure, xs, ys, starts, lengths) -> np.ndarray:
    """Values of spans of the stacked sites xs[N, h, h], ys[N, o, o], as dense_word_value.

    Span i has the lengths[i] sites from starts[i]; spans may share sites,
    and each value has the bits of its span alone.
    """
    if lengths.min(initial=1) == 0:
        raise ValueError("empty word; the oracle needs at least one site")
    if lengths.max(initial=0) > 8:
        raise ValueError(f"dense contraction is limited to 8 sites, got {lengths.max()}")
    h = triple.hidden_dim
    values = np.full(len(starts), complex(math.nan, math.nan))
    # every partial sum and product is at most (1 + |phi0|) growth^n, with
    # the largest entries of phi0 and the span and the coefficient sums; a
    # non-finite entry or a sum past the float range makes the bound nan or
    # inf, without a warning: numpy's overflow is ignored, Python's is quiet
    top_phi0 = float(np.abs(triple.phi0).max())
    with np.errstate(over="ignore"):
        sum_t, sum_e = (float(np.abs(m.coeff).sum()) for m in (triple.transition, triple.emission))
    # span i's sites, its first one again past its end
    offsets = np.arange(lengths.max(initial=0))
    cover = starts[:, None] + np.where(offsets < lengths[:, None], offsets, 0)
    top_x, top_y = (np.abs(a).max(axis=(1, 2))[cover].max(axis=1, initial=0) for a in (xs, ys))
    finite = np.array([
        math.prod([1.0 + top_phi0] + [(1.0 + sum_t) * (1.0 + sum_e) * (1.0 + x) * (1.0 + y)] * n)
        < 1e300
        for x, y, n in zip(top_x.tolist(), top_y.tolist(), lengths.tolist())
    ])
    if not finite.any():
        return values
    # a site of no finite span is set to 0, so that no product is out of
    # range; its tensor, all 0, is not summed
    on_site = np.zeros(len(xs), dtype=bool)
    on_site[cover[finite]] = True
    xs, ys = (np.where(on_site[:, None, None], a, 0) for a in (xs, ys))
    # as [:, site, r', r], the layout of _chain_totals' steps
    sites = _site_tensors(structure, triple, xs, ys).transpose(0, 3, 2, 1)
    # chain entry r is the index pair (p, q) = divmod(r, h), and phi0 reads
    # rho0[q, p].  An entry whose factor is 0 wherever it stands (a first
    # entry 0, a column 0 in every site tensor) leaves only terms +-0, so
    # the chains through it are left out, as zero coefficient entries are.
    first = _parts(triple.phi0.T.reshape(-1))
    heads = np.flatnonzero(first.any(axis=0))
    links = np.flatnonzero(sites.any(axis=(0, 1, 3)))
    # a chain ends on the diagonal
    tails = links[links % (h + 1) == 0]
    for n in sorted(set(lengths[finite].tolist())):
        group = np.flatnonzero(finite & (lengths == n))
        # each step's tensors at the kept entries, from rows[k] to cols[k]
        rows, cols = [heads] + [links] * (n - 1), [links] * (n - 1) + [tails]
        steps = [
            sites[:, (starts[group] + k)[:, None, None], cols[k][:, None], rows[k]]
            for k in range(n)
        ]
        values.real[group], values.imag[group] = _chain_totals(first[:, heads], steps)
    return values
