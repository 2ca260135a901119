"""Generative triples, causal structures and finite-volume state evaluation.

A generative triple is an initial state phi0 on the hidden algebra together
with two completely positive unital maps, a transition map on
hidden tensor hidden and an emission map on hidden tensor observable.  A
word of site observables (X_k, Y_k) is evaluated in the Heisenberg picture
by folding sliced one-site maps from the last site down to the first and
closing with phi0.  The fold never materializes a tensor product over
sites, so the cost is linear in the word length.

Both maps are opalg.OperatorMap on the flattened product of their two
inputs; the triple fixes the factors, h^2 for the transition and h o for
the emission.  composite_map is the one contraction of the transition
with the emission, sliced_coefficients the one way from site pairs to
transfers, and fold_suffixes the one fold.  finite_volume_state folds a
word apart from all three.

Random sites come from Gaussians through one map, unit_sites, which
turns each row of Gaussians into a unit-norm site pair, row by row.
Nothing here draws: cli.run makes a verify run's one draw and hands
each row its arrays.  kolmogorov_check here, and the global symmetry
check, take one word per sample and read every shorter length off its
suffixes, as the last k sites of a word of independent sites are a word
of k independent sites; each value has the bits of folding its suffix
alone.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import product
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import ConfigError, DimensionMismatchError, config_int, load_json
from .opalg import (
    ComplexOperator,
    OperatorMap,
    certify_cpu,
    check_stacks,
    frozen_square_stack,
    operator_norms,
    positivity_defects,
)

if TYPE_CHECKING:
    from .aklt import AkltTensors
    from .symmetry import SymmetryAction


class CausalStructure(enum.Enum):
    """Order in which transition and emission act inside a one-site map."""

    CONVENTIONAL = "conventional"
    CAUSAL = "causal"

    @classmethod
    def parse(cls, value) -> "CausalStructure":
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value))
        except ValueError:
            raise ConfigError(
                f"unknown causal structure {value!r}; expected 'conventional' or 'causal'"
            ) from None


@dataclass(frozen=True)
class GenerativeTriple:
    """Initial state and maps of a hidden model; the maps must take h^2 -> h and h o -> h."""

    hidden_dim: int
    obs_dim: int
    phi0: np.ndarray  # (h, h) initial state, read-only
    transition: OperatorMap  # hidden tensor hidden -> hidden
    emission: OperatorMap  # hidden tensor observable -> hidden

    def __post_init__(self):
        h, o = self.hidden_dim, self.obs_dim
        phi0 = frozen_square_stack(self.phi0, 2, "phi0")
        if phi0.shape != (h, h):
            raise DimensionMismatchError("phi0", (h, h), phi0.shape)
        object.__setattr__(self, "phi0", phi0)
        # each map reads the flattened product of its two inputs
        maps = (("transition", self.transition, h * h), ("emission", self.emission, h * o))
        for name, m, dim_in in maps:
            if (m.dim_in, m.dim_out) != (dim_in, h):
                raise DimensionMismatchError(name, (dim_in, h), (m.dim_in, m.dim_out))

    def defects(self) -> dict[str, float]:
        """How far phi0 is from a state and each map from CPU; all 0 for a valid triple.

        phi0 has its positivity_defects (hermiticity and negativity) and a
        trace deviation; each map has the three certify_cpu terms, prefixed
        with its name.  A non-finite phi0 or map gives nan for its
        positivity terms.
        """
        hermiticity, negativity = positivity_defects(self.phi0)
        out = {
            "phi0_hermiticity": hermiticity,
            "phi0_negativity": negativity,
            "phi0_trace": float(abs(np.trace(self.phi0) - 1.0)),
        }
        for name, m in (("transition", self.transition), ("emission", self.emission)):
            out.update({f"{name}_{term}": value for term, value in certify_cpu(m).items()})
        return out


@dataclass(frozen=True)
class Model:
    """A triple to check, with its causal structure and its report's "model" object.

    info holds the report's model keys in report order.  The built-in
    model also carries its symmetry action and tensors; a config-file
    model has neither, and the checks that need an action refuse it.
    """

    triple: GenerativeTriple
    structure: CausalStructure
    info: dict
    action: SymmetryAction | None = None
    tensors: AkltTensors | None = None


@dataclass(frozen=True)
class ObservableWord:
    """Finite word of site pairs: site k is (xs[k], ys[k]), hidden and physical.

    xs has shape (n, h, h) and ys (n, o, o); both are read-only complex copies.
    """

    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self):
        xs = frozen_square_stack(self.xs, 3, "hidden sites")
        ys = frozen_square_stack(self.ys, 3, "observable sites")
        if len(xs) != len(ys):
            raise DimensionMismatchError("word sites", len(xs), len(ys))
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)

    def __len__(self) -> int:
        return len(self.xs)

    @classmethod
    def from_pairs(cls, pairs: Sequence[tuple]) -> "ObservableWord":
        """Word from (x, y) site pairs of arrays or anything np.asarray reads as one."""
        if not pairs:
            raise ValueError("empty word; from_pairs needs at least one site pair")
        sites = [(np.asarray(x), np.asarray(y)) for x, y in pairs]
        first = (sites[0][0].shape, sites[0][1].shape)
        for k, (x, y) in enumerate(sites):
            if (x.shape, y.shape) != first:
                raise DimensionMismatchError(f"word site {k}", first, (x.shape, y.shape))
        return cls(np.asarray([x for x, _ in sites]), np.asarray([y for _, y in sites]))

    @classmethod
    def all_identity(cls, n_sites: int, hidden_dim: int, obs_dim: int) -> "ObservableWord":
        """The word of n_sites sites, each the identity on both slots."""
        return cls(
            np.broadcast_to(np.eye(hidden_dim), (n_sites, hidden_dim, hidden_dim)),
            np.broadcast_to(np.eye(obs_dim), (n_sites, obs_dim, obs_dim)),
        )

    def check_dims(self, triple: GenerativeTriple) -> None:
        h, o = triple.hidden_dim, triple.obs_dim
        sites = (self.xs.shape[1:], self.ys.shape[1:])
        if sites != ((h, h), (o, o)):
            raise DimensionMismatchError("word sites", ((h, h), (o, o)), sites)

    @classmethod
    def from_json_list(cls, items, hidden_dim: int, obs_dim: int) -> "ObservableWord":
        xs, ys = [], []
        for k, item in enumerate(items):
            if item == "I":
                item = {"X": "I", "Y": "I"}
            try:
                x = item["X"]
                y = item["Y"]
            except (TypeError, KeyError):
                raise ConfigError(f"word entry {k} needs keys 'X' and 'Y'") from None
            xs.append(np.eye(hidden_dim) if x == "I" else _operator_from_json(
                x, hidden_dim, f"word entry {k} X"
            ))
            ys.append(np.eye(obs_dim) if y == "I" else _operator_from_json(
                y, obs_dim, f"word entry {k} Y"
            ))
        return cls(np.asarray(xs), np.asarray(ys))


def _operator_from_json(obj, dim: int, what: str) -> np.ndarray:
    """A dim x dim operator read from a file's matrix object, or ConfigError."""
    try:
        op = ComplexOperator.from_json_dict(obj)
    except (KeyError, TypeError, ValueError) as err:
        raise ConfigError(f"{what} is not a complex matrix object: {err!r}") from None
    if op.dim != dim:
        raise ConfigError(f"{what} has dimension {op.dim}, expected {dim}")
    return op.entries


def _apply_sliced(
    triple: GenerativeTriple,
    structure: CausalStructure,
    x: np.ndarray,
    y: np.ndarray,
    z: np.ndarray,
) -> np.ndarray:
    if structure is CausalStructure.CONVENTIONAL:
        emitted = triple.emission.apply_array(np.kron(x, y))
        return triple.transition.apply_array(np.kron(emitted, z))
    linked = triple.transition.apply_array(np.kron(x, z))
    return triple.emission.apply_array(np.kron(linked, y))


def composite_map(triple: GenerativeTriple, structure) -> OperatorMap:
    """Full one-site map on hidden tensor hidden tensor observable.

    Slot order is (X, X', Y): current hidden, next hidden, physical.  The
    conventional structure feeds the emitted operator into the transition,
    the causal structure feeds the transition output into the emission.
    Either order is one matmul over the hidden pair (u, v) that the inner
    map writes and the outer map reads.  The batched fold and the sliced
    check see the two maps only through it.
    """
    structure = CausalStructure.parse(structure)
    h, o = triple.hidden_dim, triple.obs_dim
    t = triple.transition.coeff.reshape(h, h, h, h, h, h)  # (p, q, a, b, a', b')
    e = triple.emission.coeff.reshape(h, h, h, o, h, o)  # (p, q, a, c, a', c')
    if structure is CausalStructure.CONVENTIONAL:
        # T(E(x tensor y) tensor z): rows (p, q, b, b'), columns (a, c, a', c')
        outer = t.transpose(0, 1, 3, 5, 2, 4).reshape(h**4, h * h)
        coeff = (outer @ e.reshape(h * h, (h * o) ** 2)).reshape(h, h, h, h, h, o, h, o)
        coeff = coeff.transpose(0, 1, 4, 2, 5, 6, 3, 7)
    else:
        # E(T(x tensor z) tensor y): rows (p, q, c, c'), columns (a, b, a', b')
        outer = e.transpose(0, 1, 3, 5, 2, 4).reshape((h * o) ** 2, h * h)
        coeff = (outer @ t.reshape(h * h, h**4)).reshape(h, h, o, o, h, h, h, h)
        coeff = coeff.transpose(0, 1, 4, 5, 2, 6, 7, 3)
    total = h * h * o
    return OperatorMap(total, h, coeff.reshape(h, h, total, total))


def sliced_coefficients(
    triple: GenerativeTriple, structure, xs: np.ndarray, ys: np.ndarray
) -> np.ndarray:
    """Coefficient matrices of the sliced maps of site pairs xs[B, h, h], ys[B, o, o].

    Entry [k, p * h + q, i * h + j] is the (p, q) entry of the k-th sliced
    map applied to the matrix unit e_ij.  Row k is M P[k], where P[k] is
    the flat outer product of xs[k] and ys[k], index (a, a', c, c'), and M
    holds the composite_map coefficients with rows (p, q, i, j) and
    columns in that order: all rows come from one GEMM.  A GEMM row's
    bits do not depend on the other rows, but OpenBLAS sends a one-row
    GEMM to GEMV, which rounds differently, so a single pair is padded
    to two rows.
    """
    h, o = triple.hidden_dim, triple.obs_dim
    coeff = composite_map(triple, structure).coeff.reshape(h, h, h, h, o, h, h, o)
    m = coeff.transpose(0, 1, 3, 6, 2, 5, 4, 7).reshape(h**4, (h * o) ** 2)
    pairs = (xs.reshape(-1, h * h, 1) * ys.reshape(-1, 1, o * o)).reshape(-1, (h * o) ** 2)
    count = len(pairs)
    if count == 1:
        pairs = np.concatenate([pairs, pairs])
    return (pairs @ m.T)[:count].reshape(count, h * h, h * h)


def finite_volume_state(triple: GenerativeTriple, structure, word: ObservableWord) -> complex:
    """Value of the word under the folded one-site maps and phi0.

    The fold runs from the last site to the first, starting from the
    identity, with two map applications per site and no composite_map,
    and closes with phi0(.) = trace(rho0 .).  It is the tests' per-word
    reference and the path the word-eval benchmark times.
    """
    structure = CausalStructure.parse(structure)
    if len(word) == 0:
        raise ValueError("empty word; finite-volume states need at least one site")
    word.check_dims(triple)
    m = np.eye(triple.hidden_dim, dtype=complex)
    for k in range(len(word) - 1, -1, -1):
        m = _apply_sliced(triple, structure, word.xs[k], word.ys[k], m)
    return complex(np.trace(triple.phi0 @ m))


def fold_suffixes(
    triple: GenerativeTriple, transfers: np.ndarray, start: np.ndarray | None = None
) -> np.ndarray:
    """phi0 of every suffix of each word, folded from start: values[..., j] has the last j+1 sites.

    transfers[..., n, h^2, h^2] holds each word's n site transfers in
    order, over any leading word axes; start is one (h^2, 1) vector,
    vec(1) by default.  The fold runs last site first as stacked
    (h^2, h^2) @ (h^2, 1) products, m_j = T[n-1-j] ... T[n-1] start, and
    closes every m_j with vec(rho0^T), so values[..., n - 1] is the whole
    word.  Every step is a per-word product: each value has the bits of
    its suffix folded alone as a word of its own.
    """
    h2 = triple.hidden_dim**2
    n_sites = transfers.shape[-3]
    if n_sites == 0:
        raise ValueError("empty word; finite-volume states need at least one site")
    if start is None:
        start = np.eye(triple.hidden_dim, dtype=complex).reshape(h2, 1)
    m = np.broadcast_to(start, transfers.shape[:-3] + (h2, 1))
    suffixes = []
    for k in range(n_sites - 1, -1, -1):
        m = transfers[..., k, :, :] @ m
        suffixes.append(m)
    # phi0(m) = trace(rho0 m) = vec(rho0^T) . vec(m)
    close = triple.phi0.T.reshape(1, h2)
    return (close @ np.stack(suffixes, axis=-3)).reshape(transfers.shape[:-2])


def unit_sites(triple: GenerativeTriple, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Random site pairs xs[N, h, h], ys[N, o, o] from Gaussian rows g[N, 2 h^2 + 2 o^2].

    This is the one map from Gaussians to random sites.  A row holds the
    real then imaginary parts of x, then those of y, and each matrix is
    divided by its operator norm.  A row of Gaussians drawn from a
    generator gives, bit for bit, the site that the per-matrix reference
    random_operator in tests/util.py draws for x and then y.  Every step
    is per row, so a site's bits do not depend on N.
    """
    h, o = triple.hidden_dim, triple.obs_dim
    xs = (g[:, : h * h] + 1j * g[:, h * h : 2 * h * h]).reshape(-1, h, h)
    ys = (g[:, 2 * h * h : 2 * h * h + o * o] + 1j * g[:, 2 * h * h + o * o :]).reshape(-1, o, o)
    return xs / operator_norms(xs)[:, None, None], ys / operator_norms(ys)[:, None, None]


def kolmogorov_check(
    triple: GenerativeTriple, structure, xs: np.ndarray, ys: np.ndarray
) -> np.ndarray:
    """Per-word change of a word value under appending an identity site.

    For unital maps the appended site acts as the identity, so the value is
    unchanged; a non-unital transition shows up as a per-site inflation.
    xs[samples, n, h, h] and ys[samples, n, o, o] hold samples random
    words of n sites, and a shorter length's words are their suffixes.
    The rows are the one-site identity word, then for each length 1..n
    the all-identity word followed by the samples words of that length.
    A word's extension has the word's transfers followed by the identity
    site's transfer S(1, 1), and a sliced_coefficients row does not
    depend on its batch: so the words' transfers fold twice, from vec(1)
    for the words and from S(1, 1) vec(1) for their extensions, bit for
    bit as if the extensions were folded whole.

    Only the all-identity word and the samples random words are folded,
    each twice in one fold_suffixes batch.  One sliced_coefficients call
    gives the identity site's transfer and every random site's, and each
    deviation has the bits of folding its word and its extension alone.
    """
    h, o = triple.hidden_dim, triple.obs_dim
    h2 = h * h
    samples, n_sites = xs.shape[:2]
    check_stacks((samples, n_sites), ("hidden words", xs, h), ("observable words", ys, o))
    eye_x, eye_y = np.eye(h, dtype=complex), np.eye(o, dtype=complex)
    transfers = sliced_coefficients(
        triple,
        structure,
        np.concatenate([eye_x[None], xs.reshape(-1, h, h)]),
        np.concatenate([eye_y[None], ys.reshape(-1, o, o)]),
    )
    # the all-identity word, at least one site for the one-site identity
    # word; transfers[0] is S(1, 1)
    words = np.broadcast_to(transfers[:1], (1, max(n_sites, 1), h2, h2))
    if n_sites:
        words = np.concatenate([words, transfers[1:].reshape(samples, n_sites, h2, h2)])
    value = fold_suffixes(triple, words)
    appended = transfers[0] @ eye_x.reshape(h2, 1)
    extended = fold_suffixes(triple, words, appended)
    base = float(np.trace(triple.phi0).real)
    # length by length, the all-identity word then the random words
    by_length = np.abs(extended - value)[:, :n_sites].T.reshape(-1)
    return np.concatenate([np.abs(value[:1, 0] - base), by_length])


def classical_diagonal_triple(
    initial: np.ndarray, transition: np.ndarray, emission: np.ndarray
) -> GenerativeTriple:
    """Embed a classical hidden Markov chain as a diagonal generative triple.

    initial is a probability vector, transition a row-stochastic matrix over
    hidden states and emission a row-stochastic matrix from hidden states to
    symbols.  All maps dephase in the fixed bases, so word values of
    diagonal projectors reproduce classical likelihoods.
    """
    p = np.asarray(initial, dtype=float)
    t = np.asarray(transition, dtype=float)
    b = np.asarray(emission, dtype=float)
    d = p.size
    o = b.shape[1]
    if t.shape != (d, d):
        raise DimensionMismatchError("transition", (d, d), t.shape)
    if b.shape[0] != d:
        raise DimensionMismatchError("emission", d, b.shape[0])
    for name, mat in (("initial", p[None, :]), ("transition", t), ("emission", b)):
        if mat.min() < 0 or np.abs(mat.sum(axis=1) - 1.0).max() > 1e-12:
            raise ValueError(f"{name} is not stochastic")
    kraus_t = []
    for i, j in product(range(d), range(d)):
        k = np.zeros((d, d * d), dtype=complex)
        k[i, i * d + j] = np.sqrt(t[i, j])
        kraus_t.append(k)
    kraus_e = []
    for i, y in product(range(d), range(o)):
        k = np.zeros((d, d * o), dtype=complex)
        k[i, i * o + y] = np.sqrt(b[i, y])
        kraus_e.append(k)
    return GenerativeTriple(
        hidden_dim=d,
        obs_dim=o,
        phi0=np.diag(p),
        transition=OperatorMap.from_kraus(d * d, d, kraus_t),
        emission=OperatorMap.from_kraus(d * o, d, kraus_e),
    )


def partial_trace_map(d1: int, d2: int) -> OperatorMap:
    """Z1 tensor Z2 -> Z1 trace(Z2) / d2, the unital normalized partial trace.

    The Kraus operators are 1 tensor <j| / sqrt(d2) for each basis vector
    j of the second factor.
    """
    scale = 1.0 / np.sqrt(d2)
    kraus = []
    for j in range(d2):
        k = np.zeros((d1, d1 * d2), dtype=complex)
        for i in range(d1):
            k[i, i * d2 + j] = scale
        kraus.append(k)
    return OperatorMap.from_kraus(d1 * d2, d1, kraus)


def _kraus_from_json(obj: dict) -> np.ndarray:
    try:
        rows, cols = config_int("rows", obj["rows"]), config_int("cols", obj["cols"])
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj["im"], dtype=float)
    except (TypeError, KeyError, ValueError):
        raise ConfigError(
            "kraus entries need integer 'rows' and 'cols' and numeric 're' and 'im'"
        ) from None
    # two negative counts pass the size test below, and reshape refuses them
    if rows < 1 or cols < 1:
        raise ConfigError(f"kraus 'rows' and 'cols' must be at least 1, got {rows} and {cols}")
    if re.size != rows * cols or im.size != rows * cols:
        raise ConfigError(f"kraus entry arrays must have {rows * cols} values")
    return (re + 1j * im).reshape(rows, cols)


def _bipartite_from_config(obj, d1: int, d2: int, d_out: int, name: str) -> OperatorMap:
    if not isinstance(obj, dict):
        raise ConfigError(f"{name} must be an object with a 'kind', got {obj!r}")
    kind = obj.get("kind")
    if kind == "normalized_partial_trace":
        return partial_trace_map(d1, d2)
    if kind == "aklt_emission":
        from . import aklt

        tensors = aklt.build_tensors(obj.get("variant", "normalized_cartesian"))
        return aklt.emission_map(tensors)
    if kind == "kraus":
        entries = obj.get("kraus")
        if not isinstance(entries, list) or not entries:
            raise ConfigError(f"{name}: kind 'kraus' needs a nonempty 'kraus' list")
        kraus = [_kraus_from_json(entry) for entry in entries]
        return OperatorMap.from_kraus(d1 * d2, d_out, kraus)
    raise ConfigError(f"{name}: unknown map kind {kind!r}")


def triple_from_config(obj: dict) -> tuple[GenerativeTriple, CausalStructure]:
    """Build a triple from the model-config JSON schema."""
    try:
        h = config_int("hidden_dim", obj["hidden_dim"])
        o = config_int("obs_dim", obj["obs_dim"])
    except (TypeError, KeyError, ValueError):
        raise ConfigError("model config needs integer 'hidden_dim' and 'obs_dim'") from None
    if h < 1 or o < 1:
        raise ConfigError(f"model config dimensions must be at least 1, got {h} and {o}")
    phi0_obj = obj.get("phi0", "maximally_mixed")
    if phi0_obj == "maximally_mixed":
        phi0 = np.eye(h, dtype=complex) / h
    else:
        phi0 = _operator_from_json(phi0_obj, h, "phi0")
    if "E_H" not in obj or "E_HO" not in obj:
        raise ConfigError("model config needs 'E_H' and 'E_HO' map entries")
    structure = CausalStructure.parse(obj.get("structure", "conventional"))
    try:
        transition = _bipartite_from_config(obj["E_H"], h, h, h, "E_H")
        emission = _bipartite_from_config(obj["E_HO"], h, o, h, "E_HO")
        triple = GenerativeTriple(h, o, phi0, transition, emission)
    except DimensionMismatchError as err:
        raise ConfigError(f"model config dimensions are inconsistent: {err}") from None
    return triple, structure


def load_model_config(path: str) -> tuple[GenerativeTriple, CausalStructure]:
    return triple_from_config(load_json(path, "model config"))


def load_word(path: str, hidden_dim: int, obs_dim: int) -> ObservableWord:
    items = load_json(path, "word file")
    if not isinstance(items, list) or not items:
        raise ConfigError("word file must hold a nonempty JSON list of sites")
    return ObservableWord.from_json_list(items, hidden_dim, obs_dim)
