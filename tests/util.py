"""Shared independent oracles for the test suite.

Everything here deliberately avoids the library's own evaluation paths:
complete positivity is probed by pushing random states through the
extended map, likelihoods come from the textbook forward recursion,
matrix exponentials from a plain power series, and dense word values
from one product per index chain, over site tensors from loops that
visit every coefficient.  Spin generators come from the ladder
operators and the Levi-Civita symbol, and the gauge transform, commutator
pairing, trivial rep and transposed emission are their textbook formulas.
The extension-consistency reference folds each length's words and their
extensions whole, through fold_batch, rather than sharing the words'
transfers or reading a length off a longer word's suffixes, and the
global-invariance reference rotates and folds one volume at a time.
replay_row_inputs replays each verify row's draw as the rows made them
one by one, each from its own generator, for the run's one draw.
random_operator draws one unit-norm matrix at a time, the reference for
hqmm.unit_sites, and haar_rotations draws rotations from a generator.
The norm reference takes every Gram eigenvalue from LAPACK, with no
closed form for small matrices.

Beside the oracles, fold_batch folds a batch of equal-length words through
the library's own sliced_coefficients and fold_suffixes, random_words
draws words from a generator through the library's unit_sites (and
block_words in blocks from the end of the words), random_word draws one
word, and word_items and write_word spell a word out as a word file,
through matrix_json, which spells out one matrix object.
per_entry_word reads a valid word file one matrix at a time, the
reference for the one-pass ObservableWord.from_json_list.
unnormalized_partial_trace is the partial trace without its 1/d2, CP
but not unital.
readme_blocks and readme_model_config read the README's fenced code.
"""

from __future__ import annotations

import json
import re
import textwrap
from itertools import product
from pathlib import Path

import numpy as np

from hqmmsym import (
    CausalStructure,
    ObservableWord,
    OperatorMap,
    ProjectiveRep,
    cocycle_eval,
    haar_quaternions,
    operator_norm,
    unit_sites,
)
from hqmmsym.aklt import _site_tensors
from hqmmsym.grouprep import _compose
from hqmmsym.hqmm import fold_suffixes, sliced_coefficients
from hqmmsym.opalg import conjugate

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_blocks(language: str) -> list[str]:
    """The README's fenced blocks of a language, dedented (some sit inside list items)."""
    fence = re.compile(r"^( *)```" + language + r"\n(.*?)^\1```", re.M | re.S)
    return [textwrap.dedent(m.group(2)) for m in fence.finditer(README.read_text())]


def readme_model_config() -> dict:
    """The README's one model config, the JSON block that names a hidden_dim."""
    [config] = [block for block in readme_blocks("json") if '"hidden_dim"' in block]
    return json.loads(config)


def fold_batch(triple, structure, xs, ys) -> np.ndarray:
    """Values of the equal-length words xs[B, n, h, h], ys[B, n, o, o], folded as one batch.

    One sliced_coefficients call gives every site's transfer and one
    fold_suffixes call folds the words; each value has the bits of its
    word folded alone.
    """
    h, o = triple.hidden_dim, triple.obs_dim
    xs, ys = np.asarray(xs, dtype=complex), np.asarray(ys, dtype=complex)
    count, n_sites = xs.shape[:2]
    transfers = sliced_coefficients(triple, structure, xs.reshape(-1, h, h), ys.reshape(-1, o, o))
    return fold_suffixes(triple, transfers.reshape(count, n_sites, h * h, h * h))[:, -1]


def random_operator(rng: np.random.Generator, dim: int) -> np.ndarray:
    """One complex Gaussian matrix from rng, divided by its opalg.operator_norm.

    The per-matrix reference for hqmm.unit_sites, which divides its
    stacked sites by opalg.operator_norms: no norm depends on the rest of
    its stack, so both give the same matrices bit for bit.
    """
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return g / operator_norm(g)


def haar_rotations(rng: np.random.Generator, count: int) -> np.ndarray:
    """count Haar rotations: one draw of count rows of 4 Gaussians, decoded by haar_quaternions."""
    return haar_quaternions(rng.standard_normal((count, 4)))


def random_words(
    rng: np.random.Generator, triple, count: int, n_sites: int
) -> tuple[np.ndarray, np.ndarray]:
    """count random words as site stacks xs[count, n, h, h], ys[count, n, o, o].

    One draw from rng of a row of 2 h^2 + 2 o^2 Gaussians per site, word
    by word, decoded by hqmm.unit_sites: the stream that per-site
    random_operator calls, x then y, would consume.
    """
    h, o = triple.hidden_dim, triple.obs_dim
    g = rng.standard_normal((count * n_sites, 2 * h * h + 2 * o * o))
    xs, ys = unit_sites(triple, g)
    return xs.reshape(count, n_sites, h, h), ys.reshape(count, n_sites, o, o)


def random_word(rng: np.random.Generator, triple, n_sites: int) -> ObservableWord:
    """One word of n_sites random sites: a random_words draw of one word."""
    xs, ys = random_words(rng, triple, 1, n_sites)
    return ObservableWord(xs[0], ys[0])


def word_items(word: ObservableWord) -> list:
    """The word as a word file's list of sites, each an {"X", "Y"} pair of matrix objects."""
    h, o = word.xs.shape[1], word.ys.shape[1]
    return [
        {"X": matrix_json(x), "Y": matrix_json(y)}
        for x, y in zip(word.xs, word.ys)
    ]


def matrix_json(a) -> dict:
    """The files' matrix object of a square matrix: its dimension and parts, row by row."""
    a = np.asarray(a, dtype=complex)
    re = [float(x) for x in a.real.ravel()]
    im = [float(x) for x in a.imag.ravel()]
    return {"dim": len(a), "re": re, "im": im}


def per_entry_word(items, hidden_dim: int, obs_dim: int) -> ObservableWord:
    """The word of a valid word file's sites, each matrix object read on its own.

    Each object becomes its own complex matrix, (re + i im) reshaped to
    dim x dim, an "I" slot np.eye, and each slot one np.asarray of them.
    """
    xs, ys = [], []
    for item in items:
        if item == "I":
            item = {"X": "I", "Y": "I"}
        for mats, obj, dim in ((xs, item["X"], hidden_dim), (ys, item["Y"], obs_dim)):
            if obj == "I":
                mats.append(np.eye(dim))
            else:
                re = np.asarray(obj["re"], dtype=float)
                im = np.asarray(obj["im"], dtype=float)
                mats.append((re + 1j * im).reshape(obj["dim"], obj["dim"]))
    return ObservableWord(np.asarray(xs), np.asarray(ys))


def write_word(path, word: ObservableWord) -> None:
    """Write the word to path as a word file."""
    path.write_text(json.dumps(word_items(word)))


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


def spin_matrices(j: float) -> np.ndarray:
    """(J_x, J_y, J_z) in the |j, m> basis, m = j .. -j, from the ladder operators."""
    dim = int(round(2 * j)) + 1
    m = j - np.arange(dim)
    jplus = np.zeros((dim, dim), dtype=complex)
    for k in range(1, dim):
        jplus[k - 1, k] = np.sqrt(j * (j + 1) - m[k] * (m[k] + 1))
    jminus = jplus.conj().T
    return np.stack([(jplus + jminus) / 2, (jplus - jminus) / (2j), np.diag(m).astype(complex)])


def cartesian_spin_one_generators() -> np.ndarray:
    """(J_x, J_y, J_z) on Cartesian vectors: (J_a)_bc = -i epsilon_abc."""
    eps = np.zeros((3, 3, 3))
    for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        eps[a, b, c], eps[a, c, b] = 1.0, -1.0
    return -1j * eps


def rotation_exponentials(q: np.ndarray, generators: np.ndarray) -> np.ndarray:
    """exp(-i theta n.J) by power series for each canonical quaternion q[k] of a stack.

    theta and n are read off the quaternion (cos(theta/2), sin(theta/2) n);
    the identity has no axis, so every row must be a proper rotation.
    """
    sine = np.linalg.norm(q[:, 1:], axis=-1)
    theta = 2.0 * np.arctan2(sine, q[:, 0])
    angle_axis = theta[:, None] * q[:, 1:] / sine[:, None]
    return np.stack([expm_series(-1j * np.einsum("a,abc->bc", v, generators)) for v in angle_axis])


def gauge_transform(cocycle, lam):
    """The cocycle omega'(g, h) = lam(g) lam(h) conj(lam(gh)) omega(g, h).

    lam maps a quaternion stack q[..., 4] to unimodular values over its
    leading axes; omega' is omega times the coboundary of lam.
    """
    return lambda qg, qh: lam(qg) * lam(qh) * np.conj(lam(_compose(qg, qh))) * cocycle(qg, qh)


def commutator_pairing(qg, qh) -> np.ndarray:
    """omega(g, h) / omega(h, g) of the section cocycle, for commuting stacks qg, qh."""
    return cocycle_eval(qg, qh).astype(complex) / cocycle_eval(qh, qg)


def trivial_rep(dim: int) -> ProjectiveRep:
    """Every rotation acts as the dim x dim identity."""
    eye = np.eye(dim, dtype=complex)
    return ProjectiveRep(dim, lambda q: np.broadcast_to(eye, (*np.shape(q)[:-1], dim, dim)))


def transpose_physical_slot(m: OperatorMap) -> OperatorMap:
    """The emission X tensor Y -> m(X tensor Y^T): m with its physical input slot transposed.

    An emission maps hidden tensor physical to hidden, so the hidden
    dimension is m.dim_out.  This reads the physical coefficient as
    <k'|Y|k> instead of <k|Y|k'>, and the result is not completely positive.
    """
    d = h = m.dim_out
    o = m.dim_in // h
    coeff = m.coeff.reshape(d, d, h, o, h, o).swapaxes(3, 5)
    return OperatorMap(m.dim_in, d, coeff.reshape(d, d, m.dim_in, m.dim_in))


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


def partial_trace_second(w: np.ndarray, d1: int, d2: int) -> np.ndarray:
    """Trace out the second tensor factor by explicit index loops."""
    out = np.zeros((d1, d1), dtype=complex)
    for a in range(d1):
        for b in range(d1):
            for j in range(d2):
                out[a, b] += w[a * d2 + j, b * d2 + j]
    return out


def unnormalized_partial_trace(d1: int, d2: int) -> OperatorMap:
    """Z1 tensor Z2 -> Z1 trace(Z2), from the Kraus operators 1 tensor <j|: CP, not unital."""
    kraus = []
    for j in range(d2):
        k = np.zeros((d1, d1 * d2), dtype=complex)
        for i in range(d1):
            k[i, i * d2 + j] = 1.0
        kraus.append(k)
    return OperatorMap.from_kraus(d1 * d2, d1, kraus)


def random_stochastic(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    m = rng.uniform(0.1, 1.0, size=(rows, cols))
    return m / m.sum(axis=1, keepdims=True)


def gram_eigvalsh_norms(b: np.ndarray) -> np.ndarray:
    """opalg._unit_scale_norms with one eigvalsh for every size.

    The Gram matrix on the smaller side comes from a stacked matmul and
    its largest eigenvalue from one eigvalsh of the stack, as the kernel
    computed every norm before it had closed forms for 2 x 2 and 3 x 3.
    """
    bh = np.swapaxes(b, -1, -2).conj()
    gram = bh @ b if b.shape[-1] <= b.shape[-2] else b @ bh
    return np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[..., -1], 0.0))


def assert_cpu(defects: dict, tol: float = 1e-10) -> None:
    """Each term of a certify_cpu dict is within tol (nan is not)."""
    assert all(value <= tol for value in defects.values()), defects


def full_loop_site_tensor(
    structure: CausalStructure,
    c_h: list,
    c_ho: list,
    x: list,
    y: list,
    h: int,
    o: int,
) -> list[list[complex]]:
    """One site of aklt._site_tensors with every coefficient visited, zeros included.

    The same sums as the referee's, over the same nested lists and in the
    same lexicographic order, but no term is skipped: a coefficient or an
    emitted or linked factor that is exactly 0 still adds its product.
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


def site_tensors(triple, structure, word, full_loops: bool = False) -> list:
    """Each site's tensor, from the referee's _site_tensors or from full_loop_site_tensor."""
    structure = CausalStructure.parse(structure)
    h, o = triple.hidden_dim, triple.obs_dim
    c_h = triple.transition.coeff.tolist()
    c_ho = triple.emission.coeff.tolist()
    sites = zip(word.xs.tolist(), word.ys.tolist())
    if full_loops:
        return [full_loop_site_tensor(structure, c_h, c_ho, x, y, h, o) for x, y in sites]
    parts = _site_tensors(structure, triple, word.xs, word.ys).transpose(0, 3, 1, 2).tolist()
    return [
        [[complex(a, b) for a, b in zip(re_row, im_row)] for re_row, im_row in zip(*site)]
        for site in zip(*parts)
    ]


def dense_chain_value(triple, structure, word, full_loops: bool = False) -> complex:
    """aklt.dense_word_value with one full product per index chain.

    The site tensors are the referee's own, or with full_loops those of
    full_loop_site_tensor.  Every chain is walked from its first entry,
    zero entries included, off-diagonal endings are skipped, and the
    terms are added in lexicographic order of the chains.  Sharing chain
    prefixes and skipping exact zeros must give the same bits.
    """
    n = len(word)
    h = triple.hidden_dim
    sites = site_tensors(triple, structure, word, full_loops)
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


def two_batch_kolmogorov_check(triple, structure, xs, ys) -> np.ndarray:
    """hqmm.kolmogorov_check with each length's words and extensions folded whole.

    xs[samples, n, h, h], ys[samples, n, o, o] are the random words; a
    length's words are their suffixes of that length.  For each length
    the words and their extensions, which end with one more identity
    site, go through fold_batch as two separate batches, so the
    extensions' transfers are computed again rather than shared, and no
    length is read off a longer word's fold.
    """
    h, o = triple.hidden_dim, triple.obs_dim
    samples, depth = xs.shape[0], xs.shape[1] + 1
    eye_x = np.eye(h, dtype=complex)
    eye_y = np.eye(o, dtype=complex)
    base = float(np.trace(triple.phi0).real)
    one_site = fold_batch(triple, structure, eye_x[None, None], eye_y[None, None])
    deviations = [np.abs(one_site - base)]
    for n_sites in range(1, depth):
        words_x = np.concatenate([np.broadcast_to(eye_x, (1, n_sites, h, h)), xs[:, -n_sites:]])
        words_y = np.concatenate([np.broadcast_to(eye_y, (1, n_sites, o, o)), ys[:, -n_sites:]])
        count = samples + 1
        value = fold_batch(triple, structure, words_x, words_y)
        extended = fold_batch(
            triple,
            structure,
            np.concatenate([words_x, np.broadcast_to(eye_x, (count, 1, h, h))], axis=1),
            np.concatenate([words_y, np.broadcast_to(eye_y, (count, 1, o, o))], axis=1),
        )
        deviations.append(np.abs(extended - value))
    return np.concatenate(deviations)


def per_volume_global_invariance(triple, structure, u, r, xs, ys) -> list[np.ndarray]:
    """symmetry.check_global_invariance with each volume rotated and folded as its own batch.

    Volume by volume, the words are the suffixes of xs[samples, n_max + 1,
    h, h] and ys, rotated site by site by u[k] and r[k], and one
    fold_batch call folds the words followed by their rotations.  The
    sites are rotated by opalg.conjugate, as the check rotates them, on
    each volume's stack alone.
    """
    samples = len(u)
    by_volume = []
    for n in range(xs.shape[1]):
        words_x, words_y = xs[:, -(n + 1) :], ys[:, -(n + 1) :]
        values = fold_batch(
            triple,
            structure,
            np.concatenate([words_x, conjugate(u[:, None], words_x)]),
            np.concatenate([words_y, conjugate(r[:, None], words_y)]),
        )
        by_volume.append(np.abs(values[samples:] - values[:samples]))
    return by_volume


def block_words(rng: np.random.Generator, triple, n_sites: int, count: int) -> tuple:
    """count random words of n_sites sites, drawn in blocks from the end of the words.

    Block j holds every word's j-th site from the end, as the global and
    kolmogorov rows read their words, so a shorter length's words are
    the first blocks of the same stream.
    """
    xs, ys = random_words(rng, triple, n_sites, count)
    return xs[::-1].swapaxes(0, 1), ys[::-1].swapaxes(0, 1)


def global_draw(seed: int, triple, action, n_max: int, samples: int) -> tuple:
    """The global row's inputs (u, r, xs, ys), drawn from a generator of its own.

    samples Haar rotations and their pi and rho stacks, then one word of
    n_max + 1 sites per sample in blocks from the end of the words.
    """
    rng = np.random.default_rng(seed)
    q = haar_rotations(rng, samples)
    words = block_words(rng, triple, n_max + 1, samples)
    return (action.pi.stack(q), action.rho.stack(q), *words)


def kolmogorov_draw(seed: int, triple, depth: int, samples: int) -> tuple:
    """The kolmogorov row's words (xs, ys) of depth - 1 sites, drawn from a generator of its own."""
    return block_words(np.random.default_rng(seed), triple, max(depth - 1, 0), samples)


def replay_row_inputs(model, config) -> dict[str, tuple]:
    """Each verify row's inputs, drawn row by row, each row from its own default_rng(config.seed).

    The reference for cli.draw: every row restarts the generator and
    draws what it reads with haar_rotations and random_words.  The
    sampled rows draw samples rotations: initial and transition read
    their pi stack alone, emission and intertwining their pi and rho
    stacks, and sliced those and one site per sample drawn after them.
    cocycle draws 2 samples rotations and pairs them off; global draws
    as global_draw and kolmogorov as kolmogorov_draw, at depth n_max;
    oracle draws its words of 5 sites word by word.  The rows that need
    the symmetry action are left out for a config-file model.
    """
    triple, c = model.triple, config
    words = -(-min(c.samples, 20) // 5)
    inputs = {
        "cpu": (),
        "kolmogorov": kolmogorov_draw(c.seed, triple, c.n_max, c.global_samples),
        "oracle": random_words(np.random.default_rng(c.seed), triple, words, 5),
    }
    if model.action is None:
        return inputs
    action = model.action
    pairs = haar_rotations(np.random.default_rng(c.seed), 2 * c.samples)
    inputs["cocycle"] = (pairs[0::2], pairs[1::2])
    rng = np.random.default_rng(c.seed)
    q = haar_rotations(rng, c.samples)
    xs, ys = random_words(rng, triple, c.samples, 1)
    u, r = action.pi.stack(q), action.rho.stack(q)
    for name in ("initial", "transition"):
        inputs[name] = (u,)
    for name in ("emission", "intertwining"):
        inputs[name] = (u, r)
    inputs["sliced"] = (u, r, xs[:, 0], ys[:, 0])
    inputs["global"] = global_draw(c.seed, triple, action, c.n_max, c.global_samples)
    return inputs
