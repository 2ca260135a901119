"""The batched contraction core against the per-word and per-sample references.

The batched fold, the batched draws and the closed-form conjugation
defect replace loops in the symmetry checks, kolmogorov_check shares
each word's transfers with its extension, and check_global_invariance
and kolmogorov_check read every volume or length off the suffixes of one
word per sample; each is compared here with the path it replaces.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import util
from hqmmsym import (
    BipartiteMap,
    ComplexOperator,
    GenerativeTriple,
    ObservableWord,
    OperatorMap,
    SymmetryAction,
    build_model,
    build_tensors,
    check_global_invariance,
    classical_diagonal_triple,
    composite_map,
    emission_map,
    finite_volume_state,
    finite_volume_states,
    kolmogorov_check,
    operator_norm,
    operator_norms,
    random_word,
    random_words,
    spin_half_rep,
    spin_one_rep,
    worst_deviation,
)
from hqmmsym import opalg, symmetry
from hqmmsym.aklt import transition_map
from hqmmsym.opalg import _unit_scale_norms
from hqmmsym.hqmm import (
    CausalStructure,
    _apply_sliced,
    fold_suffixes,
    fold_words,
    sliced_coefficients,
    triple_from_config,
)
from hqmmsym.sampling import random_operator, rng_from
from hqmmsym.symmetry import _conjugation_defects, check_result


def _classical():
    rng = rng_from(4)
    initial = util.random_stochastic(rng, 1, 4)[0]
    return classical_diagonal_triple(
        initial, util.random_stochastic(rng, 4, 4), util.random_stochastic(rng, 4, 3)
    )


def _random_unital():
    # h = 3 and o = 2, with a transition that keeps both hidden factors, so
    # the two structures give different composite maps
    rng = rng_from(12)
    return GenerativeTriple(
        3,
        2,
        np.eye(3) / 3,
        BipartiteMap.build_from_kraus(3, 3, 3, util.random_unital_kraus(rng, 9, 3, 3)),
        BipartiteMap.build_from_kraus(3, 2, 3, util.random_unital_kraus(rng, 6, 3, 3)),
    )


TRIPLES = {"chain": build_model("normalized_cartesian").triple, "classical4": _classical()}


def _as_word(xs, ys):
    h, o = xs.shape[-1], ys.shape[-1]
    return ObservableWord.from_pairs(
        [(ComplexOperator(h, x), ComplexOperator(o, y)) for x, y in zip(xs, ys)]
    )


@pytest.mark.parametrize("name", sorted(TRIPLES))
@pytest.mark.parametrize("structure", ["conventional", "causal"])
@pytest.mark.parametrize("count", [1, 7])
def test_batched_fold_matches_single_word_fold(name, structure, count):
    triple = TRIPLES[name]
    rng = rng_from(count)
    for n_sites in range(1, 13):
        xs, ys = random_words(rng, triple, count, n_sites)
        batched = finite_volume_states(triple, structure, xs, ys)
        assert batched.shape == (count,)
        for k in range(count):
            single = finite_volume_state(triple, structure, _as_word(xs[k], ys[k]))
            assert abs(batched[k] - single) < 1e-13


@pytest.mark.parametrize("name", sorted(TRIPLES))
@pytest.mark.parametrize("structure", ["conventional", "causal"])
def test_each_word_folded_alone_equals_its_row_of_the_batch(name, structure):
    # global and kolmogorov witnesses are (volume, sample) pairs, replayed
    # by folding that sample's suffix: a row must keep its bits without
    # the rest of its batch
    triple = TRIPLES[name]
    for n_sites in (1, 3, 7):
        xs, ys = random_words(rng_from(20 + n_sites), triple, 32, n_sites)
        batch = finite_volume_states(triple, structure, xs, ys)
        for k in range(32):
            alone = finite_volume_states(triple, structure, xs[k : k + 1], ys[k : k + 1])
            assert np.array_equal(alone, batch[k : k + 1]), (n_sites, k)


@pytest.mark.parametrize("name", sorted(TRIPLES))
@pytest.mark.parametrize("structure", ["conventional", "causal"])
def test_every_suffix_of_the_fold_has_the_bits_of_the_suffix_folded_alone(name, structure):
    # values[:, j] is each word's last j + 1 sites, as a word of its own
    triple = TRIPLES[name]
    h, o = triple.hidden_dim, triple.obs_dim
    xs, ys = random_words(rng_from(31), triple, 6, 5)
    transfers = sliced_coefficients(triple, structure, xs.reshape(-1, h, h), ys.reshape(-1, o, o))
    transfers = transfers.reshape(6, 5, h * h, h * h)
    values = fold_suffixes(triple, transfers)
    assert values.shape == (6, 5)
    for j in range(5):
        alone = finite_volume_states(triple, structure, xs[:, 4 - j :], ys[:, 4 - j :])
        assert values[:, j].tobytes() == alone.tobytes(), j
    # any leading word axes: the batch as 2 x 3 words has the same bits
    grid = fold_suffixes(triple, transfers.reshape(2, 3, 5, h * h, h * h))
    assert grid.shape == (2, 3, 5)
    assert grid.tobytes() == values.tobytes()
    with pytest.raises(ValueError, match="empty word"):
        fold_suffixes(triple, transfers[:, :0])


def _fold_alone(triple, structure, xs, ys):
    """finite_volume_states on the one word of site stacks xs[n, h, h], ys[n, o, o]."""
    return finite_volume_states(triple, structure, xs[None], ys[None])


@pytest.mark.parametrize("name", sorted(TRIPLES))
@pytest.mark.parametrize("structure", ["conventional", "causal"])
def test_ragged_interleaved_words_fold_with_the_bits_of_each_word_alone(name, structure):
    # word i takes the next lengths[i] transfers; the lengths interleave,
    # so the words of one length are not consecutive in the stack
    triple = TRIPLES[name]
    h, o = triple.hidden_dim, triple.obs_dim
    lengths = [3, 1, 3, 2, 1, 5]
    xs, ys = (sites[0] for sites in random_words(rng_from(9), triple, 1, sum(lengths)))
    transfers = sliced_coefficients(triple, structure, xs, ys)
    words = [slice(end - n, end) for n, end in zip(lengths, np.cumsum(lengths))]
    values = fold_words(triple, transfers, lengths)
    assert values.shape == (len(lengths),)
    for i, w in enumerate(words):
        alone = _fold_alone(triple, structure, xs[w], ys[w])
        assert values[i : i + 1].tobytes() == alone.tobytes(), (i, lengths[i])
    # a batch of one word, of three sites and of one
    assert fold_words(triple, transfers[:3], [3]).tobytes() == values[:1].tobytes()
    assert fold_words(triple, transfers[3:4], [1]).tobytes() == values[1:2].tobytes()
    # folding from S(1, 1) vec(1) is folding each word with an identity site appended
    eye_x, eye_y = np.eye(h, dtype=complex)[None], np.eye(o, dtype=complex)[None]
    identity_site = sliced_coefficients(triple, structure, eye_x, eye_y)[0]
    start = identity_site @ np.eye(h, dtype=complex).reshape(h * h, 1)
    extended = fold_words(triple, transfers, lengths, start)
    for i, w in enumerate(words):
        alone = _fold_alone(
            triple, structure, np.concatenate([xs[w], eye_x]), np.concatenate([ys[w], eye_y])
        )
        assert extended[i : i + 1].tobytes() == alone.tobytes(), (i, lengths[i])
    with pytest.raises(ValueError, match="dimension mismatch"):
        fold_words(triple, transfers, lengths[:-1])


def test_batched_fold_validates_shapes():
    triple = TRIPLES["chain"]
    xs = np.ones((2, 3, 2, 2), dtype=complex)
    ys = np.ones((2, 3, 3, 3), dtype=complex)
    with pytest.raises(ValueError, match="empty word"):
        finite_volume_states(triple, "conventional", xs[:, :0], ys[:, :0])
    with pytest.raises(ValueError, match="dimension mismatch"):
        finite_volume_states(triple, "conventional", ys, ys)
    with pytest.raises(ValueError, match="dimension mismatch"):
        finite_volume_states(triple, "conventional", xs, ys[:, :2])


@pytest.mark.parametrize("name", sorted(TRIPLES))
def test_batched_draws_reproduce_the_single_draw_streams(name):
    triple = TRIPLES[name]
    h, o = triple.hidden_dim, triple.obs_dim
    # words of 4 sites, as global and kolmogorov draw them, and words of one
    # site, as the sliced check draws them
    for count, n_sites in ((5, 4), (6, 1)):
        xs, ys = random_words(rng_from(3), triple, count, n_sites)
        ref = rng_from(3)
        for k in range(count):
            for s in range(n_sites):
                assert np.array_equal(xs[k, s], random_operator(ref, h))
                assert np.array_equal(ys[k, s], random_operator(ref, o))
    words = [random_word(rng_from(9), triple, 3)]
    xs, ys = random_words(rng_from(9), triple, 1, 3)
    assert np.array_equal(xs[0], words[0].xs)
    assert np.array_equal(ys[0], words[0].ys)


def test_stacked_norms_equal_single_norms():
    rng = rng_from(5)
    for shape in [(2, 2), (6, 6), (12, 12), (4, 16)]:
        a = rng.standard_normal((40, *shape)) + 1j * rng.standard_normal((40, *shape))
        assert np.array_equal(operator_norms(a), [operator_norm(m) for m in a])


@pytest.mark.parametrize("scale", [1e-300, 1e-160, 1e-16, 1.0, 1e150, 1e300])
@pytest.mark.parametrize("m, n", [(1, 1), (2, 2), (3, 3), (4, 4), (8, 8), (12, 12), (4, 16), (16, 4)])
def test_norms_match_the_svd_at_every_scale(m, n, scale):
    # an unscaled Gram matrix overflows or underflows from 1e+-160 on
    rng = rng_from(m * 100 + n)
    gaussian = rng.standard_normal((20, m, n)) + 1j * rng.standard_normal((20, m, n))
    # an isometry of the longer side: every singular value is 1
    equal, _ = np.linalg.qr(random_operator(rng, max(m, n))[:, : min(m, n)])
    if m < n:
        equal = equal.T
    rank_one = np.einsum("ki,kj->kij", gaussian[:, :, 0], gaussian[:, 0, :].conj())
    a = scale * np.concatenate([gaussian, equal[None], rank_one])
    want = np.linalg.svd(a, compute_uv=False)[..., 0]
    norms = operator_norms(np.concatenate([a, np.zeros((1, m, n))]))
    assert norms[-1] == 0.0
    assert np.all(np.abs(norms[:-1] - want) <= 8 * max(m, n) * np.finfo(float).eps * want)
    assert np.array_equal(norms[:-1], operator_norms(a))
    assert operator_norm(np.zeros((m, n))) == 0.0


def test_stacked_norms_report_non_finite_matrices_as_nan():
    a = np.stack([np.eye(3), np.eye(3), 2 * np.eye(3)]).astype(complex)
    a[1, 0, 2] = np.nan
    norms = operator_norms(a)
    assert norms[0] == 1.0 and np.isnan(norms[1]) and norms[2] == 2.0
    assert np.isnan(operator_norm(a[1]))


def _haar_unitaries(rng, count: int, dim: int) -> np.ndarray:
    """Haar unitaries: the Q of a complex Gaussian's QR, times the phases of R's diagonal."""
    g = rng.standard_normal((count, dim, dim)) + 1j * rng.standard_normal((count, dim, dim))
    q, r = np.linalg.qr(g)
    phases = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (phases / np.abs(phases))[:, None, :]


def _norm_stacks() -> dict:
    """Stacks for each branch of the norm kernel: both closed forms and the fallback."""
    rng = rng_from(18)

    def gaussian(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    shapes = [(2, 2), (3, 3), (5, 2), (2, 5), (4, 3), (3, 4)]
    stacks = {f"gaussian_{m}x{n}": gaussian(2000, m, n) for m, n in shapes}
    # u diag(s) v with a degenerate or nearly degenerate top pair: r is near -1
    for name, singular in [("pair_half", [1.0, 1.0, 0.5]), ("pair_split", [1.0, 1.0 - 1e-6, 0.3])]:
        stacks[name] = (_haar_unitaries(rng, 500, 3) * singular) @ _haar_unitaries(rng, 500, 3)
    for dim in (2, 3):
        stacks[f"unitary_{dim}"] = _haar_unitaries(rng, 500, dim)
        stacks[f"rank_one_{dim}"] = np.einsum("ki,kj->kij", gaussian(500, dim), gaussian(500, dim))
        stacks[f"diagonal_{dim}"] = gaussian(500, dim)[:, :, None] * np.eye(dim)
    return stacks


NORM_STACKS = _norm_stacks()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", sorted(NORM_STACKS))
def test_closed_form_and_eigvalsh_kernels_match_the_svd(name):
    a = NORM_STACKS[name]
    b = a / np.abs(a).max(axis=(-2, -1))[:, None, None]
    want = np.linalg.svd(b, compute_uv=False)[:, 0]
    for kernel in (_unit_scale_norms, util.gram_eigvalsh_norms):
        got = kernel(b)
        assert np.all(np.abs(got - want) <= 1e-14 * want), (kernel, np.max(np.abs(got - want) / want))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale", [1e-300, 1e300])
@pytest.mark.parametrize("name", sorted(NORM_STACKS))
def test_small_norms_match_the_svd_at_extreme_scales(name, scale):
    a = scale * NORM_STACKS[name]
    want = np.linalg.svd(a, compute_uv=False)[:, 0]
    got = operator_norms(a)
    assert np.all(np.abs(got - want) <= 1e-14 * want), np.max(np.abs(got - want) / want)


def test_only_rows_near_a_degenerate_top_pair_reach_eigvalsh(monkeypatch):
    rows = []
    eigvalsh = np.linalg.eigvalsh

    def spy(a, *args, **kwargs):
        rows.append(len(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    for name in ("pair_half", "pair_split"):
        rows.clear()
        operator_norms(NORM_STACKS[name])
        assert rows == [500], name
    for name, most in [("gaussian_2x2", 0), ("gaussian_3x3", 40), ("gaussian_3x4", 40)]:
        rows.clear()
        operator_norms(NORM_STACKS[name])
        assert len(rows) <= 1 and sum(rows) <= most, (name, rows)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_the_3x3_form_neither_underflows_nor_divides_by_zero(monkeypatch):
    # I + 1e-120 e_01 has p of about 6e-121, so p^3 underflows to 0 and
    # det(G - q) / (2 p^3) would be 0 / 0; the identity has p = 0 exactly
    def refuse(*args, **kwargs):
        raise AssertionError("the closed form should take this matrix")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    tiny = np.eye(3, dtype=complex)
    tiny[0, 1] = 1e-120
    for a in (tiny, np.eye(3), np.eye(3)[[2, 0, 1]]):
        assert _unit_scale_norms(a) == 1.0
        assert operator_norm(a) == 1.0
    norms = operator_norms(np.stack([tiny, 1e-300 * tiny, 1e300 * tiny]))
    assert np.all(np.abs(norms - [1.0, 1e-300, 1e300]) <= 1e-15 * norms)


def test_one_matrix_near_a_degenerate_top_pair_takes_eigvalsh():
    # a permuted diag(1, 1, 1/2): its Gram matrix diag(1, 1/4, 1) is exact, and r = -1
    a = np.array([[1, 0, 0], [0, 0, 1], [0, 0.5, 0]], dtype=complex)
    assert operator_norm(a) == float(np.sqrt(np.linalg.eigvalsh(a.conj().T @ a)[-1])) == 1.0
    for m in NORM_STACKS["pair_split"][:20]:
        want = np.sqrt(np.linalg.eigvalsh(m.conj().T @ m)[-1])
        assert abs(operator_norm(m) - want) <= 2 * np.finfo(float).eps * want


@pytest.mark.parametrize("shape", [(2, 2), (3, 3), (5, 2), (2, 5), (4, 3), (3, 4)])
def test_stacked_norms_equal_single_norms_on_every_path(shape):
    stack = np.concatenate([a[:60] for a in NORM_STACKS.values() if a.shape[1:] == shape])
    stack = stack[rng_from(6).permutation(len(stack))]
    single = [operator_norm(m) for m in stack]
    assert np.array_equal(operator_norms(stack), single)
    assert np.array_equal(operator_norms(stack.reshape(-1, 3, *shape)).ravel(), single)


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("k", [2, 3, 4, 12])
@pytest.mark.parametrize("c", [1e-300, 3.0, 1e300])
def test_norm_of_a_scaled_identity_is_the_scale_exactly(c, k, dtype):
    a = c * np.eye(k, dtype=dtype)
    assert operator_norm(a) == c
    assert np.all(operator_norms(np.stack([a, a])) == c)


@pytest.mark.parametrize("name", sorted(NORM_STACKS))
def test_scaling_divides_every_real_and_imaginary_part_on_its_own(name):
    a = 1e-300 * NORM_STACKS[name]
    scale = np.abs(a).max(axis=(-2, -1))
    b = opalg._scaled(a, scale)
    assert np.array_equal(b.real, a.real / scale[:, None, None])
    assert np.array_equal(b.imag, a.imag / scale[:, None, None])
    # a transposed view takes the same path
    t = np.swapaxes(a, -1, -2)
    assert np.array_equal(opalg._scaled(t, scale), np.swapaxes(b, -1, -2))


def test_worst_deviation_propagates_nan_and_refuses_empty():
    assert worst_deviation([0.0, 3.0, 1e-17]) == 3.0
    assert np.isnan(worst_deviation([0.0, np.nan, 3.0]))
    assert np.isnan(worst_deviation(np.array([1.0, np.inf])))
    with pytest.raises(ValueError, match="at least one sample"):
        worst_deviation([])


SLICED_INPUTS = {
    "classical4": TRIPLES["classical4"],
    "paper_literal": build_model("paper_literal").triple,
    "random_unital": _random_unital(),
}


@pytest.mark.parametrize("structure", ["conventional", "causal"])
def test_sliced_and_composite_maps_match_single_site_reference(structure):
    parsed = CausalStructure.parse(structure)
    for name, triple in SLICED_INPUTS.items():
        h, o = triple.hidden_dim, triple.obs_dim
        rng = rng_from(2)
        x = random_operator(rng, h)
        y = random_operator(rng, o)
        ref = OperatorMap.from_function(h, h, lambda z: _apply_sliced(triple, parsed, x, y, z))
        got = sliced_coefficients(triple, structure, x[None], y[None])[0]
        assert np.abs(got - ref.coeff.reshape(h * h, h * h)).max() < 1e-14, name
        z = random_operator(rng, h)
        comp = composite_map(triple, structure)
        via_composite = comp.apply_array(np.kron(np.kron(x, z), y))
        assert np.abs(via_composite - _apply_sliced(triple, parsed, x, y, z)).max() < 1e-14, name


@pytest.mark.parametrize("structure", ["conventional", "causal"])
def test_small_sliced_stacks_give_the_rows_of_a_large_one(structure):
    # all transfers come from one GEMM; a one-row GEMM would go to GEMV and
    # round differently, so a stack of one must give its row's bits too
    for name, triple in SLICED_INPUTS.items():
        xs, ys = random_words(rng_from(41), triple, 2800, 1)
        xs, ys = xs[:, 0], ys[:, 0]
        large = sliced_coefficients(triple, structure, xs, ys)
        assert large.shape == (2800, triple.hidden_dim**2, triple.hidden_dim**2)
        for count in (1, 2, 3):
            for start in (0, 1397, 2800 - count):
                rows = slice(start, start + count)
                small = sliced_coefficients(triple, structure, xs[rows], ys[rows])
                assert small.tobytes() == large[rows].tobytes(), (name, count, start)


def test_random_unital_input_tells_the_structures_apart():
    # otherwise a slot swapped in one structure's closed form could pass
    # the reference test above by symmetry
    triple = SLICED_INPUTS["random_unital"]
    conventional = composite_map(triple, "conventional").coeff
    causal = composite_map(triple, "causal").coeff
    assert np.abs(conventional - causal).max() > 1e-2


# d_out != d1 exercises the coefficient reshape on the output side
@pytest.mark.parametrize("d1, d2, d_out", [(2, 2, 2), (2, 3, 2), (2, 3, 3)])
def test_closed_form_conjugation_defect_matches_from_function_reference(d1, d2, d_out):
    rng = rng_from(7)
    m = BipartiteMap.build_from_kraus(
        d1, d2, d_out, util.random_unital_kraus(rng, d1 * d2, d_out, 3)
    )
    count = 6
    v = np.stack([np.linalg.qr(random_operator(rng, d1 * d2))[0] for _ in range(count)])
    u = np.stack([np.linalg.qr(random_operator(rng, d_out))[0] for _ in range(count)])
    got = _conjugation_defects(m, v, u)
    for k, ref in enumerate(_from_function_defects(m, v, u)):
        assert ref > 1e-3  # a random map is not covariant
        assert abs(got[k] - ref) < 1e-13


def _random_coefficient_map(rng, d1: int, d2: int, d_out: int) -> BipartiteMap:
    """A linear map with Gaussian coefficients: not CP, and not Hermiticity preserving."""
    shape = (d_out, d_out, d1 * d2, d1 * d2)
    coeff = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return BipartiteMap(d1 * d2, d_out, coeff, d1, d2)


@pytest.mark.parametrize("kind", ["unital_kraus", "random_coefficients"])
@pytest.mark.parametrize("d1, d2, d_out", [(2, 2, 2), (2, 3, 2), (2, 3, 3)])
def test_choi_conjugation_matches_from_function_reference(kind, d1, d2, d_out):
    # ||W C W+ - C|| with W = V^T kron U+ is the Choi distance for any
    # linear map; V need not be unitary, U must be
    rng = rng_from(23)
    if kind == "unital_kraus":
        m = util.random_unital_bipartite(rng, d1, d2, d_out, 3)
    else:
        m = _random_coefficient_map(rng, d1, d2, d_out)
    # the image of a Hermitian input is Hermitian only for the Kraus map
    image = m.apply_array(np.diag(np.arange(1.0, m.dim_in + 1)))
    assert (np.abs(image - image.conj().T).max() > 1e-3) == (kind == "random_coefficients")
    count = 5
    v = np.stack(
        [np.linalg.qr(random_operator(rng, d1 * d2))[0] for _ in range(count)]
        + [random_operator(rng, d1 * d2) for _ in range(count)]
    )
    u = _haar_unitaries(rng, 2 * count, d_out)
    got = _conjugation_defects(m, v, u)
    assert got.shape == (2 * count,)
    for k, ref in enumerate(_from_function_defects(m, v, u)):
        assert ref > 1e-3
        assert abs(got[k] - ref) < 1e-13, (k, got[k], ref)


def _gaussian_kraus(rng, d_in: int, d_out: int, count: int) -> list[np.ndarray]:
    """count complex Gaussian d_out x d_in Kraus operators: CP, neither unital nor covariant."""
    shape = (count, d_out, d_in)
    return list(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def _choi_path(m: BipartiteMap) -> BipartiteMap:
    """m from its coefficients alone: with no Kraus stack its defects take the Choi path."""
    return BipartiteMap(m.dim_in, m.dim_out, m.coeff, m.dim_in1, m.dim_in2)


def _unitary_and_general(rng, count: int, dim: int) -> np.ndarray:
    """count Haar unitaries, then count general matrices of unit norm, dim x dim."""
    general = np.stack([random_operator(rng, dim) for _ in range(count)])
    return np.concatenate([_haar_unitaries(rng, count, dim), general])


@pytest.mark.parametrize("d1, d2, d_out", [(2, 2, 2), (2, 3, 2), (2, 3, 3)])
def test_one_kraus_closed_form_matches_from_function_reference(d1, d2, d_out, monkeypatch):
    # one Kraus operator: the rank-two closed form, which forms no Choi
    # matrix and takes no stacked norm; V unitary and not
    rng = rng_from(29)
    m = BipartiteMap.build_from_kraus(d1, d2, d_out, _gaussian_kraus(rng, d1 * d2, d_out, 1))
    assert m.kraus.shape == (1, d_out, d1 * d2)
    v = _unitary_and_general(rng, 5, d1 * d2)
    u = _haar_unitaries(rng, 10, d_out)
    with monkeypatch.context() as patch:
        for name in ("choi_matrices", "batched_kron", "operator_norms"):
            patch.setattr(symmetry, name, None)
        got = _conjugation_defects(m, v, u)
    assert got.shape == (10,)
    for k, ref in enumerate(_from_function_defects(m, v, u)):
        assert ref > 1e-3
        assert abs(got[k] - ref) < 1e-13, (k, got[k], ref)


@pytest.mark.parametrize("count", [0, 3])
@pytest.mark.parametrize("d1, d2, d_out", [(2, 2, 2), (2, 3, 2), (2, 3, 3)])
def test_maps_of_other_kraus_counts_keep_the_bits_of_the_choi_path(d1, d2, d_out, count):
    rng = rng_from(31)
    m = BipartiteMap.build_from_kraus(d1, d2, d_out, _gaussian_kraus(rng, d1 * d2, d_out, count))
    assert m.kraus.shape == (count, d_out, d1 * d2)
    assert _choi_path(m).kraus is None
    v = _unitary_and_general(rng, 4, d1 * d2)
    u = _haar_unitaries(rng, 8, d_out)
    got = _conjugation_defects(m, v, u)
    assert got.tobytes() == _conjugation_defects(_choi_path(m), v, u).tobytes()
    assert (got > 1e-3).all() if count else (got == 0).all()


# inf - inf meets nan on both paths, and numpy warns nothing on the way
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_one_kraus_defects_of_non_finite_input_are_nan(bad):
    rng = rng_from(37)
    kraus = _gaussian_kraus(rng, 6, 2, 1)
    m = BipartiteMap.build_from_kraus(2, 3, 2, kraus)
    v, u = _haar_unitaries(rng, 6, 6), _haar_unitaries(rng, 6, 2)
    kraus[0][1, 4] = bad
    broken = BipartiteMap.build_from_kraus(2, 3, 2, kraus)
    # a bad Kraus entry spoils every sample; a bad rotation entry its own
    v_bad, u_bad = v.copy(), u.copy()
    v_bad[1, 2, 3] = bad
    u_bad[4, 0, 1] = bad
    # the closed form, then the Choi path of the same maps
    for path in (lambda x: x, _choi_path):
        clean = _conjugation_defects(path(m), v, u)
        assert np.isfinite(clean).all()
        rows = {
            "kraus": _conjugation_defects(path(broken), v, u),
            "v": _conjugation_defects(path(m), v_bad, u),
            "u": _conjugation_defects(path(m), v, u_bad),
        }
        assert np.isnan(rows["kraus"]).all()
        for name, k in (("v", 1), ("u", 4)):
            others = np.arange(6) != k
            assert np.isnan(rows[name][k]), name
            assert rows[name][others].tobytes() == clean[others].tobytes(), name
        for deviations in rows.values():
            result = check_result("emission_covariance", 6, 0, deviations, 1e-10)
            assert math.isnan(result.max_deviation) and not result.passed


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale", [1e150, 1e-150])
def test_one_kraus_closed_form_keeps_its_digits_from_1e_minus_150_to_1e150(scale):
    rng = rng_from(41)
    (kraus,) = _gaussian_kraus(rng, 6, 2, 1)
    m = BipartiteMap.build_from_kraus(2, 3, 2, [scale * kraus])
    v = _unitary_and_general(rng, 5, 6)
    u = _haar_unitaries(rng, 10, 2)
    got = _conjugation_defects(m, v, u)
    want = _conjugation_defects(_choi_path(m), v, u)
    assert (want > 1e-3 * scale**2).all()
    assert (np.abs(got - want) <= 1e-13 * want).all(), (got, want)


def _from_function_defects(m: BipartiteMap, v: np.ndarray, u: np.ndarray) -> list[float]:
    """Per-sample Choi distance of E(V . V+) and U E(.) U+, each map built from its matrix units."""
    refs = []
    for vk, uk in zip(v, u):
        left = OperatorMap.from_function(
            m.dim_in, m.dim_out, lambda w: m.apply_array(vk @ w @ vk.conj().T)
        )
        right = OperatorMap.from_function(
            m.dim_in, m.dim_out, lambda w: uk @ m.apply_array(w) @ uk.conj().T
        )
        refs.append(operator_norm(left.choi() - right.choi()))
    return refs


def _kolmogorov_cases() -> dict:
    """Name -> (triple, structure) for the kolmogorov_check comparison."""
    cases = {
        f"{v}/{s}": (build_model(v, s).triple, s)
        for v in ("normalized_cartesian", "normalized_spherical", "paper_literal")
        for s in ("conventional", "causal")
    }
    chain = cases["normalized_cartesian/conventional"][0]
    unnormalized = GenerativeTriple(
        2, 3, chain.phi0, transition_map(2, normalized=False), chain.emission
    )
    for s in ("conventional", "causal"):
        cases[f"unnormalized/{s}"] = (unnormalized, s)
    fixture = json.loads((Path(__file__).parent / "data" / "oracle_values.json").read_text())
    cases["kraus-config"] = triple_from_config(fixture["kraus_config"])
    return cases


KOLMOGOROV_CASES = _kolmogorov_cases()


@pytest.mark.parametrize("name", sorted(KOLMOGOROV_CASES))
@pytest.mark.parametrize("seed", [11, 42])
def test_shared_transfers_give_the_two_batch_kolmogorov_bits(name, seed):
    triple, structure = KOLMOGOROV_CASES[name]
    for depth in (0, 1, 2, 6):
        got = kolmogorov_check(triple, structure, depth, 20, seed)
        want = util.two_batch_kolmogorov_check(triple, structure, depth, 20, seed)
        assert got.shape == want.shape == (1 + max(depth - 1, 0) * 21,)
        assert got.tobytes() == want.tobytes()
    if name.startswith("unnormalized"):
        # each site doubles the value: 2^6 - 2^5 at five sites
        assert want.max() == pytest.approx(32.0, abs=1e-12)


def _global_cases() -> dict:
    """Name -> (triple, structure, action) for the check_global_invariance comparison."""
    cases = {}
    for v in ("normalized_cartesian", "normalized_spherical", "paper_literal"):
        for s in ("conventional", "causal"):
            m = build_model(v, s)
            cases[f"{v}/{s}"] = (m.triple, s, m.action)
    # test_symmetry's broken-emission diagnostic: paper-literal tensors
    # under the spherical action, in the Cartesian chain
    chain = build_model("normalized_cartesian").triple
    broken = GenerativeTriple(
        2, 3, chain.phi0, chain.transition, emission_map(build_tensors("paper_literal"))
    )
    spherical = SymmetryAction(spin_half_rep(), spin_one_rep("spherical"))
    cases["broken-emission/conventional"] = (broken, "conventional", spherical)
    return cases


GLOBAL_CASES = _global_cases()


@pytest.mark.parametrize("name", sorted(GLOBAL_CASES))
@pytest.mark.parametrize("seed", [11, 42])
def test_one_batch_of_volumes_gives_the_per_volume_global_bits(name, seed):
    triple, structure, action = GLOBAL_CASES[name]
    for n_max in (0, 1, 6):
        for samples in (1, 7, 50):
            got = check_global_invariance(triple, structure, action, n_max, samples, seed)
            want = util.per_volume_global_invariance(
                triple, structure, action, n_max, samples, seed
            )
            assert len(got) == len(want) == n_max + 1
            for n, (g, w) in enumerate(zip(got, want)):
                assert g.shape == w.shape == (samples,), (n_max, samples, n)
                assert g.tobytes() == w.tobytes(), (n_max, samples, n)
    if name.startswith("broken") or name.startswith("paper_literal"):
        assert worst_deviation(want[0]) > 1e-3


@pytest.mark.parametrize("seed", [11, 42])
def test_a_volume_or_a_length_has_the_same_bits_at_any_depth(seed):
    # volume n and length k read the first n+1 and k blocks of the stream
    # and fold them alone, whatever the deepest volume or length
    for name, (triple, structure, action) in GLOBAL_CASES.items():
        shallow = check_global_invariance(triple, structure, action, 2, 50, seed)
        deep = check_global_invariance(triple, structure, action, 6, 50, seed)
        for n in range(3):
            assert shallow[n].tobytes() == deep[n].tobytes(), (name, n)
    for name, (triple, structure) in KOLMOGOROV_CASES.items():
        shallow = kolmogorov_check(triple, structure, 3, 20, seed)
        deep = kolmogorov_check(triple, structure, 6, 20, seed)
        assert len(shallow) == 1 + 2 * 21
        assert shallow.tobytes() == deep[: len(shallow)].tobytes(), name
