"""The batched contraction core against the per-word and per-sample references.

The batched fold, the batched draws and the closed-form conjugation
defect replace loops in the symmetry checks, and kolmogorov_check shares
each word's transfers with its extension; each is compared here with the
path it replaces.
"""

import json
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
    build_model,
    classical_diagonal_triple,
    composite_map,
    finite_volume_state,
    finite_volume_states,
    kolmogorov_check,
    operator_norm,
    operator_norms,
    random_word,
    random_words,
    worst_deviation,
)
from hqmmsym.aklt import transition_map
from hqmmsym.opalg import _unit_scale_norms
from hqmmsym.hqmm import CausalStructure, _apply_sliced, sliced_coefficients, triple_from_config
from hqmmsym.sampling import random_operator, rng_from
from hqmmsym.symmetry import _conjugation_defects


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
    # global and kolmogorov witnesses are (volume, row) pairs; a row must
    # replay bit for bit without the rest of its batch
    triple = TRIPLES[name]
    for n_sites in (1, 3, 7):
        xs, ys = random_words(rng_from(20 + n_sites), triple, 32, n_sites)
        batch = finite_volume_states(triple, structure, xs, ys)
        for k in range(32):
            alone = finite_volume_states(triple, structure, xs[k : k + 1], ys[k : k + 1])
            assert np.array_equal(alone, batch[k : k + 1]), (n_sites, k)


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
    for k in range(count):
        left = OperatorMap.from_function(
            m.dim_in, d_out, lambda w: m.apply_array(v[k] @ w @ v[k].conj().T)
        )
        right = OperatorMap.from_function(
            m.dim_in, d_out, lambda w: u[k] @ m.apply_array(w) @ u[k].conj().T
        )
        ref = operator_norm(left.choi() - right.choi())
        assert ref > 1e-3  # a random map is not covariant
        assert abs(got[k] - ref) < 1e-13


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
