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
