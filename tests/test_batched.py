"""The batched contraction core against the per-word and per-sample references.

The batched fold, the batched draws and the closed-form conjugation
defect replace loops in the symmetry checks; each is compared here with
the path it replaces.
"""

import numpy as np
import pytest

import util
from hqmmsym import (
    BipartiteMap,
    ComplexOperator,
    ObservableWord,
    OperatorMap,
    build_model,
    classical_diagonal_triple,
    composite_map,
    finite_volume_state,
    finite_volume_states,
    operator_norm,
    operator_norms,
    random_word,
    random_words,
    sliced_map,
    worst_deviation,
)
from hqmmsym.hqmm import CausalStructure, _apply_sliced
from hqmmsym.sampling import random_operator, rng_from
from hqmmsym.symmetry import _conjugation_defects


def _classical():
    rng = rng_from(4)
    initial = util.random_stochastic(rng, 1, 4)[0]
    return classical_diagonal_triple(
        initial, util.random_stochastic(rng, 4, 4), util.random_stochastic(rng, 4, 3)
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


def test_apply_pairs_matches_apply_pair():
    rng = rng_from(6)
    m = util.random_unital_bipartite(rng, 3, 2, 4)
    a = rng.standard_normal((5, 3, 3)) + 1j * rng.standard_normal((5, 3, 3))
    b = rng.standard_normal((5, 2, 2)) + 1j * rng.standard_normal((5, 2, 2))
    out = m.apply_pairs(a, b)
    assert out.shape == (5, 4, 4)
    for k in range(5):
        ref = m.apply_array(np.kron(a[k], b[k]))
        assert np.abs(out[k] - ref).max() < 1e-14
    with pytest.raises(ValueError, match="dimension mismatch"):
        m.apply_pairs(b, b)


@pytest.mark.parametrize("structure", ["conventional", "causal"])
def test_sliced_and_composite_maps_match_single_site_reference(structure):
    triple = TRIPLES["classical4"]
    rng = rng_from(2)
    x = random_operator(rng, 4)
    y = random_operator(rng, 3)
    parsed = CausalStructure.parse(structure)
    ref = OperatorMap.from_function(4, 4, lambda z: _apply_sliced(triple, parsed, x, y, z))
    got = sliced_map(triple, structure, x, y)
    assert np.abs(got.coeff - ref.coeff).max() < 1e-14
    z = random_operator(rng, 4)
    comp = composite_map(triple, structure)
    via_composite = comp.apply_array(np.kron(np.kron(x, z), y))
    assert np.abs(via_composite - _apply_sliced(triple, parsed, x, y, z)).max() < 1e-14


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
