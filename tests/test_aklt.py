import numpy as np
import pytest

import util
from hqmmsym import (
    CausalStructure,
    ConfigError,
    ObservableWord,
    OperatorMap,
    SymmetryAction,
    build_model,
    build_tensors,
    certify_cpu,
    classical_diagonal_triple,
    dense_word_value,
    emission_map,
    finite_volume_state,
    operator_norm,
    projector_word,
    spin_half_rep,
    spin_one_rep,
    verify_intertwining,
)
from hqmmsym import aklt
from hqmmsym.grouprep import SIGMA_X, SIGMA_Y, SIGMA_Z
from hqmmsym.hqmm import partial_trace_map, sliced_coefficients, triple_from_config


def test_variant_names_and_labels():
    cart = build_tensors("normalized_cartesian")
    assert cart.labels == ("x", "y", "z")
    assert cart.basis == "cartesian"
    sph = build_tensors("normalized-spherical")  # hyphens accepted
    assert sph.labels == ("+", "0", "-")
    assert sph.basis == "spherical"
    lit = build_tensors("paper_literal")
    assert lit.labels == ("+", "0", "-")
    with pytest.raises(ConfigError):
        build_tensors("unnormalized_cartesian")


def test_cartesian_tensors_are_scaled_paulis():
    cart = build_tensors("normalized_cartesian")
    for tensor, sigma in zip(cart.tensors, (SIGMA_X, SIGMA_Y, SIGMA_Z)):
        assert operator_norm(tensor - sigma / np.sqrt(3.0)) == 0.0


def test_spherical_tensors_are_ladder_operators():
    sph = build_tensors("normalized_spherical")
    plus = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    minus = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
    scale = np.sqrt(2.0 / 3.0)
    assert operator_norm(sph.tensors[0] + scale * plus) < 1e-15
    assert operator_norm(sph.tensors[1] - SIGMA_Z / np.sqrt(3.0)) < 1e-15
    assert operator_norm(sph.tensors[2] - scale * minus) < 1e-15


def test_gram_matrices():
    def gram(variant):
        # G[k, l] = trace(A_k+ A_l)
        stack = build_tensors(variant).tensors
        return np.einsum("kba,lba->kl", stack.conj(), stack)

    assert np.allclose(gram("normalized_cartesian"), np.eye(3) * 2 / 3)
    assert np.allclose(gram("normalized_spherical"), np.eye(3) * 2 / 3)
    assert np.allclose(gram("paper_literal"), np.diag([0.5, 1.0, 0.5]))


@pytest.mark.parametrize("variant", ["normalized_cartesian", "normalized_spherical", "paper_literal"])
def test_tensor_completeness_relation(variant):
    stack = build_tensors(variant).tensors
    total = sum(a @ a.conj().T for a in stack)
    assert operator_norm(total - np.eye(2)) < 1e-14


@pytest.mark.parametrize("variant", ["normalized_cartesian", "normalized_spherical", "paper_literal"])
def test_emission_map_cp_order_is_cpu(variant):
    cert = certify_cpu(emission_map(build_tensors(variant)))
    util.assert_cpu(cert)
    assert cert["choi_negativity"] < 1e-12


def test_emission_map_matches_tensor_sandwich():
    tensors = build_tensors("normalized_cartesian")
    emission = emission_map(tensors)
    rng = np.random.default_rng(0)
    stack = tensors.tensors
    for _ in range(5):
        x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        y = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        expected = sum(
            y[k, l] * stack[k] @ x @ stack[l].conj().T for k in range(3) for l in range(3)
        )
        assert operator_norm(emission.apply_array(np.kron(x, y)) - expected) < 1e-13


@pytest.mark.parametrize("variant", ["normalized_cartesian", "normalized_spherical", "paper_literal"])
def test_emission_map_kraus_operator_matches_the_loop_build(variant):
    # reference: the Kraus operator sum_k A_k tensor <k| written entry by entry
    stack = build_tensors(variant).tensors
    o, h, _ = stack.shape
    kraus = np.zeros((h, h * o), dtype=complex)
    for k in range(o):
        for p in range(h):
            for a in range(h):
                kraus[p, a * o + k] = stack[k, p, a]
    expected = OperatorMap.from_kraus(h * o, h, [kraus])
    got = emission_map(build_tensors(variant))
    assert got.coeff.tobytes() == expected.coeff.tobytes()


def test_literal_emission_order_transposes_the_physical_slot():
    tensors = build_tensors("normalized_spherical")
    cp_map = emission_map(tensors)
    literal = util.transpose_physical_slot(cp_map)
    rng = np.random.default_rng(1)
    for _ in range(5):
        x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        y = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        lhs = literal.apply_array(np.kron(x, y))
        rhs = cp_map.apply_array(np.kron(x, y.T))
        assert operator_norm(lhs - rhs) < 1e-13


def test_literal_emission_order_is_not_cp():
    literal = util.transpose_physical_slot(emission_map(build_tensors("normalized_cartesian")))
    cert = certify_cpu(literal)
    assert cert["choi_negativity"] > 0.1
    assert cert["unitality"] <= 1e-10
    rng = np.random.default_rng(2)
    assert util.brute_force_cp(literal, rng, trials=150) < -0.1


def test_transition_map_is_normalized_partial_trace():
    trans = build_model().triple.transition
    rng = np.random.default_rng(3)
    for _ in range(5):
        w = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        expected = util.partial_trace_second(w, 2, 2) / 2.0
        assert operator_norm(trans.apply_array(w) - expected) < 1e-14
    util.assert_cpu(certify_cpu(trans))


def test_unnormalized_transition_is_not_unital():
    cert = certify_cpu(util.unnormalized_partial_trace(2, 2))
    assert cert["choi_hermiticity"] <= 1e-10 and cert["choi_negativity"] <= 1e-10
    assert cert["unitality"] == pytest.approx(1.0)


@pytest.mark.parametrize("variant", ["normalized_cartesian", "normalized_spherical"])
def test_intertwining_residual_of_normalized_tensors(variant):
    tensors = build_tensors(variant)
    action = SymmetryAction(spin_half_rep(), spin_one_rep(tensors.basis))
    q = util.haar_rotations(np.random.default_rng(4), 80)
    residuals = verify_intertwining(tensors, action.pi.stack(q), action.rho.stack(q))
    assert residuals.shape == (80,)
    assert residuals.max() < 1e-12


def test_intertwining_fails_for_unnormalized_tensors():
    action = SymmetryAction(spin_half_rep(), spin_one_rep("spherical"))
    q = util.haar_rotations(np.random.default_rng(6), 80)
    residuals = verify_intertwining(
        build_tensors("paper_literal"), action.pi.stack(q), action.rho.stack(q)
    )
    assert residuals.max() > 0.05


@pytest.mark.parametrize("variant", ["normalized_cartesian", "normalized_spherical"])
@pytest.mark.parametrize("structure", ["conventional", "causal"])
def test_build_model_normalized_variants(variant, structure):
    model = build_model(variant, structure)
    util.assert_cpu(model.triple.defects())
    assert model.structure is CausalStructure.parse(structure)
    assert operator_norm(model.triple.phi0 - np.eye(2) / 2) == 0.0
    tensors = build_tensors(variant)
    assert model.info == {
        "name": "aklt",
        "structure": structure,
        "variant": variant,
        "basis": tensors.basis,
        "labels": list(tensors.labels),
    }


@pytest.mark.parametrize("variant", aklt.VARIANTS)
def test_a_variant_is_built_once_and_each_model_has_its_own_info(variant):
    a = build_model(variant, "conventional")
    b = build_model(variant.replace("_", "-"), "causal")
    assert a.triple is b.triple and a.tensors is b.tensors
    assert a.info is not b.info and a.info["labels"] is not b.info["labels"]
    assert a.action is not b.action
    assert aklt._variant.cache_info().currsize <= len(aklt.VARIANTS)


def test_every_array_a_built_model_shares_is_read_only():
    m = build_model("normalized_spherical")
    t = m.triple
    xs, ys = np.eye(2)[None], np.eye(3)[None]
    for structure in CausalStructure:
        sliced_coefficients(t, structure, xs, ys)
    assert len(t._fold_matrices) == 2
    assert partial_trace_map(2, 2) is t.transition
    arrays = [m.tensors.tensors, t.phi0, *t._fold_matrices.values()]
    arrays += [a for op in (t.transition, t.emission) for a in (op.coeff, op.kraus)]
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = 1.0


def test_defects_give_a_new_dict_of_the_same_terms_on_every_call():
    t = build_model("paper_literal").triple
    first = t.defects()
    want = dict(first)
    first["emission_choi_negativity"] = 0.0
    first.clear()
    assert t.defects() == want and t.defects() is not t.defects()
    assert aklt._variant.__wrapped__("paper_literal")[1].defects() == want


@pytest.mark.parametrize("variant", aklt.VARIANTS)
@pytest.mark.parametrize("structure", ["conventional", "causal"])
def test_the_kept_fold_matrix_gives_the_bits_of_a_fresh_triple(variant, structure):
    kept = build_model(variant).triple
    fresh = aklt._variant.__wrapped__(variant)[1]
    assert fresh is not kept and not fresh._fold_matrices
    rng = np.random.default_rng(3)
    for count in (1, 6):
        xs, ys = util.random_words(rng, kept, count, 1)
        sliced_coefficients(kept, structure, xs[:, 0], ys[:, 0])
        want = sliced_coefficients(fresh, structure, xs[:, 0], ys[:, 0])
        assert sliced_coefficients(kept, structure, xs[:, 0], ys[:, 0]).tobytes() == want.tobytes()


@pytest.mark.parametrize("variant", aklt.VARIANTS)
def test_a_config_aklt_emission_is_the_variant_map(variant):
    triple, _ = triple_from_config({
        "hidden_dim": 2, "obs_dim": 3, "E_H": {"kind": "normalized_partial_trace"},
        "E_HO": {"kind": "aklt_emission", "variant": variant.replace("_", "-")},
    })
    want = emission_map(build_tensors(variant)).coeff
    assert triple.emission.coeff.tobytes() == want.tobytes()


def test_build_model_literal_variant_keeps_the_paper_tensors():
    model = build_model("paper_literal")
    util.assert_cpu(model.triple.defects())  # still a CPU triple, only the symmetry breaks
    paper = build_tensors("paper_literal")
    assert np.array_equal(model.tensors.tensors, paper.tensors)
    assert np.array_equal(model.triple.emission.coeff, emission_map(paper).coeff)
    assert model.info == {
        "name": "aklt",
        "structure": "conventional",
        "variant": "paper_literal",
        "basis": "spherical",
        "labels": ["+", "0", "-"],
    }


def _single_site_distribution(model):
    return {
        label: finite_volume_state(model.triple, model.structure, projector_word(model, label)).real
        for label in model.tensors.labels
    }


def test_single_site_distribution_values():
    dist = _single_site_distribution(build_model("normalized_cartesian"))
    assert set(dist) == {"x", "y", "z"}
    for p in dist.values():
        assert p == pytest.approx(1.0 / 3.0, abs=1e-12)
    dist_sph = _single_site_distribution(build_model("normalized_spherical"))
    for p in dist_sph.values():
        assert p == pytest.approx(1.0 / 3.0, abs=1e-12)
    dist_lit = _single_site_distribution(build_model("paper_literal"))
    assert dist_lit["+"] == pytest.approx(0.25, abs=1e-12)
    assert dist_lit["0"] == pytest.approx(0.50, abs=1e-12)
    assert dist_lit["-"] == pytest.approx(0.25, abs=1e-12)


def test_two_site_labels_are_independent():
    model = build_model("normalized_cartesian")
    for first in "xyz":
        for second in "xyz":
            word = projector_word(model, first + second)
            value = finite_volume_state(model.triple, model.structure, word)
            assert value.real == pytest.approx(1.0 / 9.0, abs=1e-12)
            assert abs(value.imag) < 1e-14


def test_projector_word_validation():
    model = build_model("normalized_cartesian")
    with pytest.raises(ConfigError):
        projector_word(model, "xq")
    with pytest.raises(ConfigError):
        projector_word(model, "")


@pytest.mark.parametrize("variant", ["normalized_cartesian", "paper_literal"])
@pytest.mark.parametrize("structure", ["conventional", "causal"])
def test_oracle_matches_folded_evaluation(variant, structure):
    model = build_model(variant, structure)
    rng = np.random.default_rng(9)
    for n in (1, 2, 3, 5):
        word = util.random_word(rng, model.triple, n)
        folded = finite_volume_state(model.triple, structure, word)
        dense = dense_word_value(model.triple, model.structure, word)
        assert abs(folded - dense) < 1e-12


def test_oracle_on_classical_triple():
    rng = np.random.default_rng(10)
    p = np.array([0.6, 0.4])
    t = util.random_stochastic(rng, 2, 2)
    b = util.random_stochastic(rng, 2, 3)
    triple = classical_diagonal_triple(p, t, b)
    for structure in ("conventional", "causal"):
        word = util.random_word(rng, triple, 3)
        folded = finite_volume_state(triple, structure, word)
        dense = dense_word_value(triple, structure, word)
        assert abs(folded - dense) < 1e-12


def test_oracle_refuses_long_and_empty_words():
    model = build_model("normalized_cartesian")
    with pytest.raises(ValueError, match="8 sites"):
        dense_word_value(
            model.triple, model.structure, ObservableWord.all_identity(9, 2, 3)
        )
    with pytest.raises(ValueError, match="empty"):
        dense_word_value(model.triple, model.structure, ObservableWord.all_identity(0, 2, 3))


def test_oracle_handles_eight_sites():
    model = build_model("normalized_cartesian")
    word = ObservableWord.all_identity(8, 2, 3)
    assert abs(dense_word_value(model.triple, model.structure, word) - 1.0) < 1e-12
