import numpy as np
import pytest

from hqmmsym import (
    ComplexOperator,
    GenerativeTriple,
    ProjectiveRep,
    RankEstimationError,
    RotationElement,
    SymmetryAction,
    build_model,
    check_emission_covariance,
    check_global_invariance,
    check_initial_invariance,
    check_sliced_covariance,
    check_transition_equivariance,
    emission_map,
    build_tensors,
    invariant_states,
    operator_norm,
    spin_half_rep,
    spin_one_rep,
    trivial_cocycle,
    trivial_rep,
)


@pytest.fixture(scope="module")
def model():
    return build_model("normalized_cartesian")


@pytest.fixture(scope="module")
def action(model):
    return model.action


def test_check_result_serialization(model, action):
    result = check_initial_invariance(model.triple.phi0, action, samples=10, seed=0)
    d = result.to_json_dict()
    assert set(d) == {"condition", "samples", "seed", "max_deviation", "tolerance", "pass"}
    assert d["pass"] is True
    assert d["condition"] == "initial_invariance"
    assert d["samples"] == 10


def test_initial_invariance_of_maximally_mixed_state(model, action):
    result = check_initial_invariance(model.triple.phi0, action, samples=60, seed=1)
    assert result.passed
    assert result.max_deviation < 1e-12


def test_initial_invariance_fails_for_polarized_state(action):
    polarized = ComplexOperator(2, np.diag([0.8, 0.2]).astype(complex))
    result = check_initial_invariance(polarized, action, samples=60, seed=2)
    assert not result.passed
    assert result.max_deviation > 0.1


def test_transition_equivariance(model, action):
    result = check_transition_equivariance(model.triple.transition, action, samples=60, seed=3)
    assert result.passed
    assert result.max_deviation < 1e-12


def test_emission_covariance(model, action):
    result = check_emission_covariance(model.triple.emission, action, samples=60, seed=4)
    assert result.passed
    assert result.max_deviation < 1e-12


def test_emission_covariance_of_transposed_order_depends_on_basis(action):
    # with a real physical rep the transposed coefficient is just as
    # covariant, so only the complex spherical basis separates the orders
    literal_cart = emission_map(build_tensors("normalized_cartesian"), order="literal")
    result = check_emission_covariance(literal_cart, action, samples=60, seed=5)
    assert result.passed
    spherical_action = SymmetryAction(spin_half_rep(), spin_one_rep("spherical"))
    literal_sph = emission_map(build_tensors("normalized_spherical"), order="literal")
    result = check_emission_covariance(literal_sph, spherical_action, samples=60, seed=5)
    assert not result.passed
    assert result.max_deviation > 0.1


def test_emission_covariance_fails_with_mismatched_basis(model):
    # cartesian tensors against the spherical physical rep cannot intertwine
    wrong = SymmetryAction(spin_half_rep(), spin_one_rep("spherical"))
    result = check_emission_covariance(model.triple.emission, wrong, samples=60, seed=6)
    assert not result.passed


@pytest.mark.parametrize("structure", ["conventional", "causal"])
def test_sliced_covariance(model, action, structure):
    result = check_sliced_covariance(model.triple, structure, action, samples=60, seed=7)
    assert result.passed
    assert result.max_deviation < 1e-12


@pytest.mark.parametrize("structure", ["conventional", "causal"])
def test_global_invariance_by_volume(model, action, structure):
    results = check_global_invariance(
        model.triple, structure, action, n_max=3, samples=15, seed=8
    )
    assert sorted(results) == [0, 1, 2, 3]
    for n, result in results.items():
        assert result.condition == f"global_invariance[n={n}]"
        assert result.passed
        assert result.max_deviation < 1e-11


def test_global_invariance_detects_broken_emission(model):
    # the unnormalized tensors are not covariant under the spherical action
    mismatched = emission_map(build_tensors("paper_literal"))
    broken = GenerativeTriple(2, 3, model.triple.phi0, model.triple.transition, mismatched)
    spherical_action = SymmetryAction(spin_half_rep(), spin_one_rep("spherical"))
    results = check_global_invariance(
        broken, "conventional", spherical_action, n_max=1, samples=15, seed=9
    )
    assert not results[0].passed
    assert results[0].max_deviation > 1e-3


def test_invariant_states_of_irreducible_rep():
    states = invariant_states(spin_half_rep(), group_samples=80, seed=10)
    assert len(states) == 1
    assert operator_norm(states[0].entries - np.eye(2) / 2) < 1e-10


def test_invariant_states_of_trivial_rep_span_all_densities():
    states = invariant_states(trivial_rep(2), group_samples=40, seed=11)
    assert len(states) == 4
    vecs = np.stack([s.entries.reshape(-1) for s in states])
    assert np.linalg.matrix_rank(vecs, tol=1e-8) == 4
    for s in states:
        assert abs(s.trace() - 1.0) < 1e-12
        assert np.linalg.eigvalsh(s.entries)[0] > -1e-12


def test_invariant_states_of_doubled_rep():
    half = spin_half_rep()

    def doubled(q: np.ndarray) -> np.ndarray:
        u = half.stack(q)
        out = np.zeros((*u.shape[:-2], 4, 4), dtype=complex)
        out[..., :2, :2] = u
        out[..., 2:, 2:] = u
        return out

    rep = ProjectiveRep(dim=4, stack=doubled, cocycle=half.cocycle)
    states = invariant_states(rep, group_samples=80, seed=12)
    assert len(states) == 4
    # every returned state commutes with the whole sampled image
    for g in [RotationElement.from_axis_angle((0, 1, 0), 0.9)]:
        u = doubled(g.quat)
        for s in states:
            assert operator_norm(u @ s.entries - s.entries @ u) < 1e-9


def test_invariant_states_of_half_plus_trivial_block_rep():
    half = spin_half_rep()

    def blocks(q: np.ndarray) -> np.ndarray:
        u = half.stack(q)
        out = np.zeros((*u.shape[:-2], 3, 3), dtype=complex)
        out[..., :2, :2] = u
        out[..., 2, 2] = 1.0
        return out

    rep = ProjectiveRep(dim=3, stack=blocks, cocycle=half.cocycle)
    states = invariant_states(rep, group_samples=80, seed=13)
    assert len(states) == 2


def test_invariant_states_raises_on_ambiguous_rank():
    eps = 5e-8

    def nearly_degenerate(q: np.ndarray) -> np.ndarray:
        theta = 2.0 * np.arctan2(np.linalg.norm(q[..., 1:], axis=-1), q[..., 0])
        u = np.exp(1j * theta)
        diagonal = np.stack([np.ones_like(u), u, u * (1.0 + eps)], axis=-1)
        return diagonal[..., :, None] * np.eye(3)

    rep = ProjectiveRep(dim=3, stack=nearly_degenerate, cocycle=trivial_cocycle)
    with pytest.raises(RankEstimationError) as info:
        invariant_states(rep, group_samples=50, seed=14)
    assert info.value.threshold > 0
    assert len(info.value.singular_values) == 9
