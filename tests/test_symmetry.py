import numpy as np
import pytest

from hqmmsym import (
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
    haar_rotations,
    invariant_states,
    operator_norm,
    random_words,
    spin_half_rep,
    spin_one_rep,
    trivial_cocycle,
    trivial_rep,
    verify_intertwining,
)
from hqmmsym.cli import CHECKS, Model, RunConfig
from hqmmsym.sampling import rng_from


@pytest.fixture(scope="module")
def model():
    return build_model("normalized_cartesian")


@pytest.fixture(scope="module")
def action(model):
    return model.action


def _haar(seed, count):
    return haar_rotations(rng_from(seed), count)


def test_check_result_serialization(model):
    config = RunConfig(seed=0, samples=10)
    [result] = CHECKS["initial"].results(Model(model.triple, model.structure, model), config, 1e-10)
    d = result.to_json_dict()
    assert set(d) == {"condition", "samples", "seed", "max_deviation", "tolerance", "pass"}
    assert d["pass"] is True
    assert d["condition"] == "initial_invariance"
    assert d["samples"] == 10


def test_initial_invariance_of_maximally_mixed_state(model, action):
    deviations = check_initial_invariance(model.triple.phi0, action, _haar(1, 60))
    assert deviations.max() <= 1e-10
    assert deviations.max() < 1e-12


def test_initial_invariance_fails_for_polarized_state(action):
    polarized = np.diag([0.8, 0.2]).astype(complex)
    deviations = check_initial_invariance(polarized, action, _haar(2, 60))
    assert deviations.max() > 1e-10
    assert deviations.max() > 0.1


def test_transition_equivariance(model, action):
    deviations = check_transition_equivariance(model.triple.transition, action, _haar(3, 60))
    assert deviations.max() <= 1e-10
    assert deviations.max() < 1e-12


def test_emission_covariance(model, action):
    deviations = check_emission_covariance(model.triple.emission, action, _haar(4, 60))
    assert deviations.max() <= 1e-10
    assert deviations.max() < 1e-12


def test_emission_covariance_of_transposed_order_depends_on_basis(action):
    # with a real physical rep the transposed coefficient is just as
    # covariant, so only the complex spherical basis separates the orders
    literal_cart = emission_map(build_tensors("normalized_cartesian"), order="literal")
    assert check_emission_covariance(literal_cart, action, _haar(5, 60)).max() <= 1e-10
    spherical_action = SymmetryAction(spin_half_rep(), spin_one_rep("spherical"))
    literal_sph = emission_map(build_tensors("normalized_spherical"), order="literal")
    deviations = check_emission_covariance(literal_sph, spherical_action, _haar(5, 60))
    assert deviations.max() > 1e-10
    assert deviations.max() > 0.1


def test_emission_covariance_fails_with_mismatched_basis(model):
    # cartesian tensors against the spherical physical rep cannot intertwine
    wrong = SymmetryAction(spin_half_rep(), spin_one_rep("spherical"))
    assert check_emission_covariance(model.triple.emission, wrong, _haar(6, 60)).max() > 1e-10


@pytest.mark.parametrize(
    "variant, bound",
    [("normalized_cartesian", 0.0), ("normalized_spherical", 1e-15), ("paper_literal", 1e-15)],
)
def test_deviations_on_the_flip_group(variant, bound):
    # the identity and the pi rotations about x, y and z, a measure-zero set
    # that Haar sampling never draws.  paper_literal passes here although it
    # fails emission and intertwining at Haar rotations: the flip group alone
    # cannot see its defect, which is why the checks keep sampling Haar.
    flips = np.stack(
        [np.asarray(RotationElement.identity())]
        + [np.asarray(RotationElement.from_axis_angle(axis, np.pi)) for axis in np.eye(3)]
    )
    m = build_model(variant)
    deviations = {
        "initial": check_initial_invariance(m.triple.phi0, m.action, flips),
        "transition": check_transition_equivariance(m.triple.transition, m.action, flips),
        "emission": check_emission_covariance(m.triple.emission, m.action, flips),
        "intertwining": verify_intertwining(m.tensors, m.action, flips),
    }
    for name, d in deviations.items():
        assert d.shape == (4,), name
        assert np.all(d <= bound), (name, d)
    # one random site per flip; sliced is not exactly 0 even for normalized
    # Cartesian, so it gets 1e-15 for every variant
    xs, ys = random_words(rng_from(0), m.triple, 4, 1)
    for structure in ("conventional", "causal"):
        d = check_sliced_covariance(m.triple, structure, m.action, flips, xs[:, 0], ys[:, 0])
        assert d.shape == (4,), structure
        assert np.all(d <= 1e-15), (structure, d)


@pytest.mark.parametrize("structure", ["conventional", "causal"])
def test_sliced_covariance(model, action, structure):
    rng = rng_from(7)
    q = haar_rotations(rng, 60)
    xs, ys = random_words(rng, model.triple, 60, 1)
    deviations = check_sliced_covariance(model.triple, structure, action, q, xs[:, 0], ys[:, 0])
    assert deviations.max() <= 1e-10
    assert deviations.max() < 1e-12


@pytest.mark.parametrize("structure", ["conventional", "causal"])
def test_global_invariance_by_volume(model, action, structure):
    by_volume = check_global_invariance(
        model.triple, structure, action, n_max=3, samples=15, seed=8
    )
    assert len(by_volume) == 4
    for deviations in by_volume:
        assert deviations.shape == (15,)
        assert deviations.max() <= 1e-9
        assert deviations.max() < 1e-11


def test_global_invariance_detects_broken_emission(model):
    # the unnormalized tensors are not covariant under the spherical action
    mismatched = emission_map(build_tensors("paper_literal"))
    broken = GenerativeTriple(2, 3, model.triple.phi0, model.triple.transition, mismatched)
    spherical_action = SymmetryAction(spin_half_rep(), spin_one_rep("spherical"))
    by_volume = check_global_invariance(
        broken, "conventional", spherical_action, n_max=1, samples=15, seed=9
    )
    assert by_volume[0].max() > 1e-9
    assert by_volume[0].max() > 1e-3


@pytest.mark.parametrize("structure", ["conventional", "causal"])
@pytest.mark.parametrize("variant", ["normalized_cartesian", "paper_literal"])
def test_one_rotation_replays_its_row_of_the_batch(variant, structure):
    # a witness row k, rerun alone on q[k:k+1] and its site, gives the same bits
    m = build_model(variant, structure)
    rng = rng_from(11)
    q = haar_rotations(rng, 30)
    xs, ys = random_words(rng, m.triple, 30, 1)
    checks = {
        "initial": lambda q, x, y: check_initial_invariance(m.triple.phi0, m.action, q),
        "transition": lambda q, x, y: check_transition_equivariance(
            m.triple.transition, m.action, q
        ),
        "emission": lambda q, x, y: check_emission_covariance(m.triple.emission, m.action, q),
        "sliced": lambda q, x, y: check_sliced_covariance(
            m.triple, m.structure, m.action, q, x, y
        ),
        "intertwining": lambda q, x, y: verify_intertwining(m.tensors, m.action, q),
    }
    for name, check in checks.items():
        batch = check(q, xs[:, 0], ys[:, 0])
        assert batch.shape == (30,), name
        for k in range(30):
            row = check(q[k : k + 1], xs[k : k + 1, 0], ys[k : k + 1, 0])
            assert np.array_equal(row, batch[k : k + 1]), (name, k)


def test_invariant_states_of_irreducible_rep():
    states = invariant_states(spin_half_rep(), group_samples=80, seed=10)
    assert len(states) == 1
    assert operator_norm(states[0] - np.eye(2) / 2) < 1e-10


def test_invariant_states_of_trivial_rep_span_all_densities():
    states = invariant_states(trivial_rep(2), group_samples=40, seed=11)
    assert len(states) == 4
    vecs = np.stack([s.reshape(-1) for s in states])
    assert np.linalg.matrix_rank(vecs, tol=1e-8) == 4
    for s in states:
        assert abs(np.trace(s) - 1.0) < 1e-12
        assert np.linalg.eigvalsh(s)[0] > -1e-12


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
            assert operator_norm(u @ s - s @ u) < 1e-9


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
