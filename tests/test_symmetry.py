import numpy as np
import pytest

import util
from hqmmsym import (
    GenerativeTriple,
    RotationBatch,
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
    random_words,
    spin_half_rep,
    spin_one_rep,
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
    literal_cart = util.transpose_physical_slot(emission_map(build_tensors("normalized_cartesian")))
    assert check_emission_covariance(literal_cart, action, _haar(5, 60)).max() <= 1e-10
    spherical_action = SymmetryAction(spin_half_rep(), spin_one_rep("spherical"))
    literal_sph = util.transpose_physical_slot(emission_map(build_tensors("normalized_spherical")))
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


def test_a_rotation_batch_gives_the_bits_of_its_rotations(model, action):
    # a verify run hands every map-level check one RotationBatch; each check
    # must give the bits it gives on the bare rotations, under its own action
    rng = rng_from(13)
    q = haar_rotations(rng, 40)
    xs, ys = random_words(rng, model.triple, 40, 1)
    other = SymmetryAction(spin_half_rep(), spin_one_rep("spherical"))
    checks = {
        "initial": lambda a, q: check_initial_invariance(model.triple.phi0, a, q),
        "transition": lambda a, q: check_transition_equivariance(model.triple.transition, a, q),
        "emission": lambda a, q: check_emission_covariance(model.triple.emission, a, q),
        "sliced": lambda a, q: check_sliced_covariance(
            model.triple, model.structure, a, q, xs[:, 0], ys[:, 0]
        ),
        "intertwining": lambda a, q: verify_intertwining(model.tensors, a, q),
    }
    shared = RotationBatch(action, q)
    foreign = RotationBatch(other, q)
    for name, check in checks.items():
        assert np.array_equal(check(action, shared), check(action, q)), name
        # a batch built for another action holds other stacks: it is refused
        with pytest.raises(ValueError, match="another action"):
            check(action, foreign)
    assert np.abs(foreign.rho - shared.rho).max() > 0.1
