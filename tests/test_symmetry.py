import numpy as np
import pytest

import util
from hqmmsym import (
    DimensionMismatchError,
    GenerativeTriple,
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
    spin_half_rep,
    spin_one_rep,
    verify_intertwining,
)
from hqmmsym.cli import CHECKS, RunConfig, draw


@pytest.fixture(scope="module")
def model():
    return build_model("normalized_cartesian")


@pytest.fixture(scope="module")
def action(model):
    return model.action


def _haar(seed, count):
    return util.haar_rotations(np.random.default_rng(seed), count)


def _stacks(action, q):
    """The stacks pi(q) and rho(q) a local check takes."""
    return action.pi.stack(q), action.rho.stack(q)


def _pi(action, seed, count):
    return action.pi.stack(_haar(seed, count))


def test_check_result_serialization(model):
    config = RunConfig(seed=0, samples=10)
    inputs = CHECKS["initial"].inputs(draw(model, config, ("initial",)), config)
    [result] = CHECKS["initial"].results(model, config, 1e-10, inputs)
    d = result.to_json_dict()
    assert set(d) == {"condition", "samples", "seed", "max_deviation", "tolerance", "pass"}
    assert d["pass"] is True
    assert d["condition"] == "initial_invariance"
    assert d["samples"] == 10


def test_initial_invariance_of_maximally_mixed_state(model, action):
    deviations = check_initial_invariance(model.triple.phi0, _pi(action, 1, 60))
    assert deviations.max() <= 1e-10
    assert deviations.max() < 1e-12


def test_initial_invariance_fails_for_polarized_state(action):
    polarized = np.diag([0.8, 0.2]).astype(complex)
    deviations = check_initial_invariance(polarized, _pi(action, 2, 60))
    assert deviations.max() > 1e-10
    assert deviations.max() > 0.1


def test_transition_equivariance(model, action):
    deviations = check_transition_equivariance(model.triple.transition, _pi(action, 3, 60))
    assert deviations.max() <= 1e-10
    assert deviations.max() < 1e-12


def test_emission_covariance(model, action):
    deviations = check_emission_covariance(model.triple.emission, *_stacks(action, _haar(4, 60)))
    assert deviations.max() <= 1e-10
    assert deviations.max() < 1e-12


def test_emission_covariance_of_transposed_order_depends_on_basis(action):
    # with a real physical rep the transposed coefficient is just as
    # covariant, so only the complex spherical basis separates the orders
    literal_cart = util.transpose_physical_slot(emission_map(build_tensors("normalized_cartesian")))
    assert check_emission_covariance(literal_cart, *_stacks(action, _haar(5, 60))).max() <= 1e-10
    spherical_action = SymmetryAction(spin_half_rep(), spin_one_rep("spherical"))
    literal_sph = util.transpose_physical_slot(emission_map(build_tensors("normalized_spherical")))
    deviations = check_emission_covariance(literal_sph, *_stacks(spherical_action, _haar(5, 60)))
    assert deviations.max() > 1e-10
    assert deviations.max() > 0.1


def test_emission_covariance_fails_with_mismatched_basis(model):
    # cartesian tensors against the spherical physical rep cannot intertwine
    wrong = SymmetryAction(spin_half_rep(), spin_one_rep("spherical"))
    assert check_emission_covariance(model.triple.emission, *_stacks(wrong, _haar(6, 60))).max() > 1e-10


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
    u, r = _stacks(m.action, flips)
    deviations = {
        "initial": check_initial_invariance(m.triple.phi0, u),
        "transition": check_transition_equivariance(m.triple.transition, u),
        "emission": check_emission_covariance(m.triple.emission, u, r),
        "intertwining": verify_intertwining(m.tensors, u, r),
    }
    for name, d in deviations.items():
        assert d.shape == (4,), name
        assert np.all(d <= bound), (name, d)
    # one random site per flip; sliced is not exactly 0 even for normalized
    # Cartesian, so it gets 1e-15 for every variant
    xs, ys = util.random_words(np.random.default_rng(0), m.triple, 4, 1)
    for structure in ("conventional", "causal"):
        d = check_sliced_covariance(m.triple, structure, u, r, xs[:, 0], ys[:, 0])
        assert d.shape == (4,), structure
        assert np.all(d <= 1e-15), (structure, d)


@pytest.mark.parametrize("structure", ["conventional", "causal"])
def test_sliced_covariance(model, action, structure):
    rng = np.random.default_rng(7)
    q = util.haar_rotations(rng, 60)
    xs, ys = util.random_words(rng, model.triple, 60, 1)
    deviations = check_sliced_covariance(
        model.triple, structure, *_stacks(action, q), xs[:, 0], ys[:, 0]
    )
    assert deviations.max() <= 1e-10
    assert deviations.max() < 1e-12


@pytest.mark.parametrize("structure", ["conventional", "causal"])
def test_global_invariance_by_volume(model, action, structure):
    by_volume = check_global_invariance(
        model.triple, structure, *util.global_draw(8, model.triple, action, n_max=3, samples=15)
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
    inputs = util.global_draw(9, broken, spherical_action, n_max=1, samples=15)
    by_volume = check_global_invariance(broken, "conventional", *inputs)
    assert by_volume[0].max() > 1e-9
    assert by_volume[0].max() > 1e-3


@pytest.mark.parametrize("structure", ["conventional", "causal"])
@pytest.mark.parametrize("variant", ["normalized_cartesian", "paper_literal"])
def test_one_rotation_replays_its_row_of_the_batch(variant, structure):
    # a witness row k, rerun alone on its rotation's stacks and its site,
    # gives the same bits
    m = build_model(variant, structure)
    rng = np.random.default_rng(11)
    u, r = _stacks(m.action, util.haar_rotations(rng, 30))
    xs, ys = util.random_words(rng, m.triple, 30, 1)
    checks = {
        "initial": lambda u, r, x, y: check_initial_invariance(m.triple.phi0, u),
        "transition": lambda u, r, x, y: check_transition_equivariance(m.triple.transition, u),
        "emission": lambda u, r, x, y: check_emission_covariance(m.triple.emission, u, r),
        "sliced": lambda u, r, x, y: check_sliced_covariance(m.triple, m.structure, u, r, x, y),
        "intertwining": lambda u, r, x, y: verify_intertwining(m.tensors, u, r),
    }
    for name, check in checks.items():
        batch = check(u, r, xs[:, 0], ys[:, 0])
        assert batch.shape == (30,), name
        for k in range(30):
            row = check(u[k : k + 1], r[k : k + 1], xs[k : k + 1, 0], ys[k : k + 1, 0])
            assert np.array_equal(row, batch[k : k + 1]), (name, k)


def test_stacks_of_unequal_length_are_refused(model, action):
    # sample k reads entry k of every stack, so a stack that is shorter or
    # longer than u pairs no sample with its inputs: refused, not truncated
    # or broadcast
    rng = np.random.default_rng(13)
    u, r = _stacks(action, util.haar_rotations(rng, 30))
    xs, ys = util.random_words(rng, model.triple, 30, 1)
    xs, ys = xs[:, 0], ys[:, 0]
    sliced = [
        # one rotation against 30 sites, and 30 rotations against one site
        (u[:1], r[:1], xs, ys),
        (u, r, xs[:1], ys[:1]),
        (u, r, xs, ys[:1]),
        # u against r
        (u[:1], r, xs[:1], ys[:1]),
        (u, r[:1], xs, ys),
    ]
    for args in sliced:
        with pytest.raises(DimensionMismatchError):
            check_sliced_covariance(model.triple, model.structure, *args)
    for a, b in ((u[:1], r), (u, r[:1])):
        with pytest.raises(DimensionMismatchError):
            check_emission_covariance(model.triple.emission, a, b)
        with pytest.raises(DimensionMismatchError):
            verify_intertwining(model.tensors, a, b)
    # global's words: one per sample, hidden and observable of one length
    wx, wy = util.random_words(rng, model.triple, 30, 3)
    for args in ((u[:1], r, wx, wy), (u, r[:1], wx, wy), (u, r, wx[:1], wy), (u, r, wx, wy[:, :2])):
        with pytest.raises(DimensionMismatchError):
            check_global_invariance(model.triple, model.structure, *args)


def test_swapped_stacks_are_refused(model, action):
    # each stack must hold matrices of the space it acts on: rho's 3 x 3
    # matrices where pi's 2 x 2 belong, or observable sites where hidden
    # ones belong, are refused before any arithmetic
    rng = np.random.default_rng(13)
    u, r = _stacks(action, util.haar_rotations(rng, 30))
    xs, ys = util.random_words(rng, model.triple, 30, 1)
    xs, ys = xs[:, 0], ys[:, 0]
    wx, wy = util.random_words(rng, model.triple, 30, 3)
    swapped = {
        "initial": lambda: check_initial_invariance(model.triple.phi0, r),
        "transition": lambda: check_transition_equivariance(model.triple.transition, r),
        "emission": lambda: check_emission_covariance(model.triple.emission, r, u),
        "sliced": lambda: check_sliced_covariance(model.triple, model.structure, r, u, xs, ys),
        "intertwining": lambda: verify_intertwining(model.tensors, r, u),
        "global": lambda: check_global_invariance(model.triple, model.structure, r, u, wx, wy),
    }
    for name, call in swapped.items():
        with pytest.raises(DimensionMismatchError, match="pi stack") as err:
            call()
        assert (err.value.expected, err.value.got) == ((30, 2, 2), (30, 3, 3)), name
    with pytest.raises(DimensionMismatchError, match="hidden sites"):
        check_sliced_covariance(model.triple, model.structure, u, r, ys, xs)
    with pytest.raises(DimensionMismatchError, match="hidden words"):
        check_global_invariance(model.triple, model.structure, u, r, wy, wx)
