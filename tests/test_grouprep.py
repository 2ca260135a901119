import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis.strategies import floats

import util
from hqmmsym import (
    ProjectiveRep,
    RotationElement,
    SubgroupStructureError,
    canonical_quaternions,
    cocycle_defects,
    cocycle_eval,
    detect_nontrivial_class,
    haar_quaternions,
    operator_norm,
    operator_norms,
    rotation_matrices,
    spin_half_rep,
    spin_one_rep,
    su2_matrices,
)
from hqmmsym.grouprep import (
    CONDON_SHORTLEY,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    _compose,
    _distances,
    _hamilton,
    trivial_cocycle,
)
from hqmmsym.opalg import batched_kron


def test_canonical_sign_first_nonzero_positive():
    g = RotationElement((-0.5, 0.5, 0.5, 0.5))
    assert g.quat[0] > 0
    h = RotationElement((0.0, -1.0, 0.0, 0.0))
    assert h.quat == (0.0, 1.0, 0.0, 0.0)


def test_pi_rotations_have_exact_components():
    for axis, idx in (((1, 0, 0), 1), ((0, 1, 0), 2), ((0, 0, 1), 3)):
        g = RotationElement.from_axis_angle(axis, np.pi)
        expected = [0.0, 0.0, 0.0, 0.0]
        expected[idx] = 1.0
        assert g.quat == tuple(expected)


def test_haar_rows_are_the_elements_of_the_normalized_draws():
    draws = np.random.default_rng(3).standard_normal((50, 4))
    rows = haar_quaternions(draws)
    assert rows.shape == (50, 4)
    assert [tuple(r) for r in rows.tolist()] == [
        RotationElement(tuple(d / np.linalg.norm(d))).quat for d in draws
    ]


@pytest.mark.parametrize(
    "bad",
    [[0.0, 0.0, 0.0, 0.0], [np.nan] * 4, [0.5, np.nan, 0.5, 0.5]],
    ids=["zero", "nan", "one-nan"],
)
def test_canonical_quaternions_refuse_a_row_without_a_sign(bad):
    # a bare argmax over the kept components would pick component 0 here
    stack = util.haar_rotations(np.random.default_rng(4), 5)
    stack[2] = bad
    with pytest.raises(ValueError, match="canonical sign"):
        canonical_quaternions(stack)
    with pytest.raises(ValueError, match="canonical sign"):
        canonical_quaternions(stack[2])


def test_quaternion_validation():
    with pytest.raises(ValueError):
        RotationElement((1.0, 1.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        RotationElement((0.0, 0.0, 0.0, 0.0))


@pytest.mark.parametrize(
    "quat",
    [(np.inf, 0.0, 0.0, 0.0), (np.nan, 0.0, 0.0, 0.0), (1.0, 0.0, -np.inf, 0.0), (1e200, 0, 0, 0)],
    ids=["inf", "nan", "one-inf", "overflowing"],
)
def test_quaternion_validation_refuses_non_finite_and_huge_components(quat):
    # refused before any arithmetic could warn: a RuntimeWarning is an error here
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError):
            RotationElement(quat)


@pytest.mark.parametrize(
    "axis, angle",
    [((1.0, 0.0, 0.0), np.inf), ((1.0, 0.0, 0.0), np.nan), ((np.inf, 0.0, 0.0), 1.0),
     ((1.0, np.nan, 0.0), 1.0), ((0.0, 0.0, 0.0), 1.0)],
    ids=["inf-angle", "nan-angle", "inf-axis", "nan-axis", "zero-axis"],
)
def test_axis_angle_refuses_non_finite_input_without_a_warning(axis, angle):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError):
            RotationElement.from_axis_angle(axis, angle)


@pytest.mark.parametrize("scale", [1e308, 1e200, 1.0, 3.0, 1e-200, 3e-320])
def test_axis_angle_takes_any_finite_direction(scale):
    # the axis norm would overflow or underflow at the ends of the range;
    # scaling by a power of two first gives the unit axis's bits at every scale
    want = RotationElement.from_axis_angle((1.0, 1.0, 0.0), np.pi).quat
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = RotationElement.from_axis_angle((scale, scale, 0.0), np.pi).quat
    assert got == want
    assert got == (0.0, 0.7071067811865476, 0.7071067811865476, 0.0)


def test_group_laws():
    rng = np.random.default_rng(0)
    g, h, k = (util.haar_rotations(rng, 20) for _ in range(3))
    identity = np.asarray(RotationElement.identity())
    assert _distances(_compose(g, identity), g).max() < 1e-12
    lhs = _compose(_compose(g, h), k)
    rhs = _compose(g, _compose(h, k))
    assert _distances(lhs, rhs).max() < 1e-12


def test_rotation_matrix_is_special_orthogonal():
    q = util.haar_rotations(np.random.default_rng(1), 25)
    r = rotation_matrices(q)
    assert operator_norms(r @ np.swapaxes(r, -1, -2) - np.eye(3)).max() < 1e-12
    assert np.linalg.det(r) == pytest.approx(np.ones(25), abs=1e-12)


def test_rotation_matrix_multiplicative():
    rng = np.random.default_rng(2)
    g, h = util.haar_rotations(rng, 15), util.haar_rotations(rng, 15)
    product = rotation_matrices(g) @ rotation_matrices(h)
    assert operator_norms(rotation_matrices(_compose(g, h)) - product).max() < 1e-12


@settings(max_examples=60, deadline=None)
@given(
    floats(min_value=-1.0, max_value=1.0),
    floats(min_value=-1.0, max_value=1.0),
    floats(min_value=0.05, max_value=6.2),
)
def test_su2_adjoint_reproduces_rotation(ax, ay, angle):
    axis = np.array([ax, ay, 1.0 - ax])
    if np.linalg.norm(axis) < 1e-3:
        return
    g = RotationElement.from_axis_angle(axis, angle)
    u = su2_matrices(g)
    r = rotation_matrices(g)
    pauli = (SIGMA_X, SIGMA_Y, SIGMA_Z)
    for a in range(3):
        rotated = u @ pauli[a] @ u.conj().T
        recombined = sum(r[b, a] * pauli[b] for b in range(3))
        assert operator_norm(rotated - recombined) < 1e-12


@settings(max_examples=60, deadline=None)
@given(floats(min_value=-3.0, max_value=3.0), floats(min_value=-3.0, max_value=3.0))
def test_same_axis_angles_add(alpha, beta):
    axis = (0.3, -0.4, 0.9)
    g = RotationElement.from_axis_angle(axis, alpha)
    h = RotationElement.from_axis_angle(axis, beta)
    combined = RotationElement.from_axis_angle(axis, alpha + beta)
    assert _distances(_compose(g, h), np.asarray(combined)) < 1e-12


def test_haar_sampling_is_deterministic():
    g = np.random.default_rng(42).standard_normal((10, 4))
    a = haar_quaternions(g)
    assert np.array_equal(a, haar_quaternions(g.copy()))
    # a row's bits are its own Gaussians', whatever the rest of the stack
    assert all(haar_quaternions(g[k : k + 1]).tobytes() == a[k].tobytes() for k in range(10))
    assert not np.array_equal(util.haar_rotations(np.random.default_rng(43), 10)[0], a[0])


def test_canonicalization_versus_raw_sample():
    raw = np.random.default_rng(5).standard_normal((400, 4))
    # raw quaternions hit both sheets of the double cover
    assert (raw[:, 0] < 0).sum() > 100
    for g in util.haar_rotations(np.random.default_rng(5), 50):
        first_nonzero = next(c for c in g if c != 0.0)
        assert first_nonzero > 0


def _cocycle_by_dot(g, h):
    """The section sign recovered from the canonical product by a dot product."""
    prod = _hamilton(g, h)
    return np.sign(np.sum(prod * canonical_quaternions(prod), axis=-1))


def test_cocycle_values_are_exact_signs():
    rng = np.random.default_rng(7)
    gs, hs = util.haar_rotations(rng, 300), util.haar_rotations(rng, 300)
    seen = set()
    for g, h in zip(gs, hs):
        omega = cocycle_eval(g, h)
        assert omega == 1.0 or omega == -1.0
        seen.add(omega)
    assert seen == {1.0, -1.0}
    assert cocycle_eval(gs, hs).tobytes() == _cocycle_by_dot(gs, hs).tobytes()


def test_section_property_of_su2_lift():
    rng = np.random.default_rng(8)
    g, h = util.haar_rotations(rng, 100), util.haar_rotations(rng, 100)
    omega = cocycle_eval(g, h)[:, None, None]
    lift = su2_matrices(g) @ su2_matrices(h)
    assert operator_norms(lift - omega * su2_matrices(_compose(g, h))).max() < 1e-12


@settings(max_examples=200, deadline=None)
@given(
    floats(min_value=-1.0, max_value=1.0),
    floats(min_value=-1.0, max_value=1.0),
    floats(min_value=-1.0, max_value=1.0),
    floats(min_value=0.0, max_value=np.pi),
)
# an axis component near the snap threshold: zeroed in g, kept in h
@example(ax=0.0, ay=0.6875, az=1e-12, theta=1.5)
def test_section_property_when_the_product_is_a_pi_rotation(ax, ay, az, theta):
    # g h is a rotation by pi, whose canonical quaternion has a zero scalar
    # part that the raw product only approximates
    axis = np.array([ax, ay, az])
    assume(np.linalg.norm(axis) > 1e-3)
    g = RotationElement.from_axis_angle(axis, theta)
    h = RotationElement.from_axis_angle(axis, np.pi - theta)
    lift = su2_matrices(g) @ su2_matrices(h)
    assert operator_norm(lift - cocycle_eval(g, h) * su2_matrices(_compose(g, h))) < 1e-12
    assert cocycle_eval(g, h) == _cocycle_by_dot(g, h)
    # the same pair through the batched path
    _, defects = cocycle_defects(spin_half_rep(), [g], [h])
    assert defects[0] < 1e-12


def test_detect_nontrivial_class_on_flip_groups_in_random_frames():
    rng = np.random.default_rng(20)
    for _ in range(300):
        frame, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        flips = [RotationElement.from_axis_angle(axis, np.pi) for axis in frame.T]
        assert detect_nontrivial_class([RotationElement.identity(), *flips]).nontrivial


def test_cocycle_identity_is_exact():
    rng = np.random.default_rng(9)
    g, h, k = (util.haar_rotations(rng, 200) for _ in range(3))
    lhs = cocycle_eval(g, h) * cocycle_eval(_compose(g, h), k)
    rhs = cocycle_eval(h, k) * cocycle_eval(g, _compose(h, k))
    assert np.array_equal(lhs, rhs)


def test_gauge_transform_by_trivial_lambda():
    gauged = util.gauge_transform(cocycle_eval, lambda q: 1.0)
    rng = np.random.default_rng(10)
    qg, qh = util.haar_rotations(rng, 30), util.haar_rotations(rng, 30)
    assert np.array_equal(gauged(qg, qh), cocycle_eval(qg, qh))


def test_commutator_pairing_gauge_invariant():
    x = RotationElement.from_axis_angle((1, 0, 0), np.pi)
    y = RotationElement.from_axis_angle((0, 1, 0), np.pi)
    assert util.commutator_pairing(x, y) == pytest.approx(-1.0)
    # a generic unimodular gauge leaves the pairing untouched
    rng = np.random.default_rng(12)
    phases = {}

    def lam(q):
        values = []
        for row in np.reshape(q, (-1, 4)):
            key = tuple(round(c, 12) for c in row)
            if key not in phases:
                phases[key] = np.exp(1j * rng.uniform(0, 2 * np.pi))
            values.append(phases[key])
        return np.reshape(values, np.shape(q)[:-1])

    gauged = util.gauge_transform(cocycle_eval, lam)
    ratio = gauged(x, y) / gauged(y, x)
    assert ratio == pytest.approx(-1.0)


def test_commutator_pairing_same_axis_is_trivial():
    g = RotationElement.from_axis_angle((0, 0, 1), 0.7)
    h = RotationElement.from_axis_angle((0, 0, 1), 2.1)
    assert util.commutator_pairing(g, h) == pytest.approx(1.0)


def _z2z2():
    return [
        RotationElement.identity(),
        RotationElement.from_axis_angle((1, 0, 0), np.pi),
        RotationElement.from_axis_angle((0, 1, 0), np.pi),
        RotationElement.from_axis_angle((0, 0, 1), np.pi),
    ]


def test_detect_nontrivial_class_on_flip_group():
    report = detect_nontrivial_class(_z2z2())
    assert report.nontrivial
    assert report.witness is not None
    table = np.real(report.pairing_table)
    assert np.allclose(np.abs(table), 1.0)
    # identity row and column pair trivially, distinct flips anticommute
    assert np.allclose(table[0], 1.0)
    assert np.allclose(table[:, 0], 1.0)
    assert table[1, 2] == pytest.approx(-1.0)
    off = table[1:, 1:]
    assert np.allclose(np.diag(off), 1.0)
    assert np.allclose(off[~np.eye(3, dtype=bool)], -1.0)


def test_cocycle_defects_on_the_flip_group():
    # all 16 ordered pairs of a measure-zero set that Haar sampling never
    # draws; g indexes the rows and h the columns
    q = np.asarray(_z2z2(), dtype=float).reshape(4, 4)
    g, h = np.repeat(q, 4, axis=0), np.tile(q, (4, 1))
    omega, defects = cocycle_defects(spin_half_rep(), g, h)
    assert np.array_equal(defects, np.zeros(16))
    want = [[1, 1, 1, 1], [1, -1, 1, -1], [1, -1, -1, 1], [1, 1, -1, -1]]
    assert np.array_equal(omega.reshape(4, 4), want)


def test_detect_nontrivial_class_on_cyclic_group_is_trivial():
    elements = [
        RotationElement.from_axis_angle((0, 0, 1), 2 * np.pi * k / 4) for k in range(4)
    ]
    report = detect_nontrivial_class(elements)
    assert not report.nontrivial
    assert report.witness is None
    assert np.allclose(report.pairing_table, 1.0)


def test_detect_nontrivial_class_rejects_non_closed_set():
    elements = [RotationElement.identity(), RotationElement.from_axis_angle((0, 0, 1), np.pi / 2)]
    with pytest.raises(SubgroupStructureError, match="leaves"):
        detect_nontrivial_class(elements)


def test_detect_nontrivial_class_rejects_non_abelian_set():
    # dihedral group of the triangle: closed but not abelian
    elements = [RotationElement.from_axis_angle((0, 0, 1), 2 * np.pi * k / 3) for k in range(3)]
    elements += [
        RotationElement.from_axis_angle((np.cos(phi), np.sin(phi), 0), np.pi)
        for phi in (0.0, np.pi / 3, 2 * np.pi / 3)
    ]
    with pytest.raises(SubgroupStructureError, match="commute"):
        detect_nontrivial_class(elements)


def test_spin_half_is_the_canonical_lift():
    for g in util.haar_rotations(np.random.default_rng(13), 10):
        assert operator_norm(spin_half_rep().stack(g) - su2_matrices(g)) == 0.0


def test_spin_one_cartesian_is_the_rotation_matrix():
    for g in util.haar_rotations(np.random.default_rng(14), 10):
        assert operator_norm(spin_one_rep("cartesian").stack(g) - rotation_matrices(g)) < 1e-14


def test_spin_one_spherical_is_conjugated():
    for g in util.haar_rotations(np.random.default_rng(15), 10):
        u = CONDON_SHORTLEY
        expected = u @ rotation_matrices(g) @ u.conj().T
        assert operator_norm(spin_one_rep("spherical").stack(g) - expected) < 1e-13
    with pytest.raises(ValueError):
        spin_one_rep("cylindrical")


def test_spin_one_spherical_matches_wigner_entries():
    theta = 0.83
    gz = RotationElement.from_axis_angle((0, 0, 1), theta)
    uz = spin_one_rep("spherical").stack(gz)
    assert uz[0, 0] == pytest.approx(np.exp(-1j * theta), abs=1e-13)
    assert uz[1, 1] == pytest.approx(1.0, abs=1e-13)
    assert uz[2, 2] == pytest.approx(np.exp(1j * theta), abs=1e-13)
    beta = 1.37
    gy = RotationElement.from_axis_angle((0, 1, 0), beta)
    assert operator_norm(spin_one_rep("spherical").stack(gy) - util.wigner_d1(beta)) < 1e-12


# the pi rotations about x, y, z, (1, 1, 0) and (0, -1, 1): measure-zero
# points that Haar sampling never draws
PI_ROTATIONS = np.stack(
    [
        np.asarray(RotationElement.from_axis_angle(axis, np.pi))
        for axis in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, -1, 1))
    ]
)


@pytest.mark.parametrize(
    "stack, generators",
    [
        (su2_matrices, util.spin_matrices(0.5)),
        (spin_one_rep("spherical").stack, util.spin_matrices(1)),
        (spin_one_rep("cartesian").stack, util.cartesian_spin_one_generators()),
    ],
    ids=["su2", "spin-one-spherical", "spin-one-cartesian"],
)
def test_reps_are_the_exponentials_of_their_generators(stack, generators):
    # U(g) = exp(-i theta n.J) for g the rotation by theta about n
    for q in (util.haar_rotations(np.random.default_rng(16), 50), PI_ROTATIONS):
        assert operator_norms(stack(q) - util.rotation_exponentials(q, generators)).max() <= 1e-14


def test_integer_spin_is_multiplicative():
    rng = np.random.default_rng(17)
    g, h = util.haar_rotations(rng, 20), util.haar_rotations(rng, 20)
    omega, defects = cocycle_defects(spin_one_rep("spherical"), g, h)
    assert np.array_equal(omega, np.ones(20))
    assert defects.max() < 1e-12


def test_half_integer_spin_is_projective_with_the_section_cocycle():
    rng = np.random.default_rng(18)
    g, h = util.haar_rotations(rng, 20), util.haar_rotations(rng, 20)
    omega, defects = cocycle_defects(spin_half_rep(), g, h)
    assert np.array_equal(omega, cocycle_eval(g, h))
    assert defects.max() < 1e-12


@pytest.mark.parametrize("j, bound", [(0.5, 0.0), (1, 0.0)])
def test_spin_rep_of_a_stack_is_the_rows(j, bound):
    stacks = {0.5: [su2_matrices], 1: [spin_one_rep(b).stack for b in ("cartesian", "spherical")]}
    q = util.haar_rotations(np.random.default_rng(22), 50)
    for stack in stacks[j]:
        rows = np.stack([stack(g) for g in q])
        assert np.abs(stack(q) - rows).max() <= bound


def test_commutator_pairing_of_a_stack_is_the_pairing_table():
    frame, _ = np.linalg.qr(np.random.default_rng(23).standard_normal((3, 3)))
    groups = [
        _z2z2(),
        [RotationElement.identity(), *(RotationElement.from_axis_angle(a, np.pi) for a in frame.T)],
        [RotationElement.from_axis_angle((0, 0, 1), 2 * np.pi * k / 4) for k in range(4)],
    ]
    for elements in groups:
        q = np.asarray(elements)
        table = util.commutator_pairing(q[:, None], q[None, :])
        assert table.tobytes() == detect_nontrivial_class(elements).pairing_table.tobytes()


def test_rep_wrappers():
    half = spin_half_rep()
    one = spin_one_rep("spherical")
    triv = util.trivial_rep(2)
    assert (half.dim, one.dim, triv.dim) == (2, 3, 2)
    assert half.cocycle is cocycle_eval
    assert one.cocycle is trivial_cocycle
    q = util.haar_rotations(np.random.default_rng(19), 1)
    assert half.stack(q).shape == (1, 2, 2)
    assert operator_norm(triv.stack(q)[0] - np.eye(2)) == 0.0


def test_tensor_of_two_projective_reps_is_linear():
    # the sign cocycle squares to one, so half tensor half multiplies exactly
    half = spin_half_rep()
    for other, seed in ((half, 20), (spin_one_rep(), 21)):
        product = ProjectiveRep(
            half.dim * other.dim,
            lambda q, other=other: batched_kron(half.stack(q), other.stack(q)),
            lambda qg, qh, other=other: half.cocycle(qg, qh) * other.cocycle(qg, qh),
        )
        q = util.haar_rotations(np.random.default_rng(seed), 2 * 50)
        _, deviations = cocycle_defects(product, q[0::2], q[1::2])
        assert deviations.shape == (50,)
        assert deviations.max() < 1e-12
