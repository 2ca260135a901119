import numpy as np
import pytest

import util
from hqmmsym import (
    ComplexOperator,
    DimensionMismatchError,
    OperatorMap,
    certify_cpu,
    operator_norm,
)
from hqmmsym.opalg import conjugate


def test_operator_construction_and_validation():
    a = ComplexOperator(2, np.eye(2))
    assert a.dim == 2
    with pytest.raises(DimensionMismatchError):
        ComplexOperator(3, np.eye(2))
    with pytest.raises(DimensionMismatchError):
        ComplexOperator(2, np.zeros((2, 3)))


def test_operator_entries_are_frozen():
    a = ComplexOperator(2, np.eye(2))
    with pytest.raises(ValueError):
        a.entries[0, 0] = 5.0


def test_operator_basic_algebra():
    rng = np.random.default_rng(0)
    x = ComplexOperator(3, util.random_operator(rng, 3))
    assert abs(np.trace(np.asarray(x)) - np.trace(x.entries)) == 0.0



def test_map_from_function_matches_direct_action():
    rng = np.random.default_rng(4)
    k = util.random_operator(rng, 3)
    m = OperatorMap.from_function(3, 3, lambda w: k @ w @ k.conj().T)
    for _ in range(10):
        w = util.random_operator(rng, 3)
        assert operator_norm(m.apply_array(w) - k @ w @ k.conj().T) < 1e-13


def test_map_linearity():
    rng = np.random.default_rng(5)
    m = OperatorMap.from_kraus(2, 3, [util.random_operator(rng, 3)[:, :2] for _ in range(3)])
    x, y = util.random_operator(rng, 2), util.random_operator(rng, 2)
    a, b = 1.3 - 0.2j, -0.7j
    lhs = m.apply_array(a * x + b * y)
    rhs = a * m.apply_array(x) + b * m.apply_array(y)
    assert operator_norm(lhs - rhs) < 1e-13


def test_map_from_kraus_matches_sum():
    rng = np.random.default_rng(6)
    kraus = [
        rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4)) for _ in range(3)
    ]
    m = OperatorMap.from_kraus(4, 2, kraus)
    w = util.random_operator(rng, 4)
    direct = sum(k @ w @ k.conj().T for k in kraus)
    assert operator_norm(m.apply_array(w) - direct) < 1e-12


def test_map_kraus_shape_validation():
    with pytest.raises(DimensionMismatchError):
        OperatorMap.from_kraus(2, 2, [np.zeros((2, 3))])
    with pytest.raises(DimensionMismatchError):
        OperatorMap(2, 2, np.zeros((2, 2, 2, 2)), kraus=np.zeros((1, 2, 3)))


def test_kraus_maps_keep_their_stack_read_only():
    rng = np.random.default_rng(11)
    kraus = [rng.standard_normal((2, 6)) + 1j * rng.standard_normal((2, 6)) for _ in range(2)]
    m = OperatorMap.from_kraus(6, 2, kraus)
    assert m.kraus.shape == (2, 2, 6) and np.array_equal(m.kraus, kraus)
    with pytest.raises(ValueError):
        m.kraus[0, 0, 0] = 1.0
    kraus[0][0, 0] = 7.0  # the map holds a copy
    assert m.kraus[0, 0, 0] != 7.0
    assert OperatorMap(6, 2, m.coeff).kraus is None
    assert OperatorMap.from_kraus(6, 2, []).kraus.shape == (0, 2, 6)



def test_choi_of_kraus_map_is_positive():
    rng = np.random.default_rng(7)
    m = OperatorMap.from_kraus(3, 2, [util.random_operator(rng, 3)[:2, :] for _ in range(2)])
    choi = m.choi()
    assert operator_norm(choi - choi.conj().T) < 1e-14
    assert np.linalg.eigvalsh((choi + choi.conj().T) / 2)[0] > -1e-12


def test_transpose_map_is_not_cp_and_brute_force_agrees():
    m = OperatorMap.from_function(2, 2, lambda w: w.T)
    assert certify_cpu(m)["choi_negativity"] > 0.5
    # an entangled input shows the negativity without any Choi machinery
    rng = np.random.default_rng(8)
    assert util.brute_force_cp(m, rng, trials=200) < -0.1


def test_brute_force_cp_agrees_on_positive_map():
    rng = np.random.default_rng(9)
    kraus = util.random_unital_kraus(rng, 3, 3, 4)
    m = OperatorMap.from_kraus(3, 3, kraus)
    util.assert_cpu(certify_cpu(m))
    assert util.brute_force_cp(m, rng, trials=200) > -1e-12


def test_certify_cpu_flags_non_unital():
    m = OperatorMap.from_kraus(2, 2, [np.eye(2) * 0.5])
    cert = certify_cpu(m)
    assert cert["choi_hermiticity"] <= 1e-10 and cert["choi_negativity"] <= 1e-10
    assert cert["unitality"] == pytest.approx(0.75)



def test_bipartite_build_and_apply_pair():
    rng = np.random.default_rng(10)
    kraus = util.random_unital_kraus(rng, 6, 2, 3)
    m = OperatorMap.from_kraus(6, 2, kraus)
    a = util.random_operator(rng, 2)
    b = util.random_operator(rng, 3)
    pair = np.kron(a, b)
    via_kraus = sum(k @ pair @ k.conj().T for k in kraus)
    assert operator_norm(m.apply_array(pair) - via_kraus) < 1e-13



def test_non_finite_maps_get_nan_certificates():
    for bad in (np.nan, np.inf, -np.inf):
        coeff = OperatorMap.from_kraus(2, 2, [np.eye(2)]).coeff.copy()
        coeff[0, 0, 1, 1] = bad
        cert = certify_cpu(OperatorMap(2, 2, coeff))
        assert list(cert) == ["choi_hermiticity", "choi_negativity", "unitality"]
        assert all(np.isnan(value) for value in cert.values()), (bad, cert)


def _gaussian(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _haar(rng, count, d):
    return np.linalg.qr(_gaussian(rng, count, d, d))[0]


def _matmul_conjugate(u, a):
    return u @ a @ np.conj(np.swapaxes(u, -1, -2))


def _relative_gaps(got, want):
    """Per matrix, the largest entry gap over the largest entry of want."""
    return np.abs(got - want).max(axis=(-2, -1)) / np.abs(want).max(axis=(-2, -1))


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("shared", ["none", "a", "u", "broadcast", "real"])
def test_entrywise_conjugation_agrees_with_matmul(d, shared):
    rng = np.random.default_rng(31)
    u, a = _haar(rng, 300, d), _gaussian(rng, 300, d, d)
    if shared == "a":
        a = a[0]
    elif shared == "u":
        u = u[0]
    elif shared == "broadcast":
        # each rotation against every one of three matrices, as intertwining does
        u, a = u[:, None], a[:3]
    elif shared == "real":
        # the spherical spin-1 rep conjugates real rotation matrices by a fixed u
        u, a = u[0], a.real
    got, want = conjugate(u, a), _matmul_conjugate(u, a)
    assert got.shape == want.shape
    assert _relative_gaps(got, want).max() <= 1e-15


@pytest.mark.parametrize("d", [8, 12])
def test_gemm_conjugation_agrees_with_matmul(d):
    # the Choi matrices of the transition (8 x 8) and emission (12 x 12)
    rng = np.random.default_rng(33)
    w, c = _haar(rng, 200, d), _gaussian(rng, d, d)
    assert _relative_gaps(conjugate(w, c), _matmul_conjugate(w, c)).max() <= 1e-15
    # a stack of matrices needs the per-matrix products: it is refused
    with pytest.raises(DimensionMismatchError):
        conjugate(w, w)


@pytest.mark.parametrize("d", [2, 3, 4, 8, 12])
def test_each_conjugation_alone_equals_its_row_of_the_stack(d):
    # a stack of one takes the same path as its row in a stack of 150
    rng = np.random.default_rng(34)
    u = _haar(rng, 150, d)
    a = _gaussian(rng, d, d) if d > 4 else _gaussian(rng, 150, d, d)
    stack = conjugate(u, a)
    for k in (0, 1, 77, 149):
        alone = conjugate(u[k : k + 1], a if d > 4 else a[k : k + 1])
        assert alone.tobytes() == stack[k : k + 1].tobytes(), k
