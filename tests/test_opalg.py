import numpy as np
import pytest

import util
from hqmmsym import (
    BipartiteMap,
    ComplexOperator,
    DimensionMismatchError,
    NonHermitianError,
    OperatorMap,
    certify_cpu,
    hermitian_eigenvalues,
    operator_norm,
    tensor,
)
from hqmmsym.sampling import random_hermitian, random_operator, random_psd, rng_from


def test_operator_construction_and_validation():
    a = ComplexOperator(2, np.eye(2))
    assert a.dim == 2
    with pytest.raises(DimensionMismatchError):
        ComplexOperator(3, np.eye(2))
    with pytest.raises(DimensionMismatchError):
        ComplexOperator.from_array(np.zeros((2, 3)))


def test_operator_entries_are_frozen():
    a = ComplexOperator.identity(2)
    with pytest.raises(ValueError):
        a.entries[0, 0] = 5.0


def test_operator_basic_algebra():
    rng = rng_from(0)
    x = ComplexOperator(3, random_operator(rng, 3))
    y = ComplexOperator(3, random_operator(rng, 3))
    assert operator_norm((x + y).entries - (x.entries + y.entries)) == 0.0
    assert operator_norm((x - y).entries - (x.entries - y.entries)) == 0.0
    assert operator_norm((-x).entries + x.entries) == 0.0
    assert operator_norm((2.5j * x).entries - 2.5j * x.entries) < 1e-15
    assert operator_norm((x @ y).entries - x.entries @ y.entries) == 0.0
    assert abs(x.trace() - np.trace(x.entries)) == 0.0
    assert operator_norm(x.adjoint().entries - x.entries.conj().T) == 0.0


def test_operator_dim_mismatch_in_arithmetic():
    with pytest.raises(DimensionMismatchError):
        ComplexOperator.identity(2) + ComplexOperator.identity(3)


def test_hermiticity_predicate():
    rng = rng_from(1)
    h = ComplexOperator(4, random_hermitian(rng, 4))
    assert h.is_hermitian()
    skew = ComplexOperator(2, np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert not skew.is_hermitian()


def test_operator_json_round_trip():
    rng = rng_from(2)
    a = ComplexOperator(3, random_operator(rng, 3))
    b = ComplexOperator.from_json_dict(a.to_json_dict())
    assert b.dim == 3
    assert operator_norm(a.entries - b.entries) == 0.0


def test_operator_json_validation():
    with pytest.raises(DimensionMismatchError):
        ComplexOperator.from_json_dict({"dim": 2, "re": [1.0, 0.0], "im": [0.0] * 4})
    with pytest.raises(DimensionMismatchError):
        ComplexOperator.from_json_dict({"dim": 2, "re": [0.0] * 4, "im": [0.0]})


def test_tensor_is_kronecker_product():
    rng = rng_from(3)
    a = ComplexOperator(2, random_operator(rng, 2))
    b = ComplexOperator(3, random_operator(rng, 3))
    t = tensor(a, b)
    assert t.dim == 6
    assert operator_norm(t.entries - np.kron(a.entries, b.entries)) == 0.0


def test_map_from_function_matches_direct_action():
    rng = rng_from(4)
    k = random_operator(rng, 3)
    m = OperatorMap.from_function(3, 3, lambda w: k @ w @ k.conj().T)
    for _ in range(10):
        w = random_operator(rng, 3)
        assert operator_norm(m.apply_array(w) - k @ w @ k.conj().T) < 1e-13


def test_map_linearity():
    rng = rng_from(5)
    m = OperatorMap.from_kraus(2, 3, [random_operator(rng, 3)[:, :2] for _ in range(3)])
    x, y = random_operator(rng, 2), random_operator(rng, 2)
    a, b = 1.3 - 0.2j, -0.7j
    lhs = m.apply_array(a * x + b * y)
    rhs = a * m.apply_array(x) + b * m.apply_array(y)
    assert operator_norm(lhs - rhs) < 1e-13


def test_map_from_kraus_matches_sum():
    rng = rng_from(6)
    kraus = [
        rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4)) for _ in range(3)
    ]
    m = OperatorMap.from_kraus(4, 2, kraus)
    w = random_operator(rng, 4)
    direct = sum(k @ w @ k.conj().T for k in kraus)
    assert operator_norm(m.apply_array(w) - direct) < 1e-12


def test_map_kraus_shape_validation():
    with pytest.raises(DimensionMismatchError):
        OperatorMap.from_kraus(2, 2, [np.zeros((2, 3))])


def test_map_apply_input_validation():
    m = OperatorMap.from_kraus(2, 2, [np.eye(2)])
    with pytest.raises(DimensionMismatchError):
        m.apply(np.eye(3))


def test_choi_of_kraus_map_is_positive():
    rng = rng_from(7)
    m = OperatorMap.from_kraus(3, 2, [random_operator(rng, 3)[:2, :] for _ in range(2)])
    choi = m.choi()
    assert choi.hermiticity_defect() < 1e-14
    assert choi.min_eigenvalue() > -1e-12


def test_transpose_map_is_not_cp_and_brute_force_agrees():
    m = OperatorMap.from_function(2, 2, lambda w: w.T)
    cert = certify_cpu(m)
    assert not cert.cp
    assert cert.min_eigenvalue < -0.5
    # an entangled input shows the negativity without any Choi machinery
    rng = rng_from(8)
    assert util.brute_force_cp(m, rng, trials=200) < -0.1


def test_brute_force_cp_agrees_on_positive_map():
    rng = rng_from(9)
    kraus = util.random_unital_kraus(rng, 3, 3, 4)
    m = OperatorMap.from_kraus(3, 3, kraus)
    cert = certify_cpu(m)
    assert cert.cp and cert.unital
    assert util.brute_force_cp(m, rng, trials=200) > -1e-12


def test_certify_cpu_flags_non_unital():
    m = OperatorMap.from_kraus(2, 2, [np.eye(2) * 0.5])
    cert = certify_cpu(m)
    assert cert.cp
    assert not cert.unital
    assert cert.unitality_deviation == pytest.approx(0.75)


def test_cpu_certificate_json_keys():
    cert = certify_cpu(OperatorMap.from_kraus(2, 2, [np.eye(2)]))
    d = cert.to_json_dict()
    assert set(d) == {"cp", "unital", "min_eigenvalue", "unitality_deviation", "choi_defect"}
    assert d["cp"] is True and d["unital"] is True


def test_bipartite_build_and_apply_pair():
    rng = rng_from(10)
    m = util.random_unital_bipartite(rng, 2, 3, 2, count=3)
    assert (m.dim_in1, m.dim_in2, m.dim_out) == (2, 3, 2)
    a = ComplexOperator(2, random_operator(rng, 2))
    b = ComplexOperator(3, random_operator(rng, 3))
    via_pair = m.apply_pair(a, b).entries
    via_kron = m.apply_array(np.kron(a.entries, b.entries))
    assert operator_norm(via_pair - via_kron) < 1e-13


def test_bipartite_factor_validation():
    rng = rng_from(11)
    m = util.random_unital_bipartite(rng, 2, 3, 2)
    with pytest.raises(DimensionMismatchError):
        m.apply_pair(ComplexOperator.identity(3), ComplexOperator.identity(3))
    with pytest.raises(DimensionMismatchError):
        m.apply_pair(ComplexOperator.identity(2), ComplexOperator.identity(2))
    with pytest.raises(DimensionMismatchError):
        BipartiteMap(5, 2, np.zeros((2, 2, 5, 5)), 2, 3)


def test_hermitian_eigenvalues_sorted_and_checked():
    rng = rng_from(12)
    h = random_hermitian(rng, 4)
    eigs = hermitian_eigenvalues(ComplexOperator(4, h))
    assert np.all(np.diff(eigs) >= 0)
    assert np.allclose(np.sort(np.linalg.eigvalsh(h)), eigs)
    with pytest.raises(NonHermitianError) as info:
        hermitian_eigenvalues(ComplexOperator(2, np.array([[0.0, 1.0], [0.0, 0.0]])))
    assert info.value.asymmetry > 0.4


def test_random_psd_and_density_helpers():
    rng = rng_from(13)
    p = random_psd(rng, 3)
    assert np.linalg.eigvalsh(p)[0] > -1e-14
    from hqmmsym.sampling import random_density

    rho = random_density(rng, 3)
    assert abs(np.trace(rho) - 1.0) < 1e-13
    assert np.linalg.eigvalsh(rho)[0] > -1e-14


def test_non_finite_maps_get_nan_certificates():
    coeff = OperatorMap.from_kraus(2, 2, [np.eye(2)]).coeff.copy()
    coeff[0, 0, 1, 1] = np.nan
    cert = certify_cpu(OperatorMap(2, 2, coeff))
    assert not cert.cp and not cert.unital
    assert np.isnan(cert.min_eigenvalue) and np.isnan(cert.choi_defect)
    with pytest.raises(NonHermitianError):
        hermitian_eigenvalues(ComplexOperator(2, np.diag([np.nan, 1.0])))
