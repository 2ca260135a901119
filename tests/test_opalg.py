import numpy as np
import pytest

import util
from hqmmsym import (
    BipartiteMap,
    ComplexOperator,
    DimensionMismatchError,
    OperatorMap,
    certify_cpu,
    operator_norm,
)
from hqmmsym.sampling import random_operator, random_psd, rng_from


def test_operator_construction_and_validation():
    a = ComplexOperator(2, np.eye(2))
    assert a.dim == 2
    with pytest.raises(DimensionMismatchError):
        ComplexOperator(3, np.eye(2))
    with pytest.raises(DimensionMismatchError):
        ComplexOperator(2, np.zeros((2, 3)))


def test_operator_entries_are_frozen():
    a = ComplexOperator.identity(2)
    with pytest.raises(ValueError):
        a.entries[0, 0] = 5.0


def test_operator_basic_algebra():
    rng = rng_from(0)
    x = ComplexOperator(3, random_operator(rng, 3))
    assert abs(x.trace() - np.trace(x.entries)) == 0.0



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



def test_choi_of_kraus_map_is_positive():
    rng = rng_from(7)
    m = OperatorMap.from_kraus(3, 2, [random_operator(rng, 3)[:2, :] for _ in range(2)])
    choi = m.choi()
    assert operator_norm(choi - choi.conj().T) < 1e-14
    assert np.linalg.eigvalsh((choi + choi.conj().T) / 2)[0] > -1e-12


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



def test_bipartite_build_and_apply_pair():
    rng = rng_from(10)
    m = util.random_unital_bipartite(rng, 2, 3, 2, count=3)
    assert (m.dim_in1, m.dim_in2, m.dim_out) == (2, 3, 2)
    a = random_operator(rng, 2)
    b = random_operator(rng, 3)
    via_pair = m.apply_pairs(a[None], b[None])[0]
    via_kron = m.apply_array(np.kron(a, b))
    assert operator_norm(via_pair - via_kron) < 1e-13


def test_bipartite_factor_validation():
    rng = rng_from(11)
    m = util.random_unital_bipartite(rng, 2, 3, 2)
    with pytest.raises(DimensionMismatchError):
        m.apply_pairs(np.eye(3)[None], np.eye(3)[None])
    with pytest.raises(DimensionMismatchError):
        m.apply_pairs(np.eye(2)[None], np.eye(2)[None])
    with pytest.raises(DimensionMismatchError):
        BipartiteMap(5, 2, np.zeros((2, 2, 5, 5)), 2, 3)



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
