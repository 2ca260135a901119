"""Acceptance suite: one test per headline guarantee of the package.

Each test prints a single [PASS]/[FAIL] line with the measured figure, so
running this file with -s reads as a verification report.  The assertions
use the same tolerances that are printed.
"""

import json
from itertools import product

import numpy as np

import util
from hqmmsym import (
    GenerativeTriple,
    build_model,
    build_tensors,
    classical_diagonal_triple,
    cocycle_eval,
    check_emission_covariance,
    check_global_invariance,
    check_initial_invariance,
    check_sliced_covariance,
    check_transition_equivariance,
    certify_cpu,
    dense_word_value,
    detect_nontrivial_class,
    emission_map,
    finite_volume_state,
    gauge_transform,
    haar_rotations,
    invariant_states,
    kolmogorov_check,
    random_word,
    single_site_distribution,
    spin_half_rep,
    spin_one_rep,
    su2_matrices,
    transition_map,
    verify_intertwining,
)
from hqmmsym.cli import _z2z2_elements
from hqmmsym.grouprep import _compose
from hqmmsym.hqmm import ObservableWord
from hqmmsym.sampling import rng_from

STRUCTURES = ("conventional", "causal")


def _verdict(name: str, passed: bool, detail: str) -> None:
    line = f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}"
    print(line)
    assert passed, line


def test_criterion_01_cocycle_signs_identity_and_section():
    q = haar_rotations(rng_from(2026), 3000)
    g, h, k = q[0::3], q[1::3], q[2::3]
    w = cocycle_eval(g, h)
    exact = bool(np.isin(w, (1.0, -1.0)).all())
    lhs = cocycle_eval(g, h) * cocycle_eval(_compose(g, h), k)
    rhs = cocycle_eval(h, k) * cocycle_eval(g, _compose(h, k))
    exact = exact and np.array_equal(lhs, rhs)
    gaps = np.linalg.norm(
        su2_matrices(g) @ su2_matrices(h) - w[:, None, None] * su2_matrices(_compose(g, h)),
        2,
        axis=(1, 2),
    )
    worst_section = float(gaps.max())
    _verdict(
        "cocycle signs, identity and section property over 1000 triples",
        exact and worst_section < 1e-10,
        f"values exactly +-1 and identity exact: {exact}, "
        f"worst lift defect {worst_section:.3e} (bound 1e-10)",
    )


def test_criterion_02_flip_group_class_is_gauge_invariant():
    elements = _z2z2_elements()
    report = detect_nontrivial_class(elements)
    expected = -np.ones((4, 4)) + 2.0 * np.eye(4)
    expected[0, :] = 1.0
    expected[:, 0] = 1.0
    structural = report.nontrivial and report.witness is not None
    structural = structural and np.allclose(report.pairing_table, expected, atol=1e-12)
    keys = [tuple(np.round(e.quat, 12)) for e in elements]
    quats = np.asarray(elements)
    i, j = np.indices((4, 4)).reshape(2, -1)
    worst = 0.0
    for signs in product((1.0, -1.0), repeat=4):
        lam_map = dict(zip(keys, signs))
        gauged = gauge_transform(
            cocycle_eval, lambda q: np.array([lam_map[tuple(np.round(r, 12))] for r in q])
        )
        ratio = gauged(quats[i], quats[j]) / gauged(quats[j], quats[i])
        worst = max(worst, np.max(np.abs(ratio - report.pairing_table[i, j])))
    _verdict(
        "Z2xZ2 flip group carries a nontrivial gauge-invariant class",
        structural and worst < 1e-12,
        f"nontrivial {report.nontrivial}, worst pairing drift over 16 gauges "
        f"{worst:.3e} (bound 1e-12)",
    )


def test_criterion_03_cpu_certificates_and_transposed_diagnostic():
    model = build_model("normalized_cartesian")
    worst = 0.0
    for cert in model.triple.certificates().values():
        worst = max(
            worst,
            cert.choi_defect,
            cert.unitality_deviation,
            max(0.0, -cert.min_eigenvalue),
        )
    literal = certify_cpu(emission_map(model.tensors, order="literal"))
    diagnostic = literal.min_eigenvalue < -0.1 and literal.unitality_deviation <= 1e-10
    _verdict(
        "transition and emission are CPU, transposed order is not CP",
        worst < 1e-12 and diagnostic,
        f"worst certificate deviation {worst:.3e} (bound 1e-12), "
        f"transposed-order Choi minimum {literal.min_eigenvalue:.3f} (< -0.1)",
    )


def test_criterion_04_intertwining_residuals():
    residuals = {}
    for variant in ("normalized_cartesian", "normalized_spherical", "paper_literal"):
        tensors = build_tensors(variant)
        residuals[variant] = verify_intertwining(
            tensors, spin_half_rep(), spin_one_rep(tensors.basis), samples=120, seed=3
        )
    worst = max(residuals["normalized_cartesian"], residuals["normalized_spherical"])
    literal = residuals["paper_literal"]
    _verdict(
        "normalized tensors intertwine, unnormalized tensors do not",
        worst < 1e-10 and literal > 0.05,
        f"worst normalized residual {worst:.3e} (bound 1e-10), "
        f"unnormalized residual {literal:.3f} (> 0.05)",
    )


def test_criterion_05_local_symmetry_checks():
    model = build_model("normalized_cartesian")
    results = [
        check_initial_invariance(model.triple.phi0, model.action, samples=200, seed=21),
        check_transition_equivariance(
            model.triple.transition, model.action, samples=200, seed=22
        ),
        check_emission_covariance(
            model.triple.emission, model.action, samples=200, seed=23
        ),
    ]
    for structure in STRUCTURES:
        results.append(
            check_sliced_covariance(
                model.triple, structure, model.action, samples=200, seed=24
            )
        )
    worst = max(r.max_deviation for r in results)
    _verdict(
        "initial, transition, emission and sliced symmetry checks",
        all(r.passed for r in results) and worst < 1e-10,
        f"worst deviation {worst:.3e} over {len(results)} checks (bound 1e-10)",
    )


def test_criterion_06_global_invariance_by_volume():
    model = build_model("normalized_cartesian")
    worst = 0.0
    ok = True
    for structure in STRUCTURES:
        by_volume = check_global_invariance(
            model.triple, structure, model.action, n_max=6, samples=50, seed=31
        )
        for result in by_volume.values():
            ok = ok and result.passed
            worst = max(worst, result.max_deviation)
    _verdict(
        "global rotation invariance up to 7 sites, both structures",
        ok and worst < 1e-9,
        f"worst deviation {worst:.3e} (bound 1e-9)",
    )


def test_criterion_07_kolmogorov_consistency():
    model = build_model("normalized_cartesian")
    worst = max(
        kolmogorov_check(model.triple, structure, depth=6, samples=25, seed=0)
        for structure in STRUCTURES
    )
    broken = GenerativeTriple(
        model.triple.hidden_dim,
        model.triple.obs_dim,
        model.triple.phi0,
        transition_map(normalized=False),
        model.triple.emission,
    )
    drift = kolmogorov_check(broken, "conventional", depth=4, samples=10, seed=0)
    _verdict(
        "extension consistency holds, unnormalized transition breaks it",
        worst < 1e-12 and drift >= 0.5,
        f"worst deviation {worst:.3e} (bound 1e-12), "
        f"unnormalized drift {drift:.2f} (>= 0.5)",
    )


def test_criterion_08_invariant_state_is_maximally_mixed():
    states = invariant_states(spin_half_rep(), group_samples=200, seed=0)
    gap = (
        float(np.linalg.norm(states[0] - np.eye(2) / 2.0, 2))
        if len(states) == 1
        else np.inf
    )
    _verdict(
        "unique invariant state under the half-spin action",
        len(states) == 1 and gap < 1e-10,
        f"commutant gap {gap:.3e} (bound 1e-10)",
    )


def test_criterion_09_contraction_oracle_and_classical_reduction():
    model = build_model("normalized_cartesian")
    rng = rng_from(17)
    worst = 0.0
    for structure in STRUCTURES:
        for i in range(25):
            word = random_word(rng, model.triple, 1 + i % 5)
            direct = finite_volume_state(model.triple, structure, word)
            dense = dense_word_value(model.triple, structure, word)
            worst = max(worst, abs(direct - dense))
    t = util.random_stochastic(rng, 3, 3)
    b = util.random_stochastic(rng, 3, 2)
    initial = util.random_stochastic(rng, 1, 3)[0]
    classical = classical_diagonal_triple(initial, t, b)
    worst_classical = 0.0
    for _ in range(10):
        symbols = [int(rng.integers(2)) for _ in range(4)]
        expected = util.forward_likelihood(initial, t, b, symbols)
        pairs = []
        for y in symbols:
            proj = np.zeros((2, 2), dtype=complex)
            proj[y, y] = 1.0
            pairs.append((np.eye(3), proj))
        word = ObservableWord.from_pairs(pairs)
        for structure in STRUCTURES:
            got = finite_volume_state(classical, structure, word)
            worst_classical = max(worst_classical, abs(got - expected))
    _verdict(
        "fold agrees with the dense oracle and the forward algorithm",
        worst < 1e-12 and worst_classical < 1e-12,
        f"worst oracle gap {worst:.3e}, worst classical gap "
        f"{worst_classical:.3e} (bounds 1e-12)",
    )


def test_criterion_10_single_site_distributions():
    targets = {
        "normalized_cartesian": np.full(3, 1.0 / 3.0),
        "paper_literal": np.array([0.25, 0.5, 0.25]),
    }
    worst = 0.0
    for variant, target in targets.items():
        model = build_model(variant)
        dist = single_site_distribution(model)
        values = np.array([dist[label] for label in model.tensors.labels])
        worst = max(worst, float(np.max(np.abs(values - target))))
    _verdict(
        "single-site label distributions",
        worst < 1e-12,
        f"worst gap to (1/3,1/3,1/3) and (1/4,1/2,1/4): {worst:.3e} (bound 1e-12)",
    )


def test_criterion_11_reports_are_reproducible():
    from hqmmsym.cli import RunConfig, run

    config = RunConfig(
        checks=("cpu", "cocycle", "initial", "emission", "kolmogorov", "oracle"),
        samples=40,
        global_samples=10,
        n_max=2,
    )
    first = json.dumps(run(config), sort_keys=True).encode()
    second = json.dumps(run(config), sort_keys=True).encode()
    _verdict(
        "verification reports are byte identical across runs",
        first == second,
        f"{len(first)} report bytes compared equal: {first == second}",
    )
