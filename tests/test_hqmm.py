import json

import numpy as np
import pytest

import util
from hqmmsym import (
    CausalStructure,
    ComplexOperator,
    ConfigError,
    DimensionMismatchError,
    GenerativeTriple,
    ObservableWord,
    OperatorMap,
    build_model,
    classical_diagonal_triple,
    composite_map,
    dense_word_value,
    finite_volume_state,
    kolmogorov_check,
    load_model_config,
    load_word,
    operator_norm,
)
from hqmmsym.hqmm import sliced_coefficients, triple_from_config


@pytest.fixture(scope="module")
def aklt_triple():
    return build_model("normalized_cartesian").triple


def _toy_asymmetric_triple(emission):
    """Transition that traces out the first factor instead of the second."""
    d = 2
    kraus = [np.kron(unit.reshape(1, d), np.eye(d)) / np.sqrt(d) for unit in np.eye(d)]
    swapped = OperatorMap.from_kraus(d * d, d, kraus)
    phi0 = np.eye(2, dtype=complex) / 2
    return GenerativeTriple(2, 3, phi0, swapped, emission)


def test_structure_parsing():
    assert CausalStructure.parse("conventional") is CausalStructure.CONVENTIONAL
    assert CausalStructure.parse(CausalStructure.CAUSAL) is CausalStructure.CAUSAL
    with pytest.raises(ConfigError):
        CausalStructure.parse("sideways")


def test_triple_shape_validation(aklt_triple):
    with pytest.raises(DimensionMismatchError):
        GenerativeTriple(
            3, 3, aklt_triple.phi0, aklt_triple.transition, aklt_triple.emission
        )
    with pytest.raises(DimensionMismatchError):
        GenerativeTriple(
            2, 3, np.eye(3), aklt_triple.transition, aklt_triple.emission
        )
    # each map's input is the flattened product the triple fixes: h^2 for
    # the transition, h o for the emission
    t, e = aklt_triple.transition, aklt_triple.emission
    for maps, axis, want, got in (((e, e), "transition", (4, 2), (6, 2)),
                                  ((t, t), "emission", (6, 2), (4, 2))):
        with pytest.raises(DimensionMismatchError) as err:
            GenerativeTriple(2, 3, aklt_triple.phi0, *maps)
        assert (err.value.axis, err.value.expected, err.value.got) == (axis, want, got)


def test_word_construction_and_json(aklt_triple):
    word = ObservableWord.all_identity(3, 2, 3)
    assert len(word) == 3
    items = util.word_items(word)
    back = ObservableWord.from_json_list(items, 2, 3)
    for x1, y1, x2, y2 in zip(word.xs, word.ys, back.xs, back.ys):
        assert operator_norm(x1 - x2) == 0.0
        assert operator_norm(y1 - y2) == 0.0
    shorthand = ObservableWord.from_json_list([{"X": "I", "Y": "I"}], 2, 3)
    assert operator_norm(shorthand.xs[0] - np.eye(2)) == 0.0
    with pytest.raises(ConfigError):
        ObservableWord.from_json_list([{"X": "I"}], 2, 3)



def test_empty_word_rejected(aklt_triple):
    with pytest.raises(ValueError, match="empty"):
        finite_volume_state(aklt_triple, "conventional", ObservableWord.all_identity(0, 2, 3))


def test_word_dimension_check(aklt_triple):
    bad = ObservableWord.from_pairs([(np.eye(3), np.eye(3))])
    with pytest.raises(DimensionMismatchError):
        finite_volume_state(aklt_triple, "conventional", bad)


@pytest.mark.parametrize(
    "pairs, error, match",
    [
        ([(np.eye(2), np.eye(3)), (np.eye(3), np.eye(3))], DimensionMismatchError, "word site 1"),
        (
            [(np.eye(2), np.eye(3)), (np.eye(2), np.eye(3)), (np.eye(2), np.eye(2))],
            DimensionMismatchError,
            "word site 2",
        ),
        ([], ValueError, "empty word"),
    ],
    ids=["hidden-dims-differ", "observed-dims-differ", "empty"],
)
def test_from_pairs_refuses_ragged_and_empty_words(pairs, error, match):
    with pytest.raises(error, match=match):
        ObservableWord.from_pairs(pairs)


@pytest.mark.parametrize("structure", ["conventional", "causal"])
def test_operator_pair_words_equal_array_words(aklt_triple, structure):
    """Words built as the benchmark builds them evaluate exactly as array words."""
    xs, ys = util.random_words(np.random.default_rng(10), aklt_triple, 1, 4)
    pairs = [(ComplexOperator(2, x), ComplexOperator(3, y)) for x, y in zip(xs[0], ys[0])]
    eyes = (np.broadcast_to(np.eye(2), (4, 2, 2)), np.broadcast_to(np.eye(3), (4, 3, 3)))
    for bench_word, array_word in (
        (ObservableWord.from_pairs(pairs), ObservableWord(xs[0], ys[0])),
        (ObservableWord.all_identity(4, 2, 3), ObservableWord(*eyes)),
    ):
        for evaluate in (finite_volume_state, dense_word_value):
            got = evaluate(aklt_triple, structure, bench_word)
            assert got == evaluate(aklt_triple, structure, array_word)


def test_all_identity_words_evaluate_to_one(aklt_triple):
    for n in range(1, 7):
        word = ObservableWord.all_identity(n, 2, 3)
        for structure in ("conventional", "causal"):
            value = finite_volume_state(aklt_triple, structure, word)
            assert abs(value - 1.0) < 1e-13


def test_value_is_linear_in_each_site(aklt_triple):
    rng = np.random.default_rng(0)
    base = util.random_word(rng, aklt_triple, 3)
    x1 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    x2 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    a, b = 0.8 - 0.3j, 1.1j

    def with_site1(x):
        xs = base.xs.copy()
        xs[1] = x
        return ObservableWord(xs, base.ys)

    combined = finite_volume_state(aklt_triple, "conventional", with_site1(a * x1 + b * x2))
    split = a * finite_volume_state(aklt_triple, "conventional", with_site1(x1)) + (
        b * finite_volume_state(aklt_triple, "conventional", with_site1(x2))
    )
    assert abs(combined - split) < 1e-12


@pytest.mark.parametrize("structure", ["conventional", "causal"])
def test_composite_and_sliced_maps_agree(aklt_triple, structure):
    rng = np.random.default_rng(1)
    comp = composite_map(aklt_triple, structure)
    assert (comp.dim_in, comp.dim_out) == (12, 2)
    for _ in range(5):
        x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        y = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        via_composite = comp.apply_array(np.kron(np.kron(x, z), y))
        sliced = sliced_coefficients(aklt_triple, structure, x[None], y[None])[0]
        via_sliced = (sliced @ z.reshape(4)).reshape(2, 2)
        assert operator_norm(via_composite - via_sliced) < 1e-12


def test_both_structures_coincide_for_partial_trace_transition(aklt_triple):
    """The normalized second-factor trace makes the two orders identical."""
    c1 = composite_map(aklt_triple, "conventional").choi()
    c2 = composite_map(aklt_triple, "causal").choi()
    assert operator_norm(c1 - c2) < 1e-12
    rng = np.random.default_rng(2)
    for n in (1, 2, 4):
        word = util.random_word(rng, aklt_triple, n)
        v1 = finite_volume_state(aklt_triple, "conventional", word)
        v2 = finite_volume_state(aklt_triple, "causal", word)
        assert abs(v1 - v2) < 1e-12


def test_structures_differ_for_asymmetric_transition(aklt_triple):
    toy = _toy_asymmetric_triple(aklt_triple.emission)
    util.assert_cpu(toy.defects())
    c1 = composite_map(toy, "conventional").choi()
    c2 = composite_map(toy, "causal").choi()
    assert operator_norm(c1 - c2) > 0.5
    rng = np.random.default_rng(3)
    gap = max(
        abs(
            finite_volume_state(toy, "conventional", w)
            - finite_volume_state(toy, "causal", w)
        )
        for w in (util.random_word(rng, toy, 3) for _ in range(10))
    )
    assert gap > 1e-4



@pytest.mark.parametrize("structure", ["conventional", "causal"])
def test_kolmogorov_consistency_for_unital_triple(aklt_triple, structure):
    words = util.kolmogorov_draw(5, aklt_triple, depth=6, samples=15)
    deviations = kolmogorov_check(aklt_triple, structure, *words)
    assert deviations.shape == (1 + 5 * 16,)
    assert deviations.max() < 1e-12


def test_kolmogorov_refuses_words_that_do_not_pair_up(aklt_triple):
    # word k is (xs[k], ys[k]): hidden and observable words of one length,
    # as many of each, and each of its own slot's size
    xs, ys = util.kolmogorov_draw(5, aklt_triple, depth=4, samples=5)
    for args in ((xs, ys[:1]), (xs, ys[:, :2]), (xs[:, :2], ys)):
        with pytest.raises(DimensionMismatchError, match="observable words"):
            kolmogorov_check(aklt_triple, "conventional", *args)
    with pytest.raises(DimensionMismatchError, match="hidden words"):
        kolmogorov_check(aklt_triple, "conventional", ys, xs)


def test_kolmogorov_flags_unnormalized_transition(aklt_triple):
    bad = GenerativeTriple(
        2, 3, aklt_triple.phi0, util.unnormalized_partial_trace(2, 2), aklt_triple.emission
    )
    dev = kolmogorov_check(bad, "conventional", *util.kolmogorov_draw(5, bad, 4, 5)).max()
    assert dev >= 0.5


def test_classical_triple_requires_stochastic_inputs():
    p = np.array([0.5, 0.5])
    t = np.array([[0.9, 0.1], [0.4, 0.6]])
    b = np.array([[0.2, 0.8], [0.7, 0.3]])
    with pytest.raises(ValueError, match="stochastic"):
        classical_diagonal_triple(np.array([0.5, 0.6]), t, b)
    with pytest.raises(ValueError, match="stochastic"):
        classical_diagonal_triple(p, t * 1.1, b)
    with pytest.raises(DimensionMismatchError):
        classical_diagonal_triple(p, np.eye(3), b)


def test_classical_triple_is_cpu():
    rng = np.random.default_rng(6)
    p = np.array([0.3, 0.7])
    t = util.random_stochastic(rng, 2, 2)
    b = util.random_stochastic(rng, 2, 3)
    triple = classical_diagonal_triple(p, t, b)
    util.assert_cpu(triple.defects())


@pytest.mark.parametrize("structure", ["conventional", "causal"])
def test_classical_words_reproduce_forward_likelihood(structure):
    rng = np.random.default_rng(7)
    p = np.array([0.25, 0.45, 0.30])
    t = util.random_stochastic(rng, 3, 3)
    b = util.random_stochastic(rng, 3, 4)
    triple = classical_diagonal_triple(p, t, b)
    eye = np.eye(3)
    for _ in range(10):
        symbols = list(rng.integers(0, 4, size=rng.integers(1, 6)))
        pairs = []
        for y in symbols:
            proj = np.zeros((4, 4), dtype=complex)
            proj[y, y] = 1.0
            pairs.append((eye, proj))
        value = finite_volume_state(triple, structure, ObservableWord.from_pairs(pairs))
        expected = util.forward_likelihood(p, t, b, symbols)
        assert abs(value - expected) < 1e-12
        assert abs(value.imag) < 1e-14


def test_model_config_round_trip(tmp_path):
    config = {
        "hidden_dim": 2,
        "obs_dim": 3,
        "phi0": "maximally_mixed",
        "E_H": {"kind": "normalized_partial_trace"},
        "E_HO": {"kind": "aklt_emission", "variant": "normalized_cartesian"},
        "structure": "causal",
    }
    path = tmp_path / "model.json"
    path.write_text(json.dumps(config))
    triple, structure = load_model_config(str(path))
    assert structure is CausalStructure.CAUSAL
    util.assert_cpu(triple.defects())
    reference = build_model("normalized_cartesian").triple
    assert operator_norm(triple.emission.coeff.reshape(4, 36) - reference.emission.coeff.reshape(4, 36)) < 1e-14
    assert operator_norm(triple.transition.coeff.reshape(4, 16) - reference.transition.coeff.reshape(4, 16)) < 1e-14


@pytest.mark.parametrize(
    "variant", ["normalized_cartesian", "normalized_spherical", "paper_literal"]
)
def test_config_emission_is_the_builtin_emission(variant):
    config = {
        "hidden_dim": 2,
        "obs_dim": 3,
        "E_H": {"kind": "normalized_partial_trace"},
        "E_HO": {"kind": "aklt_emission", "variant": variant},
    }
    triple, _ = triple_from_config(config)
    builtin = build_model(variant).triple
    assert np.array_equal(triple.emission.coeff, builtin.emission.coeff)


def test_model_config_with_explicit_kraus(tmp_path):
    rng = np.random.default_rng(8)
    kraus = util.random_unital_kraus(rng, 4, 2, 3)
    entries = [
        {"rows": 2, "cols": 4, "re": k.real.reshape(-1).tolist(), "im": k.imag.reshape(-1).tolist()}
        for k in kraus
    ]
    config = {
        "hidden_dim": 2,
        "obs_dim": 3,
        "E_H": {"kind": "kraus", "kraus": entries},
        "E_HO": {"kind": "aklt_emission"},
    }
    path = tmp_path / "model.json"
    path.write_text(json.dumps(config))
    triple, structure = load_model_config(str(path))
    assert structure is CausalStructure.CONVENTIONAL
    util.assert_cpu(triple.defects())


@pytest.mark.parametrize(
    "broken",
    [
        {"obs_dim": 3},
        {"hidden_dim": 2, "obs_dim": 3},
        {"hidden_dim": 2, "obs_dim": 3, "E_H": {"kind": "mystery"}, "E_HO": {"kind": "aklt_emission"}},
        {"hidden_dim": 2, "obs_dim": 3, "E_H": {"kind": "kraus", "kraus": []}, "E_HO": {"kind": "aklt_emission"}},
        {"hidden_dim": 3, "obs_dim": 3, "E_H": {"kind": "normalized_partial_trace"}, "E_HO": {"kind": "aklt_emission"}},
    ],
)
def test_model_config_rejects_malformed_input(tmp_path, broken):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(broken))
    with pytest.raises(ConfigError):
        load_model_config(str(path))


def test_model_config_missing_file():
    with pytest.raises(ConfigError, match="cannot read"):
        load_model_config("/nonexistent/model.json")


def test_word_file_loading(tmp_path, aklt_triple):
    rng = np.random.default_rng(9)
    word = util.random_word(rng, aklt_triple, 3)
    path = tmp_path / "word.json"
    util.write_word(path, word)
    back = load_word(str(path), 2, 3)
    v1 = finite_volume_state(aklt_triple, "conventional", word)
    v2 = finite_volume_state(aklt_triple, "conventional", back)
    assert abs(v1 - v2) < 1e-14
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"not": "a list"}))
    with pytest.raises(ConfigError, match="list"):
        load_word(str(bad), 2, 3)
    with pytest.raises(ConfigError, match="cannot read"):
        load_word(str(tmp_path / "missing.json"), 2, 3)
