"""Pinned values of the dense referee: dense_word_value must not move by one bit.

The fixture holds, as float.hex strings, the real and imaginary parts of
aklt.dense_word_value on seeded words of one to six sites for all six
variant x structure configurations of the built-in model, for a 4-state
classical chain (one to three sites: the referee enumerates 16^(n+1)
index chains there) and for a kraus model config whose phi0 is a complex,
non-diagonal state.  The kraus config is stored in the fixture itself, so
its coefficients do not depend on the eigensolver that drew it.  Word
entries are raw Gaussian draws, which involve no linear algebra either.

Regenerate with ``PYTHONPATH=src python tests/test_oracle_values.py`` only
when the referee is meant to compute a different value.

The referee leaves out terms that are exact zeros and forms its chains in
blocks; the tests here also hold its site tensors and values, by
float.hex, to util.full_loop_site_tensor and a full chain sum, which skip
nothing, and its values to themselves at other block sizes.
"""

import dis
import json
import tracemalloc
import warnings
from pathlib import Path
from types import CodeType, FunctionType

import numpy as np
import pytest

import util
from hqmmsym import (
    CausalStructure,
    ComplexOperator,
    GenerativeTriple,
    ObservableWord,
    OperatorMap,
    build_model,
    classical_diagonal_triple,
)
from hqmmsym import aklt
from hqmmsym.aklt import dense_suffix_values, dense_word_value
from hqmmsym.hqmm import triple_from_config

DATA = Path(__file__).parent / "data" / "oracle_values.json"
VARIANTS = ("normalized_cartesian", "normalized_spherical", "paper_literal")
STRUCTURES = ("conventional", "causal")
WORD_SEED = 2718


def _classical_triple():
    rng = np.random.default_rng(4)
    initial = util.random_stochastic(rng, 1, 4)[0]
    return classical_diagonal_triple(
        initial, util.random_stochastic(rng, 4, 4), util.random_stochastic(rng, 4, 3)
    )


def _kraus_config() -> dict:
    """A kraus model config with two hidden and two observable levels."""
    rng = np.random.default_rng(12)

    def entries(kraus):
        return [
            {"rows": 2, "cols": 4, "re": k.real.ravel().tolist(), "im": k.imag.ravel().tolist()}
            for k in kraus
        ]

    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    rho = g @ g.conj().T
    return {
        "hidden_dim": 2,
        "obs_dim": 2,
        "phi0": util.matrix_json(rho / np.trace(rho).real),
        "E_H": {"kind": "kraus", "kraus": entries(util.random_unital_kraus(rng, 4, 2, 3))},
        "E_HO": {"kind": "kraus", "kraus": entries(util.random_unital_kraus(rng, 4, 2, 2))},
        "structure": "causal",
    }


def _cases(kraus_config: dict) -> dict:
    """Fixture key -> (triple, structure, site counts)."""
    cases = {
        f"{v}/{s}": (build_model(v, s).triple, s, range(1, 7))
        for v in VARIANTS
        for s in STRUCTURES
    }
    classical = _classical_triple()
    for s in STRUCTURES:
        cases[f"classical4/{s}"] = (classical, s, range(1, 4))
    triple, structure = triple_from_config(kraus_config)
    cases["kraus-config"] = (triple, structure, range(1, 7))
    return cases


def _words(triple, site_counts):
    """One seeded word per site count, with Gaussian complex site entries."""
    rng = np.random.default_rng(WORD_SEED)
    h, o = triple.hidden_dim, triple.obs_dim
    for n in site_counts:
        pairs = []
        for _ in range(n):
            x = rng.standard_normal((h, h)) + 1j * rng.standard_normal((h, h))
            y = rng.standard_normal((o, o)) + 1j * rng.standard_normal((o, o))
            pairs.append((ComplexOperator(h, x), ComplexOperator(o, y)))
        yield ObservableWord.from_pairs(pairs)


def _values(triple, structure, site_counts) -> list[dict]:
    out = []
    for word in _words(triple, site_counts):
        value = dense_word_value(triple, structure, word)
        out.append({"sites": len(word), "re": value.real.hex(), "im": value.imag.hex()})
    return out


PINNED = json.loads(DATA.read_text()) if DATA.exists() else {"kraus_config": None, "values": {}}


def test_fixture_covers_every_case():
    want = {f"{v}/{s}" for v in VARIANTS for s in STRUCTURES}
    want |= {"classical4/conventional", "classical4/causal", "kraus-config"}
    assert set(PINNED["values"]) == want


@pytest.mark.parametrize("key", sorted(PINNED["values"]))
def test_dense_word_value_matches_pinned_bits(key):
    triple, structure, site_counts = _cases(PINNED["kraus_config"])[key]
    assert _values(triple, structure, site_counts) == PINNED["values"][key]


@pytest.mark.parametrize("key", ["normalized_cartesian/causal", "kraus-config"])
def test_stacked_chains_match_one_product_per_chain_at_the_site_limit(key):
    # the pinned words stop at six sites; the referee accepts up to eight
    triple, structure, _ = _cases(PINNED["kraus_config"])[key]
    for word in _words(triple, (7, 8)):
        value = dense_word_value(triple, structure, word)
        reference = util.dense_chain_value(triple, structure, word)
        assert (value.real.hex(), value.imag.hex()) == (
            reference.real.hex(),
            reference.imag.hex(),
        )


def _hex(value: complex) -> tuple:
    return value.real.hex(), value.imag.hex()


def _ragged_values(triple, structure, words) -> list[complex]:
    """The words' values from one aklt._span_values call, each word a span of one site stack."""
    lengths = np.array([len(w) for w in words])
    xs, ys = np.concatenate([w.xs for w in words]), np.concatenate([w.ys for w in words])
    structure = CausalStructure.parse(structure)
    return aklt._span_values(triple, structure, xs, ys, np.cumsum(lengths) - lengths, lengths).tolist()


@pytest.mark.parametrize("key", sorted(PINNED["values"]))
def test_many_words_at_once_give_each_word_its_own_bits(key):
    # the call stacks every word's sites and each length's chains; a
    # word's bits depend neither on the other words nor on its place
    triple, structure, site_counts = _cases(PINNED["kraus_config"])[key]
    words = list(_words(triple, site_counts))
    alone = [_hex(dense_word_value(triple, structure, w)) for w in words]
    assert [_hex(v) for v in _ragged_values(triple, structure, words)] == alone
    mixed = words[::-1] + words
    assert [_hex(v) for v in _ragged_values(triple, structure, mixed)] == alone[::-1] + alone


BLOCKS = (1, 7, aklt._CHAIN_BLOCK)


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("key", sorted(PINNED["values"]))
def test_chain_blocks_of_any_size_give_the_pinned_bits(key, block, monkeypatch):
    # a block of one product carries the running sum past every chain
    monkeypatch.setattr(aklt, "_CHAIN_BLOCK", block)
    triple, structure, site_counts = _cases(PINNED["kraus_config"])[key]
    assert _values(triple, structure, site_counts) == PINNED["values"][key]


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize(
    "key, site_counts",
    # at a block of one product the dense kraus word of eight sites takes
    # 4^8 blocks, several seconds; its seven-site word splits the same way
    [("normalized_cartesian/causal", (7, 8)), ("kraus-config", (7,))],
)
def test_chain_blocks_of_any_size_give_the_same_bits_at_the_site_limit(
    key, site_counts, block, monkeypatch
):
    triple, structure, _ = _cases(PINNED["kraus_config"])[key]
    words = list(_words(triple, site_counts))
    want = [_hex(v) for v in _ragged_values(triple, structure, words)]
    monkeypatch.setattr(aklt, "_CHAIN_BLOCK", block)
    assert [_hex(v) for v in _ragged_values(triple, structure, words)] == want


def _assert_stacked_site_tensors_match_the_full_loops(triple, structure, words):
    for word in words:
        skipped = util.site_tensors(triple, structure, word)
        full = util.site_tensors(triple, structure, word, full_loops=True)
        assert [[[_hex(v) for v in row] for row in site] for site in skipped] == [
            [[_hex(v) for v in row] for row in site] for site in full
        ]
        value = dense_word_value(triple, structure, word)
        assert _hex(value) == _hex(util.dense_chain_value(triple, structure, word, full_loops=True))


def _with_signed_zeros(triple) -> GenerativeTriple:
    """triple with -0.0 in both coefficient tensors: at every 0 entry, and at the first entry."""
    maps = []
    for m in (triple.transition, triple.emission):
        coeff = np.array(m.coeff)
        coeff[coeff == 0] = complex(-0.0, 0.0)
        coeff.reshape(-1)[0] = complex(-0.0, -0.0)
        maps.append(OperatorMap(m.dim_in, m.dim_out, coeff))
    return GenerativeTriple(triple.hidden_dim, triple.obs_dim, triple.phi0, *maps)


@pytest.mark.parametrize("key", sorted(PINNED["values"]))
def test_stacked_site_tensors_match_the_full_loops_bit_for_bit(key):
    # and with -0.0 coefficients, which the referee skips as it skips +0.0
    # and the full loops add; the dense kraus config gets one at its first entry
    triple, structure, site_counts = _cases(PINNED["kraus_config"])[key]
    for model in (triple, _with_signed_zeros(triple)):
        words = _words(model, site_counts)
        _assert_stacked_site_tensors_match_the_full_loops(model, structure, words)


def _planted(rng, a: np.ndarray) -> np.ndarray:
    """a with half its entries set to 0 of every sign pattern, +-0.0 +- 0.0j."""
    out = np.array(a, dtype=complex)
    flat = out.reshape(-1)
    picks = rng.permutation(flat.size)[: flat.size // 2]
    for k, (re, im) in enumerate([(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0)]):
        flat[picks[k::4]] = complex(re, im)
    return out


def _hidden3_maps(rng) -> list:
    """A transition that keeps both hidden factors and an emission, h = 3 and o = 2."""
    return [
        OperatorMap.from_kraus(9, 3, util.random_unital_kraus(rng, 9, 3, 3)),
        OperatorMap.from_kraus(6, 3, util.random_unital_kraus(rng, 6, 3, 3)),
    ]


@pytest.mark.parametrize("structure", STRUCTURES)
def test_stacked_site_tensors_match_the_full_loops_on_planted_signed_zeros(structure):
    # h = 3 and o = 2, and signed zeros planted in phi0, both coefficient
    # tensors and the words of one to five sites
    rng = np.random.default_rng(31)
    maps = _hidden3_maps(rng)
    t, e = (OperatorMap(m.dim_in, m.dim_out, _planted(rng, m.coeff)) for m in maps)
    triple = GenerativeTriple(3, 2, _planted(rng, rng.standard_normal((3, 3))), t, e)
    words = [
        ObservableWord(
            _planted(rng, rng.standard_normal((n, 3, 3)) + 1j * rng.standard_normal((n, 3, 3))),
            _planted(rng, rng.standard_normal((n, 2, 2)) + 1j * rng.standard_normal((n, 2, 2))),
        )
        for n in (1, 2, 3, 4, 5)
    ]
    _assert_stacked_site_tensors_match_the_full_loops(triple, structure, words)


@pytest.mark.parametrize("structure", STRUCTURES)
def test_the_chains_of_a_long_word_are_formed_in_blocks_of_bounded_memory(structure):
    # every coefficient and phi0 entry nonzero: a six-site word has
    # 9^6 * 3 = 1.6M chains, 25 MB for each array of their products' parts
    # if formed at once; the blocks keep the referee's peak far below that
    rng = np.random.default_rng(37)
    t, e = _hidden3_maps(rng)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    rho = g @ g.conj().T
    triple = GenerativeTriple(3, 2, rho / np.trace(rho).real, t, e)
    word = ObservableWord(
        rng.standard_normal((6, 3, 3)) + 1j * rng.standard_normal((6, 3, 3)),
        rng.standard_normal((6, 2, 2)) + 1j * rng.standard_normal((6, 2, 2)),
    )
    tracemalloc.start()
    try:
        value = dense_word_value(triple, structure, word)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(value)
    assert peak < 8e6, peak


def _classical4_word(n: int, x01) -> ObservableWord:
    """A seeded classical4 word whose first hidden site has x01 at entry (0, 1)."""
    rng = np.random.default_rng(WORD_SEED)
    xs = rng.standard_normal((n, 4, 4)) + 1j * rng.standard_normal((n, 4, 4))
    ys = rng.standard_normal((n, 3, 3)) + 1j * rng.standard_normal((n, 3, 3))
    xs[0, 0, 1] = x01
    return ObservableWord(xs, ys)


@pytest.mark.parametrize("structure", STRUCTURES)
def test_a_non_finite_input_gives_nan_where_a_skip_could_hide_it(structure):
    triple = _classical_triple()
    # every map dephases, so only zero coefficients read an off-diagonal
    # hidden entry: the full loops meet inf * 0, a bare skip would not
    word = _classical4_word(2, np.inf)
    assert np.isnan(util.dense_chain_value(triple, structure, word, full_loops=True))
    value = dense_word_value(triple, structure, word)
    assert np.isnan(value.real) and np.isnan(value.imag)
    nan_phi0 = GenerativeTriple(
        4, 3, np.diag([np.nan, 0.25, 0.25, 0.25]), triple.transition, triple.emission
    )
    value = dense_word_value(nan_phi0, structure, _classical4_word(2, 0.5))
    assert np.isnan(value.real) and np.isnan(value.imag)


@pytest.mark.parametrize("structure", STRUCTURES)
def test_sizes_that_could_overflow_give_nan(structure):
    # 1e200 at an entry only zero coefficients read: one site stays within
    # the 1e300 bound on products and keeps the full loops' bits, two
    # sites could pass it and give nan
    triple = _classical_triple()
    words = [_classical4_word(1, 1e200)]
    _assert_stacked_site_tensors_match_the_full_loops(triple, structure, words)
    value = dense_word_value(triple, structure, _classical4_word(2, 1e200))
    assert np.isnan(value.real) and np.isnan(value.imag)


@pytest.mark.parametrize("structure", STRUCTURES)
def test_sizes_past_the_float_range_give_nan_without_a_warning(structure):
    # 1e200 in both observables, or coefficients whose sum is past the
    # float range: the size bound overflows, which numpy would warn of
    triple = _classical_triple()
    big = OperatorMap(16, 4, np.full((4, 4, 16, 16), 1e307))
    cases = [
        (triple, ObservableWord(np.full((1, 4, 4), 1e200), np.full((1, 3, 3), 1e200))),
        (GenerativeTriple(4, 3, triple.phi0, big, triple.emission), _classical4_word(1, 0.5)),
    ]
    for model, word in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = dense_word_value(model, structure, word)
        assert np.isnan(value.real) and np.isnan(value.imag)


@pytest.mark.parametrize("structure", STRUCTURES)
def test_a_state_of_zeros_leaves_no_chain_and_gives_plus_zero(structure):
    # phi0 = 0 keeps no first entry, so every word's sum is its start, +0
    triple = _classical_triple()
    zero = GenerativeTriple(4, 3, np.zeros((4, 4)), triple.transition, triple.emission)
    words = [_classical4_word(1, 0.5), _classical4_word(3, -0.25)]
    got = _ragged_values(zero, structure, words)
    want = [_hex(util.dense_chain_value(zero, structure, w, full_loops=True)) for w in words]
    assert [_hex(v) for v in got] == want == [_hex(0j)] * 2


@pytest.mark.parametrize("structure", STRUCTURES)
def test_a_nan_word_in_a_list_leaves_the_finite_words_finite(structure):
    # an inf entry gives nan, 1e200 at two sites trips the overflow bound,
    # and the words around them keep their own finite values
    triple = _classical_triple()
    words = [
        _classical4_word(2, 0.5),
        _classical4_word(2, np.inf),
        _classical4_word(1, 1e200),
        _classical4_word(2, 1e200),
        _classical4_word(3, -0.25),
    ]
    got = _ragged_values(triple, structure, words)
    assert [_hex(v) for v in got] == [_hex(dense_word_value(triple, structure, w)) for w in words]
    assert [bool(np.isnan(v.real) and np.isnan(v.imag)) for v in got] == [
        False, True, False, True, False
    ]
    assert all(np.isfinite(got[k]) for k in (0, 2, 4))


def _suffixes_alone(triple, structure, xs, ys) -> list:
    """float.hex of dense_word_value on each word's last j + 1 sites alone, as [w][j]."""
    n = xs.shape[1]
    words = [
        [ObservableWord(x[n - 1 - j :], y[n - 1 - j :]) for j in range(n)] for x, y in zip(xs, ys)
    ]
    return [[_hex(dense_word_value(triple, structure, w)) for w in row] for row in words]


@pytest.mark.parametrize("key", sorted(PINNED["values"]))
def test_suffix_values_have_the_bits_of_each_suffix_alone(key):
    # three words of the case's longest pinned length; each site's tensor
    # is formed once for every suffix that reads it
    triple, structure, site_counts = _cases(PINNED["kraus_config"])[key]
    n = max(site_counts)
    words = list(_words(triple, [n] * 3))
    xs, ys = np.stack([w.xs for w in words]), np.stack([w.ys for w in words])
    values = dense_suffix_values(triple, structure, xs, ys)
    assert values.shape == (3, n)
    assert [[_hex(v) for v in row] for row in values.tolist()] == _suffixes_alone(
        triple, structure, xs, ys
    )


@pytest.mark.parametrize("structure", STRUCTURES)
def test_an_overflowing_first_site_gives_nan_for_its_whole_word_only(structure):
    # 1e200 entries at the first site of word 0 carry its five-site span
    # past the overflow bound; its four shorter suffixes, which share the
    # other four sites, stay finite with the bits of each suffix alone, so
    # no site of a finite suffix is set to 0
    triple = build_model("normalized_cartesian", structure).triple
    rng = np.random.default_rng(WORD_SEED)
    xs = rng.standard_normal((2, 5, 2, 2)) + 1j * rng.standard_normal((2, 5, 2, 2))
    ys = rng.standard_normal((2, 5, 3, 3)) + 1j * rng.standard_normal((2, 5, 3, 3))
    xs[0, 0] = 1e200
    values = dense_suffix_values(triple, structure, xs, ys)
    assert [[_hex(v) for v in row] for row in values.tolist()] == _suffixes_alone(
        triple, structure, xs, ys
    )
    nan = np.isnan(values.real) & np.isnan(values.imag)
    assert nan.tolist() == [[False] * 4 + [True], [False] * 5]
    assert np.isfinite(values[~nan]).all()


def test_suffix_values_refuse_what_dense_word_value_refuses():
    triple = build_model().triple
    xs, ys = np.ones((2, 3, 2, 2)), np.ones((2, 3, 3, 3))
    for bad_xs, bad_ys in [(xs, ys[:, :2]), (xs, ys[:1]), (ys, ys), (xs, xs), (xs[0], ys[0])]:
        with pytest.raises(ValueError, match="dimension mismatch"):
            dense_suffix_values(triple, "conventional", bad_xs, bad_ys)
    with pytest.raises(ValueError, match="empty word"):
        dense_suffix_values(triple, "conventional", xs[:, :0], ys[:, :0])
    with pytest.raises(ValueError, match="limited to 8 sites"):
        dense_suffix_values(triple, "conventional", np.ones((1, 9, 2, 2)), np.ones((1, 9, 3, 3)))
    assert dense_suffix_values(triple, "conventional", xs[:0], ys[:0]).shape == (0, 3)


def _referee_code() -> list:
    """The code objects of the referee's entry points and of every aklt function they name.

    The entry points are dense_word_value and dense_suffix_values; the
    names are followed transitively.
    """
    codes, todo = [], [aklt.dense_word_value.__code__, aklt.dense_suffix_values.__code__]
    while todo:
        code = todo.pop()
        if code in codes:
            continue
        codes.append(code)
        todo.extend(c for c in code.co_consts if isinstance(c, CodeType))
        for name in code.co_names:
            f = vars(aklt).get(name)
            if isinstance(f, FunctionType) and f.__module__ == aklt.__name__:
                todo.append(f.__code__)
    return codes


def test_the_referee_names_nothing_of_the_fold():
    # the referee checks the fold, so it must not reach the fold's
    # contractions or the library's small-matrix kernels
    codes = _referee_code()
    walked = {c.co_name for c in codes}
    assert {"_span_values", "_site_tensors", "_entries", "_chain_totals", "_times"} <= walked
    names = {name for c in codes for name in c.co_names}
    fold = {
        "sliced_coefficients", "composite_map", "fold_suffixes", "_fold", "conjugate",
        "_products", "finite_volume_state",
    }
    assert not names & (fold | {"einsum", "matmul"})
    matmul_ops = [
        ins.opname
        for c in codes
        for ins in dis.get_instructions(c)
        if ins.opname == "BINARY_MATRIX_MULTIPLY" or ins.argrepr in ("@", "@=")
    ]
    assert not matmul_ops

if __name__ == "__main__":
    config = _kraus_config()
    values = {key: _values(*case) for key, case in _cases(config).items()}
    DATA.write_text(json.dumps({"kraus_config": config, "values": values}, indent=1) + "\n")
