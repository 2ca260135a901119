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
"""

import json
from pathlib import Path

import numpy as np
import pytest

import util
from hqmmsym import ComplexOperator, ObservableWord, build_model, classical_diagonal_triple
from hqmmsym.aklt import dense_word_value
from hqmmsym.hqmm import triple_from_config
from hqmmsym.sampling import rng_from

DATA = Path(__file__).parent / "data" / "oracle_values.json"
VARIANTS = ("normalized_cartesian", "normalized_spherical", "paper_literal")
STRUCTURES = ("conventional", "causal")
WORD_SEED = 2718


def _classical_triple():
    rng = rng_from(4)
    initial = util.random_stochastic(rng, 1, 4)[0]
    return classical_diagonal_triple(
        initial, util.random_stochastic(rng, 4, 4), util.random_stochastic(rng, 4, 3)
    )


def _kraus_config() -> dict:
    """A kraus model config with two hidden and two observable levels."""
    rng = rng_from(12)

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
        "phi0": ComplexOperator(2, rho / np.trace(rho).real).to_json_dict(),
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
    rng = rng_from(WORD_SEED)
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
def test_shared_prefixes_match_one_product_per_chain_at_the_site_limit(key):
    # the pinned words stop at six sites; the referee accepts up to eight
    triple, structure, _ = _cases(PINNED["kraus_config"])[key]
    for word in _words(triple, (7, 8)):
        value = dense_word_value(triple, structure, word)
        reference = util.dense_chain_value(triple, structure, word)
        assert (value.real.hex(), value.imag.hex()) == (
            reference.real.hex(),
            reference.imag.hex(),
        )


if __name__ == "__main__":
    config = _kraus_config()
    values = {key: _values(*case) for key, case in _cases(config).items()}
    DATA.write_text(json.dumps({"kraus_config": config, "values": values}, indent=1) + "\n")
