"""Pinned verify reports: verdicts and deviations must not drift under refactors.

The fixture holds every check's condition, sample count, seed, tolerance,
max_deviation and verdict, plus the model metadata, for full default runs
at seed 11 of all six variant x structure configurations of the built-in
model and for the config-file model of the README.  Refactors of the
evaluation paths must reproduce everything exactly except the deviations,
which must agree to 1e-13.  The cocycle subcommand's JSON output is pinned
byte for byte, signed zeros included, for the flip subgroup, a cyclic
element list and a flip group in a coordinate frame with negative axes.
"""

import json
from pathlib import Path

import pytest

from hqmmsym.cli import RunConfig, main, run

DATA = Path(__file__).parent / "data"
PINNED = json.loads((DATA / "pinned_reports_seed11.json").read_text())
COCYCLE_ARGS = {
    "z2z2": ["--subgroup", "z2z2"],
    "cyclic": [
        "--element=0,0,1:0",
        "--element=0,0,1:1.5707963267948966",
        "--element=0,0,1:3.141592653589793",
        "--element=0,0,1:4.71238898038469",
    ],
    "frame": [
        "--element=1,0,0:0",
        "--element=-1,0,0:3.141592653589793",
        "--element=0,-1,0:3.141592653589793",
        "--element=0,0,-1:3.141592653589793",
    ],
}

# the model config shown in the README's file-format section
CONFIG_MODEL = {
    "hidden_dim": 2,
    "obs_dim": 3,
    "phi0": "maximally_mixed",
    "E_H": {"kind": "normalized_partial_trace"},
    "E_HO": {"kind": "aklt_emission", "variant": "normalized_spherical"},
    "structure": "causal",
}
CONFIG_KEY = "config-file"
CHECK_FIELDS = ("condition", "samples", "seed", "tolerance", "max_deviation", "pass")


def pinned_summary(key: str, tmp_path: Path) -> dict:
    """The pinned fields of the seed-11 report named by a fixture key."""
    if key == CONFIG_KEY:
        path = tmp_path / "model.json"
        path.write_text(json.dumps(CONFIG_MODEL))
        config = RunConfig(model=str(path), checks=("cpu", "kolmogorov", "oracle"), seed=11)
    else:
        variant, structure = key.split("/")
        config = RunConfig(variant=variant.replace("-", "_"), structure=structure, seed=11)
    report = run(config)
    return {
        # the config-file path is the test's temporary directory
        "model": {k: v for k, v in report["model"].items() if k != "path"},
        "checks": [{k: c[k] for k in CHECK_FIELDS} for c in report["checks"]],
        "pass": report["pass"],
    }


def _assert_same(got, want, path=""):
    if path.endswith(".max_deviation"):
        assert got == pytest.approx(want, rel=0, abs=1e-13), path
    elif isinstance(want, dict):
        assert set(got) == set(want), path
        for key in want:
            _assert_same(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for k, (g, w) in enumerate(zip(got, want)):
            _assert_same(g, w, f"{path}[{k}]")
    else:
        assert got == want, path


def test_fixture_covers_every_configuration():
    variants = ("normalized-cartesian", "normalized-spherical", "paper-literal")
    structures = ("conventional", "causal")
    want = {f"{v}/{s}" for v in variants for s in structures} | {CONFIG_KEY}
    assert set(PINNED) == want


@pytest.mark.parametrize("key", sorted(PINNED))
def test_report_matches_pinned_values(key, tmp_path):
    _assert_same(pinned_summary(key, tmp_path), PINNED[key])


@pytest.mark.parametrize("name", sorted(COCYCLE_ARGS))
def test_cocycle_output_matches_pinned_bytes(name, capsys):
    assert main(["cocycle", *COCYCLE_ARGS[name], "--format", "json"]) == 0
    assert capsys.readouterr().out == (DATA / f"cocycle_{name}.json").read_text()
