"""Pinned verify reports: verdicts and deviations must not drift under refactors.

The fixture holds every check's max_deviation and verdict, plus the model
metadata, for two full default runs at seed 11.  Refactors of the
evaluation paths must reproduce the verdicts exactly and the deviations
to 1e-13.
"""

import json
from pathlib import Path

import pytest

from hqmmsym.cli import RunConfig, run

PINNED = json.loads((Path(__file__).parent / "data" / "pinned_reports_seed11.json").read_text())


def _assert_same(got, want, path=""):
    if isinstance(want, float):
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


@pytest.mark.parametrize("key", sorted(PINNED))
def test_report_matches_pinned_values(key):
    variant, structure = key.split("/")
    report = run(RunConfig(variant=variant.replace("-", "_"), structure=structure, seed=11))
    want = PINNED[key]
    got = {
        "model": report["model"],
        "checks": [
            {k: c[k] for k in ("condition", "max_deviation", "pass")} for c in report["checks"]
        ],
        "pass": report["pass"],
    }
    _assert_same(got, want)
