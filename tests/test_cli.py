import json
import warnings
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

import util
from hqmmsym import (
    ConfigError,
    ObservableWord,
    build_model,
    cli,
    dense_word_value,
    finite_volume_state,
    load_model_config,
    operator_norm,
)
from hqmmsym import aklt, grouprep
from hqmmsym.cli import CHECK_NAMES, RunConfig, default_tolerances, main, run

FAST = [
    "--samples", "25",
    "--global-samples", "8",
    "--n-max", "2",
]


def _row_inputs(m, config, name):
    """The inputs of one row, read off the one draw of a run of that row alone."""
    return cli.CHECKS[name].inputs(cli.draw(m, config, (name,)), config)


def _run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def _strict_json(text: str):
    """json.loads that refuses NaN and Infinity, as RFC 8259 does."""
    return json.loads(text, parse_constant=_refuse_constant)


def test_check_names_are_stable():
    assert CHECK_NAMES == (
        "cpu", "cocycle", "initial", "transition", "emission",
        "sliced", "global", "kolmogorov", "intertwining", "oracle",
    )


def test_run_config_round_trip():
    config = RunConfig(
        model="aklt",
        variant="normalized_spherical",
        structure="causal",
        checks=("cpu", "emission"),
        seed=7,
        samples=33,
        global_samples=11,
        n_max=4,
        tolerances={**default_tolerances(), "emission": 1e-8},
    )
    assert RunConfig.from_json_dict(config.to_json_dict()) == config
    assert RunConfig.from_json_dict({}) == RunConfig()


def test_run_config_refuses_checks_that_are_not_a_list():
    for checks in ("oracle", {"oracle": True}, 3):
        with pytest.raises(ConfigError, match="list"):
            RunConfig.from_json_dict({"checks": checks})


def test_run_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        RunConfig.from_json_dict({"tolerances": {"spectral": 1e-9}})
    with pytest.raises(ConfigError):
        RunConfig.from_json_dict({"checks": ["cpu", "mystery"]})


def test_run_produces_structured_report():
    config = RunConfig(checks=("cpu", "initial", "oracle"), samples=20)
    report = run(config)
    assert set(report) == {"config", "model", "checks", "pass"}
    assert report["pass"] is True
    assert report["config"]["variant"] == "normalized_cartesian"
    assert report["model"]["name"] == "aklt"
    conditions = [c["condition"] for c in report["checks"]]
    assert conditions == ["cpu_certification", "initial_invariance", "oracle_agreement"]
    for check in report["checks"]:
        assert check["pass"] is True


def test_run_orders_checks_canonically():
    config = RunConfig(checks=("oracle", "cpu"), samples=20)
    report = run(config)
    conditions = [c["condition"] for c in report["checks"]]
    assert conditions == ["cpu_certification", "oracle_agreement"]


def test_reports_are_byte_identical():
    config = RunConfig(checks=("cpu", "cocycle", "initial", "kolmogorov"), samples=30)
    first = json.dumps(run(config), indent=2)
    second = json.dumps(run(config), indent=2)
    assert first == second


def test_verify_passes_on_builtin_model(capsys):
    code, out, _ = _run_cli(capsys, ["verify", *FAST, "--checks", "cpu,initial,global"])
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    names = [c["condition"] for c in report["checks"]]
    assert "global_invariance[n=0]" in names
    assert "global_invariance[n=2]" in names


def test_verify_cli_output_is_deterministic(capsys):
    argv = ["verify", *FAST, "--checks", "cpu,cocycle,oracle"]
    _, out1, _ = _run_cli(capsys, argv)
    _, out2, _ = _run_cli(capsys, argv)
    assert out1 == out2


def test_verify_text_format(capsys):
    code, out, _ = _run_cli(
        capsys, ["verify", *FAST, "--checks", "cpu,kolmogorov", "--format", "text"]
    )
    assert code == 0
    assert "[PASS] cpu_certification" in out
    assert out.strip().endswith("overall: PASS")


@pytest.mark.parametrize("samples", [20, 7, 1])
@pytest.mark.parametrize("variant, structure", [
    ("normalized_cartesian", "conventional"),
    ("paper_literal", "causal"),
])
def test_oracle_deviation_i_belongs_to_a_suffix_of_word_i_over_5(variant, structure, samples):
    # deviation i compares the last 1 + i % 5 sites of the row's word i // 5,
    # of 5 sites each; at 7 samples the last word has two suffixes in use
    m = cli.load_model("aklt", variant, structure)
    count = min(samples, 20)
    xs, ys = util.random_words(np.random.default_rng(7), m.triple, (count + 4) // 5, 5)
    deviations = cli._oracle_deviations(m, xs, ys, count)
    alone = np.empty(count, dtype=complex)
    referee = np.empty(count, dtype=complex)
    for i in range(count):
        x, y = xs[i // 5, 4 - i % 5 :], ys[i // 5, 4 - i % 5 :]
        alone[i] = util.fold_batch(m.triple, m.structure, x[None], y[None])[0]
        referee[i] = dense_word_value(m.triple, m.structure, ObservableWord(x, y))
    # |value - reference| as an array np.abs, as the global and kolmogorov rows take it
    want = np.abs(alone - referee)
    np.testing.assert_array_equal(deviations, want)
    assert deviations.tobytes() == want.tobytes()


@pytest.mark.parametrize("samples, lengths", [
    (20, [1, 2, 3, 4, 5] * 4),
    (7, [1, 2, 3, 4, 5, 1, 2]),
    (1, [1]),
], ids=["20", "7", "1"])
def test_the_oracle_referees_only_the_suffixes_it_keeps(samples, lengths, monkeypatch):
    # of a last word in part, only the suffixes the row keeps are refereed:
    # at 7 samples the second word's 1- and 2-site suffixes, not all five
    seen = []
    span_values = aklt._span_values

    def spy(triple, structure, xs, ys, starts, span_lengths):
        seen.extend(span_lengths.tolist())
        return span_values(triple, structure, xs, ys, starts, span_lengths)

    monkeypatch.setattr(aklt, "_span_values", spy)
    m = cli.load_model("aklt", "normalized_cartesian", "conventional")
    inputs = _row_inputs(m, RunConfig(samples=samples, seed=7), "oracle")
    deviations = cli._oracle_deviations(m, *inputs, min(samples, 20))
    assert len(deviations) == len(seen) == min(samples, 20)
    assert seen == lengths


@pytest.mark.parametrize("n_max, words", [(0, 1), (2, 10), (6, 46)])
def test_kolmogorov_samples_count_the_words_checked(n_max, words):
    config = RunConfig(checks=("kolmogorov",), global_samples=8, n_max=n_max)
    [check] = run(config)["checks"]
    assert check["samples"] == words


def test_kolmogorov_at_depth_one_reports_one_word(capsys):
    code, out, _ = _run_cli(capsys, [
        "verify", "--checks", "kolmogorov", "--n-max", "1", "--format", "json",
    ])
    assert code == 0
    [check] = _strict_json(out)["checks"]
    assert check["samples"] == 1


def test_verify_fails_on_literal_variant(capsys):
    code, out, _ = _run_cli(
        capsys,
        ["verify", *FAST, "--variant", "paper-literal", "--checks", "emission,intertwining"],
    )
    assert code == 1
    report = json.loads(out)
    assert report["pass"] is False
    assert all(not c["pass"] for c in report["checks"])


def test_an_inexact_cocycle_fails_although_its_defects_are_within_tolerance(
    monkeypatch, capsys
):
    # omega scaled by 1 + 1e-12 keeps every defect near 1e-12, below the
    # tolerance; a section cocycle is +1 or -1 exactly, so the row fails,
    # its deviation null, and verify exits 1 with every other row passing
    def inexact_spin_half_rep():
        rep = grouprep.spin_half_rep()
        return replace(rep, cocycle=lambda qg, qh: rep.cocycle(qg, qh) * (1 + 1e-12))

    monkeypatch.setattr(aklt, "spin_half_rep", inexact_spin_half_rep)
    m = cli.load_model("aklt", "normalized_cartesian", None)
    config = RunConfig(checks=("cocycle",))
    omega, defects = grouprep.cocycle_defects(m.action.pi, *_row_inputs(m, config, "cocycle"))
    assert not np.isin(omega, (1.0, -1.0)).any()
    assert defects.max() <= default_tolerances()["cocycle"]
    for argv in (["verify", "--checks", "cocycle"], ["verify"]):
        code, out, _ = _run_cli(capsys, argv)
        assert code == 1
        failed = [c for c in json.loads(out)["checks"] if not c["pass"]]
        failures = [(c["condition"], c["max_deviation"]) for c in failed]
        assert failures == [("cocycle_identity", None)]


@pytest.mark.parametrize("structure", ["conventional", "causal"])
@pytest.mark.parametrize("variant", aklt.VARIANTS)
def test_every_condition_passes_exactly_when_its_deviation_is_within_tolerance(
    variant, structure
):
    # one pass rule for every row: a null deviation fails
    report = run(RunConfig(variant=variant, structure=structure))
    for c in report["checks"]:
        deviation = c["max_deviation"]
        assert c["pass"] is (deviation is not None and deviation <= c["tolerance"]), c


def test_verify_tolerance_flags_are_plumbed(capsys):
    code, out, _ = _run_cli(
        capsys,
        [
            "verify", *FAST,
            "--variant", "paper-literal",
            "--checks", "emission",
            "--tol-emission", "2.0",
        ],
    )
    assert code == 0
    report = json.loads(out)
    assert report["checks"][0]["tolerance"] == 2.0
    assert report["checks"][0]["pass"] is True


def test_verify_rejects_unknown_check(capsys):
    code, _, err = _run_cli(capsys, ["verify", "--checks", "spectral"])
    assert code == 2
    assert "unknown check" in err


def test_verify_config_file_model(tmp_path, capsys):
    rng = np.random.default_rng(0)
    config = {
        "hidden_dim": 2,
        "obs_dim": 3,
        "phi0": "maximally_mixed",
        "E_H": {"kind": "normalized_partial_trace"},
        "E_HO": {"kind": "aklt_emission", "variant": "normalized_spherical"},
        "structure": "causal",
    }
    path = tmp_path / "model.json"
    path.write_text(json.dumps(config))
    code, out, _ = _run_cli(capsys, ["verify", str(path), *FAST])
    assert code == 0
    report = json.loads(out)
    assert report["model"]["name"] == "config"
    assert report["model"]["structure"] == "causal"
    conditions = [c["condition"] for c in report["checks"]]
    assert conditions == ["cpu_certification", "kolmogorov_consistency", "oracle_agreement"]


def test_verify_config_file_model_rejects_symmetry_checks(tmp_path, capsys):
    config = {
        "hidden_dim": 2,
        "obs_dim": 3,
        "E_H": {"kind": "normalized_partial_trace"},
        "E_HO": {"kind": "aklt_emission"},
    }
    path = tmp_path / "model.json"
    path.write_text(json.dumps(config))
    code, _, err = _run_cli(capsys, ["verify", str(path), "--checks", "emission"])
    assert code == 2
    assert "builtin model" in err


def test_verify_missing_config_file(capsys):
    code, _, err = _run_cli(capsys, ["verify", "/nonexistent/model.json"])
    assert code == 2
    assert "cannot read" in err


def test_eval_all_identity_word(capsys):
    code, out, _ = _run_cli(capsys, ["eval", "--word", "allidentity:4"])
    assert code == 0
    payload = json.loads(out)
    assert payload["sites"] == 4
    assert payload["value"]["re"] == pytest.approx(1.0, abs=1e-12)
    assert payload["value"]["im"] == pytest.approx(0.0, abs=1e-14)


def test_eval_projector_word(capsys):
    code, out, _ = _run_cli(
        capsys, ["eval", "--word", "proj:xx", "--format", "text"]
    )
    assert code == 0
    assert "2 sites" in out
    code, out, _ = _run_cli(
        capsys,
        ["eval", "--word", "proj:+0-", "--variant", "normalized-spherical"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["sites"] == 3


def test_eval_word_file(tmp_path, capsys):
    triple = build_model("normalized_cartesian").triple
    word = util.random_word(np.random.default_rng(1), triple, 2)
    path = tmp_path / "word.json"
    util.write_word(path, word)
    code, out, _ = _run_cli(capsys, ["eval", "--word", str(path)])
    assert code == 0
    payload = json.loads(out)
    assert payload["sites"] == 2


def test_eval_bad_word_specs(capsys):
    code, _, err = _run_cli(capsys, ["eval", "--word", "allidentity:zero"])
    assert code == 2
    assert "allidentity" in err
    code, _, err = _run_cli(capsys, ["eval", "--word", "proj:xw"])
    assert code == 2
    code, _, err = _run_cli(capsys, ["eval", "--word", "allidentity:0"])
    assert code == 2


def test_eval_structure_flag(capsys):
    code, out, _ = _run_cli(
        capsys, ["eval", "--word", "proj:z", "--structure", "causal"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["structure"] == "causal"
    assert payload["value"]["re"] == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_cocycle_builtin_subgroup(capsys):
    code, out, _ = _run_cli(capsys, ["cocycle", "--subgroup", "z2z2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["nontrivial"] is True
    assert payload["witness"] is not None
    table = payload["pairing_table"]
    values = {round(cell["re"]) for row in table for cell in row}
    assert values == {1, -1}


def test_cocycle_custom_elements(capsys):
    code, out, _ = _run_cli(
        capsys,
        [
            "cocycle",
            "--element", "0,0,1:0.0",
            "--element", "0,0,1:1.5707963267948966",
            "--element", "0,0,1:3.141592653589793",
            "--element", "0,0,1:4.71238898038469",
        ],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["nontrivial"] is False
    assert payload["witness"] is None


def test_cocycle_rejects_bad_input(capsys):
    code, _, err = _run_cli(capsys, ["cocycle", "--element", "1,0:3.14"])
    assert code == 2
    code, _, err = _run_cli(
        capsys, ["cocycle", "--element", "0,0,1:0.0", "--element", "0,0,1:0.7"]
    )
    assert code == 2
    assert "subgroup" in err
    code, _, err = _run_cli(capsys, ["cocycle"])
    assert code == 2


@pytest.mark.parametrize("spec", ["1,0,0:inf", "inf,0,0:1", "1,0,nan:1", "1,0,0:nan"])
def test_cocycle_refuses_a_non_finite_element(capsys, spec):
    # a usage error (exit 2), with no numpy RuntimeWarning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, _, err = _run_cli(capsys, ["cocycle", "--element", spec, "--element", "1,0,0:0"])
    assert code == 2
    assert err.startswith("error: bad element spec")


def test_cocycle_takes_an_axis_whose_norm_would_overflow(capsys):
    # the pi rotation about (1, 1, 0) and the identity form a Z2
    argv = ["cocycle", "--element", "1e308,1e308,0:3.141592653589793", "--element", "1,0,0:0"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, _ = _run_cli(capsys, [*argv, "--format", "json"])
    assert code == 0
    half = 0.7071067811865476
    assert json.loads(out)["elements"][0]["quat"] == [0.0, half, half, 0.0]


def test_cocycle_refuses_a_subgroup_with_elements(capsys):
    # the elements would be ignored for the flip group's table
    argv = ["cocycle", "--subgroup", "z2z2", "--element", "0,0,1:0.7"]
    code, out, err = _run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "--element" in err


def test_report_round_trip(tmp_path, capsys):
    code, out, _ = _run_cli(capsys, ["verify", *FAST, "--checks", "cpu,initial"])
    assert code == 0
    path = tmp_path / "report.json"
    path.write_text(out)
    code, rendered, _ = _run_cli(capsys, ["report", str(path)])
    assert code == 0
    assert "[PASS] cpu_certification" in rendered
    code, rendered, _ = _run_cli(capsys, ["report", str(path), "--format", "json"])
    assert code == 0
    assert json.loads(rendered) == json.loads(out)


def test_report_exit_code_tracks_stored_failures(tmp_path, capsys):
    code, out, _ = _run_cli(
        capsys, ["verify", *FAST, "--variant", "paper-literal", "--checks", "emission"]
    )
    assert code == 1
    path = tmp_path / "report.json"
    path.write_text(out)
    code, rendered, _ = _run_cli(capsys, ["report", str(path)])
    assert code == 1
    assert "overall: FAIL" in rendered


def test_report_rejects_malformed_files(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{\"answer\": 42}")
    code, _, err = _run_cli(capsys, ["report", str(path)])
    assert code == 2
    code, _, err = _run_cli(capsys, ["report", str(tmp_path / "missing.json")])
    assert code == 2


def test_argparse_usage_errors_exit_2():
    with pytest.raises(SystemExit) as info:
        main(["verify", "--variant", "heisenberg"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2


def _outcome(capsys, argv):
    """Exit code, stdout and stderr of one call, argparse's own exits included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize(
    "calls, codes",
    [
        (
            [
                ["cocycle", "--element", "0,0,1:0.0", "--element", "0,0,1:3.141592653589793"],
                ["cocycle", "--subgroup", "z2z2"],
            ],
            [0, 0],
        ),
        (
            [
                ["verify", *FAST, "--checks", "oracle", "--tol-oracle", "1e-3"],
                ["verify", *FAST, "--checks", "oracle"],
            ],
            [0, 0],
        ),
        (
            [
                ["verify", "--variant", "heisenberg"],
                ["eval", "--word", "allidentity:3"],
            ],
            [2, 0],
        ),
    ],
)
def test_one_parser_per_process_answers_as_a_fresh_parser(capsys, calls, codes):
    fresh = []
    for argv in calls:
        cli._build_parser.cache_clear()
        fresh.append(_outcome(capsys, argv))
    cli._build_parser.cache_clear()
    shared = [_outcome(capsys, argv) for argv in calls]
    assert cli._build_parser.cache_info().misses == 1
    assert shared == fresh
    assert [code for code, _, _ in shared] == codes


@pytest.mark.parametrize(
    "flags",
    [
        ["--samples", "0"],
        ["--global-samples", "0"],
        ["--samples", "-3"],
        ["--n-max", "-1"],
        ["--tol-global", "nan"],
        ["--tol-emission", "inf"],
        ["--tol-cpu=-1e-10"],
        ["--seed", "-1"],
    ],
)
def test_verify_rejects_empty_or_invalid_runs(capsys, flags):
    code, out, err = _run_cli(capsys, ["verify", *flags])
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "override",
    [
        {"samples": 0},
        {"global_samples": 0},
        {"n_max": -1},
        {"tolerances": {"oracle": float("nan")}},
        {"tolerances": {"global": float("inf")}},
        {"tolerances": {"initial": -1.0}},
        {"seed": -1},
    ],
)
def test_run_config_rejects_empty_or_invalid_runs(override):
    with pytest.raises(ConfigError):
        RunConfig.from_json_dict(override)


@pytest.mark.parametrize(
    "override",
    [
        {"seed": "abc"},
        {"samples": "abc"},
        {"global_samples": None},
        {"n_max": [6]},
        {"n_max": float("inf")},
        {"tolerances": {"emission": "tight"}},
        {"tolerances": [1e-9]},
    ],
)
def test_run_config_rejects_non_numeric_fields(override):
    with pytest.raises(ConfigError):
        RunConfig.from_json_dict(override)


def test_cocycle_cli_finds_the_class_in_random_frames(capsys):
    rng = np.random.default_rng(21)
    for _ in range(20):
        frame, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        argv = ["cocycle", "--element=1,0,0:0"]
        for axis in frame.T:
            argv.append("--element=" + ",".join(repr(float(c)) for c in axis) + f":{np.pi!r}")
        code, out, _ = _run_cli(capsys, argv)
        assert code == 0
        assert json.loads(out)["nontrivial"] is True


def test_nan_model_fails_every_check_with_nan_deviation(tmp_path, capsys):
    kraus = np.zeros((2, 6))
    for a in range(2):
        kraus[a, a * 3 : a * 3 + 3] = 1.0 / np.sqrt(3.0)
    re = kraus.ravel().tolist()
    re[0] = float("nan")
    config = {
        "hidden_dim": 2,
        "obs_dim": 3,
        "E_H": {"kind": "normalized_partial_trace"},
        "E_HO": {"kind": "kraus", "kraus": [{"rows": 2, "cols": 6, "re": re, "im": [0.0] * 12}]},
    }
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(config))
    code, out, _ = _run_cli(capsys, ["verify", str(path), *FAST])
    assert code == 1
    report = _strict_json(out)
    assert [c["condition"] for c in report["checks"]] == [
        "cpu_certification", "kolmogorov_consistency", "oracle_agreement",
    ]
    for check in report["checks"]:
        assert check["pass"] is False
        # JSON has no NaN: a non-finite deviation is written as null
        assert check["max_deviation"] is None
    code, out, _ = _run_cli(capsys, ["verify", str(path), "--checks", "oracle", "--format", "text"])
    assert code == 1
    assert "[FAIL] oracle_agreement" in out
    assert "max_deviation=nan" in out


def _phi0_model(tmp_path, re, im=(0.0, 0.0, 0.0, 0.0)) -> str:
    config = {
        "hidden_dim": 2,
        "obs_dim": 3,
        "phi0": {"dim": 2, "re": list(re), "im": list(im)},
        "E_H": {"kind": "normalized_partial_trace"},
        "E_HO": {"kind": "aklt_emission"},
    }
    path = tmp_path / "model.json"
    path.write_text(json.dumps(config))
    return str(path)


@pytest.mark.parametrize(
    "re, deviation",
    [
        ((1.3, 0.0, 0.0, -0.3), 0.3),  # trace 1, a negative eigenvalue
        ((1.5, 0.0, 0.0, 0.5), 1.0),  # positive, trace 2
        ((0.5, 0.2, 0.0, 0.5), 0.2),  # trace 1, not Hermitian
    ],
    ids=["negative", "trace-two", "not-hermitian"],
)
def test_phi0_that_is_not_a_state_fails_cpu(tmp_path, capsys, re, deviation):
    code, out, _ = _run_cli(capsys, ["verify", _phi0_model(tmp_path, re), *FAST])
    assert code == 1
    cpu = _strict_json(out)["checks"][0]
    assert cpu["condition"] == "cpu_certification"
    assert cpu["pass"] is False
    assert cpu["max_deviation"] == pytest.approx(deviation, rel=0, abs=1e-12)


def test_nan_phi0_fails_cpu_with_nan(tmp_path, capsys):
    path = _phi0_model(tmp_path, (float("nan"), 0.0, 0.0, 0.5))
    code, out, _ = _run_cli(capsys, ["verify", path, "--checks", "cpu", "--format", "text"])
    assert code == 1
    assert "[FAIL] cpu_certification" in out
    assert "max_deviation=nan" in out


def test_nan_report_round_trips_through_report(tmp_path, capsys):
    path = _phi0_model(tmp_path, (float("nan"), 0.0, 0.0, 0.5))
    code, out, _ = _run_cli(capsys, ["verify", path, "--checks", "cpu,kolmogorov"])
    assert code == 1
    stored = _strict_json(out)
    assert [c["max_deviation"] for c in stored["checks"]][0] is None
    report_path = tmp_path / "report.json"
    report_path.write_text(out)
    code, text, err = _run_cli(capsys, ["report", str(report_path)])
    assert (code, err) == (1, "")
    assert "[FAIL] cpu_certification" in text and "max_deviation=nan" in text
    code, again, _ = _run_cli(capsys, ["report", str(report_path), "--format", "json"])
    assert code == 1
    assert _strict_json(again) == stored


def test_eval_word_file_with_whole_site_identity(tmp_path, capsys):
    triple = build_model("normalized_cartesian").triple
    word = util.random_word(np.random.default_rng(2), triple, 2)
    x, y = util.word_items(word)
    spelled = [x, _site(), y]
    values = []
    for name, items in (("holes", [x, "I", y]), ("spelled", spelled)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(items))
        code, out, err = _run_cli(capsys, ["eval", "--word", str(path)])
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["sites"] == 3
        values.append(complex(payload["value"]["re"], payload["value"]["im"]))
    assert values[0] == values[1]
    assert abs(values[0] - 1.0) > 1e-3  # the random sites matter


def _site(x_dim=2, y_dim=3):
    """A word-file site spelling the identity on both slots."""
    return {
        "X": util.matrix_json(np.eye(x_dim)),
        "Y": util.matrix_json(np.eye(y_dim)),
    }


@pytest.mark.parametrize(
    "items",
    [
        [{"X": {"dim": 2}, "Y": _site()["Y"]}],  # no re/im
        [{"X": {"dim": 2, "re": ["one", 0, 0, 1], "im": [0, 0, 0, 0]}, "Y": _site()["Y"]}],
        [_site(x_dim=3)],  # hidden slot of the wrong dimension
        [],
        [{"X": {**_site()["X"], "dim": 2.9}, "Y": _site()["Y"]}],  # int() would read 2
    ],
    ids=["missing-re-im", "non-numeric", "wrong-dimension", "empty", "fractional-dim"],
)
def test_eval_refuses_malformed_word_files(tmp_path, capsys, items):
    path = tmp_path / "word.json"
    path.write_text(json.dumps(items))
    code, out, err = _run_cli(capsys, ["eval", "--word", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "override",
    [
        {"phi0": {"dim": 2}},
        # E_H's Kraus operators must be 2 x 4
        {"E_H": {"kind": "kraus", "kraus": [{"rows": 2, "cols": 2, "re": [1] * 4, "im": [0] * 4}]}},
        # int() would truncate these counts, or read a boolean as 1
        {"hidden_dim": 2.7},
        {"obs_dim": True, "E_HO": {"kind": "normalized_partial_trace"}},
        {"hidden_dim": "2"},
        {"hidden_dim": 0, "E_HO": {"kind": "normalized_partial_trace"}},
        {"phi0": {"dim": 2.5, "re": [0.5, 0.0, 0.0, 0.5], "im": [0.0] * 4}},
        {"E_H": {"kind": "kraus", "kraus": [{"rows": 2.5, "cols": 4, "re": [0.5] * 8, "im": [0] * 8}]}},
        {"E_H": "x"},
        {"E_HO": {"kind": "kraus", "kraus": 5}},
        # -2 x -2 passes the count of 4 values, and the reshape then raised
        {"E_H": {"kind": "kraus", "kraus": [{"rows": -2, "cols": -2, "re": [1, 0, 0, 1],
                                             "im": [0] * 4}]}},
    ],
    ids=["phi0-without-re-im", "kraus-wrong-shape", "fractional-hidden-dim", "boolean-obs-dim",
         "string-hidden-dim", "zero-hidden-dim", "fractional-phi0-dim", "fractional-kraus-rows",
         "map-not-an-object", "kraus-not-a-list", "negative-kraus-shape"],
)
def test_verify_refuses_malformed_model_configs(tmp_path, capsys, override):
    config = {
        "hidden_dim": 2,
        "obs_dim": 3,
        "E_H": {"kind": "normalized_partial_trace"},
        "E_HO": {"kind": "aklt_emission"},
        **override,
    }
    path = tmp_path / "model.json"
    path.write_text(json.dumps(config))
    for argv in (["verify", str(path)], ["eval", "--model", str(path), "--word", "allidentity:2"]):
        code, out, err = _run_cli(capsys, argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ")


@pytest.mark.parametrize(
    "spoil",
    [
        lambda r: r.pop("model"),
        lambda r: r["checks"][0].pop("condition"),
        lambda r: r["checks"][0].update({"max_deviation": "small"}),
        lambda r: r.update({"pass": "no"}),
        lambda r: r.update({"checks": {}}),
        lambda r: r["checks"][0].update({"pass": False}),  # overall pass stays true
        lambda r: r["checks"][0].update({"max_deviation": None}),  # null only on a FAIL
        lambda r: r["checks"][0].update({"max_deviation": float("nan")}),  # beside a PASS
        lambda r: r["checks"][0].update({"tolerance": float("inf")}),
        lambda r: r["config"]["tolerances"].update({"cpu": float("nan")}),
        lambda r: r.update({"checks": []}),  # overall pass stays true
        lambda r: r["checks"][0].update({"max_deviation": 5.0}),  # pass stays true
    ],
    ids=[
        "no-model",
        "check-without-condition",
        "text-deviation",
        "text-pass",
        "checks-not-a-list",
        "overall-pass-disagrees",
        "null-deviation-on-a-pass",
        "nan-deviation-on-a-pass",
        "infinite-tolerance",
        "nan-in-config",
        "empty-checks",
        "pass-over-tolerance",
    ],
)
def test_report_refuses_malformed_reports(tmp_path, capsys, spoil):
    code, out, _ = _run_cli(capsys, ["verify", *FAST, "--checks", "cpu"])
    assert code == 0
    report = json.loads(out)
    spoil(report)
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    for fmt in ("text", "json"):
        code, out, err = _run_cli(capsys, ["report", str(path), "--format", fmt])
        assert (code, out) == (2, "")
        assert err.startswith("error: ")


def test_cocycle_element_accepts_a_leading_minus(capsys):
    # the z2 x z2 flip group about a frame whose first axis starts with a minus
    specs = [
        "1,0,0:0",
        "-0.6,0,0.8:3.141592653589793",
        "0,1,0:3.141592653589793",
        "0.8,0,0.6:3.141592653589793",
    ]
    outputs = []
    for joined in (False, True):
        argv = ["cocycle"]
        for spec in specs:
            argv += [f"--element={spec}"] if joined else ["--element", spec]
        code, out, err = _run_cli(capsys, argv)
        assert (code, err) == (0, "")
        outputs.append(out)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["nontrivial"] is True


@pytest.mark.parametrize(
    "override",
    [
        {"samples": 3.7},
        {"seed": 1.5},
        {"global_samples": True},
        {"n_max": False},
        {"samples": "12"},
    ],
)
def test_run_config_rejects_non_integer_counts(override):
    with pytest.raises(ConfigError):
        RunConfig.from_json_dict(override)
    with pytest.raises(ConfigError):
        RunConfig(**override)


def test_run_config_accepts_integral_float_counts():
    assert RunConfig.from_json_dict({"samples": 12.0, "n_max": 3}) == RunConfig(samples=12, n_max=3)


def test_run_config_fills_in_missing_tolerances():
    config = RunConfig(tolerances={"cpu": 1e-9}, checks=("cpu",))
    assert config.tolerances == {**default_tolerances(), "cpu": 1e-9}
    report = run(config)
    assert report["config"]["tolerances"] == {**default_tolerances(), "cpu": 1e-9}
    assert [c["tolerance"] for c in report["checks"]] == [1e-9]


def test_run_config_rejects_a_non_numeric_tolerance():
    with pytest.raises(ConfigError, match="emission"):
        RunConfig(tolerances={"emission": "tight"})


def test_run_config_rejects_an_unknown_tolerance():
    with pytest.raises(ConfigError, match="bogus"):
        RunConfig(tolerances={"bogus": 1e-3})


def test_eval_writes_a_nan_value_as_null_and_exits_1(tmp_path, capsys):
    path = _phi0_model(tmp_path, (float("nan"), 0.0, 0.0, 0.5))
    code, out, err = _run_cli(capsys, ["eval", "--model", path, "--word", "allidentity:2"])
    assert (code, err) == (1, "")
    assert _strict_json(out)["value"] == {"re": None, "im": None}
    argv = ["eval", "--model", path, "--word", "allidentity:2", "--format", "text"]
    code, out, _ = _run_cli(capsys, argv)
    assert code == 1
    assert out.startswith("value = nan")


def _partial_trace_model(tmp_path, **override) -> str:
    config = {
        "hidden_dim": 2,
        "obs_dim": 3,
        "E_H": {"kind": "normalized_partial_trace"},
        "E_HO": {"kind": "normalized_partial_trace"},
        **override,
    }
    path = tmp_path / "model.json"
    path.write_text(json.dumps(config))
    return str(path)


def _kraus_entry(k, **override) -> dict:
    k = np.asarray(k, dtype=complex)
    rows, cols = k.shape
    return {"rows": rows, "cols": cols, "re": k.real.ravel().tolist(),
            "im": k.imag.ravel().tolist(), **override}


def test_integral_float_counts_read_as_integers(tmp_path, capsys):
    # the Kraus operators of the normalized partial trace
    kraus = [_kraus_entry(np.kron(np.eye(2), unit[None]) / np.sqrt(2)) for unit in np.eye(2)]
    plain = _partial_trace_model(tmp_path, E_H={"kind": "kraus", "kraus": kraus})
    code, expected, _ = _run_cli(capsys, ["verify", plain, *FAST])
    assert code == 0
    floats = _partial_trace_model(
        tmp_path,
        hidden_dim=2.0,
        obs_dim=3.0,
        phi0={"dim": 2.0, "re": [0.5, 0.0, 0.0, 0.5], "im": [0.0] * 4},
        E_H={"kind": "kraus", "kraus": [dict(e, rows=2.0, cols=4.0) for e in kraus]},
    )
    code, out, _ = _run_cli(capsys, ["verify", floats, *FAST])
    assert (code, out) == (0, expected)
    site = _site()
    site["X"]["dim"] = 2.0
    word = tmp_path / "word.json"
    word.write_text(json.dumps([site]))
    code, out, _ = _run_cli(capsys, ["eval", "--word", str(word)])
    assert code == 0
    assert json.loads(out)["value"]["re"] == pytest.approx(1.0, abs=1e-12)


def _nan_kraus_model(tmp_path) -> str:
    k = np.kron(np.eye(2), np.ones((1, 3)) / np.sqrt(3.0))
    k[0, 0] = np.nan
    return _partial_trace_model(tmp_path, E_HO={"kind": "kraus", "kraus": [_kraus_entry(k)]})


def _unnormalized_transition_model(tmp_path) -> str:
    kraus = [_kraus_entry(k) for k in (np.kron(np.eye(2), unit[None]) for unit in np.eye(2))]
    return _partial_trace_model(tmp_path, E_H={"kind": "kraus", "kraus": kraus})


def _defects_by_hand(triple) -> dict:
    """GenerativeTriple.defects() term by term, from phi0 and each map's choi()."""

    def positivity(a):
        if not np.isfinite(a).all():
            return float("nan"), float("nan")
        adjoint = a.conj().T
        smallest = float(np.linalg.eigvalsh((a + adjoint) / 2)[0])
        return operator_norm(a - adjoint), max(0.0, -smallest)

    out = dict(zip(("phi0_hermiticity", "phi0_negativity"), positivity(triple.phi0)))
    out["phi0_trace"] = float(abs(np.trace(triple.phi0) - 1.0))
    for name, m in (("transition", triple.transition), ("emission", triple.emission)):
        terms = (f"{name}_choi_hermiticity", f"{name}_choi_negativity")
        out.update(zip(terms, positivity(m.choi())))
        image = m.apply_array(np.eye(m.dim_in, dtype=complex))
        out[f"{name}_unitality"] = operator_norm(image - np.eye(m.dim_out, dtype=complex))
    return out


def _bits(defects: dict) -> dict:
    """Each term's bit pattern, signed zeros told apart; every nan reads the same."""
    return {name: "nan" if np.isnan(v) else np.float64(v).tobytes() for name, v in defects.items()}


@pytest.mark.parametrize(
    "make, failing",
    [
        (lambda tmp_path: "normalized-cartesian", set()),
        (lambda tmp_path: "normalized-spherical", set()),
        (lambda tmp_path: "paper-literal", set()),
        # the model config of the README's file-format section
        (
            lambda tmp_path: _partial_trace_model(
                tmp_path,
                phi0="maximally_mixed",
                E_HO={"kind": "aklt_emission", "variant": "normalized_spherical"},
                structure="causal",
            ),
            set(),
        ),
        (lambda tmp_path: _phi0_model(tmp_path, (1.3, 0.0, 0.0, -0.3)), {"phi0_negativity"}),
        (lambda tmp_path: _phi0_model(tmp_path, (1.5, 0.0, 0.0, 0.5)), {"phi0_trace"}),
        (lambda tmp_path: _phi0_model(tmp_path, (0.5, 0.2, 0.0, 0.5)), {"phi0_hermiticity"}),
        (
            lambda tmp_path: _phi0_model(tmp_path, (float("nan"), 0.0, 0.0, 0.5)),
            {"phi0_hermiticity", "phi0_negativity", "phi0_trace"},
        ),
        (
            _nan_kraus_model,
            {"emission_choi_hermiticity", "emission_choi_negativity", "emission_unitality"},
        ),
        (
            lambda tmp_path: _phi0_model(tmp_path, (float("inf"), 0.0, 0.0, 0.5)),
            {"phi0_hermiticity", "phi0_negativity", "phi0_trace"},
        ),
        # trace 1: only the positivity terms see the non-finite entries
        (
            lambda tmp_path: _phi0_model(tmp_path, (0.5, float("inf"), float("-inf"), 0.5)),
            {"phi0_hermiticity", "phi0_negativity"},
        ),
        (_unnormalized_transition_model, {"transition_unitality"}),
        # trace off by 5e-11 and by 2e-10: either side of the cpu tolerance
        (lambda tmp_path: _phi0_model(tmp_path, (0.5 + 5e-11, 0.0, 0.0, 0.5)), set()),
        (lambda tmp_path: _phi0_model(tmp_path, (0.5 + 2e-10, 0.0, 0.0, 0.5)), {"phi0_trace"}),
    ],
    ids=["cartesian", "spherical", "literal", "readme-config", "negative-phi0",
         "trace-two-phi0", "non-hermitian-phi0", "nan-phi0", "nan-kraus", "inf-diagonal-phi0",
         "inf-off-diagonal-phi0", "unnormalized-transition", "trace-within-tol-phi0",
         "trace-over-tol-phi0"],
)
def test_validate_and_the_cpu_check_agree(tmp_path, capsys, make, failing):
    model = make(tmp_path)
    if model in cli.VARIANT_CHOICES:
        variant = model.replace("-", "_")
        triples = [build_model(variant, s).triple for s in ("conventional", "causal")]
        argv = ["verify", "--variant", model, "--checks", "cpu"]
    else:
        triples = [load_model_config(model)[0]]
        argv = ["verify", model, "--checks", "cpu"]
    for one in triples:
        got, want = one.defects(), _defects_by_hand(one)
        assert list(got) == list(want)
        assert _bits(got) == _bits(want)
    code, _, _ = _run_cli(capsys, argv)
    assert code == (1 if failing else 0)
    # the cpu row's tolerance is the one threshold a triple meets
    assert cli.CHECKS["cpu"].tolerance == 1e-10
    assert {name for name, d in triples[0].defects().items() if not d <= 1e-10} == failing


SAMPLED_ROWS = ("initial", "transition", "emission", "sliced", "intertwining")


@pytest.mark.parametrize("seed", [11, 42])
@pytest.mark.parametrize("structure", ["conventional", "causal"])
@pytest.mark.parametrize("variant", ["normalized_cartesian", "normalized_spherical", "paper_literal"])
def test_each_sampled_row_alone_gives_its_row_of_the_full_run(capsys, variant, structure, seed):
    # the rows share one Haar batch, a function of (seed, samples) only, so
    # --checks X alone replays X's row of the full run byte for byte
    _assert_rows_alone_match_the_full_run(capsys, variant, structure, seed, SAMPLED_ROWS)


@pytest.mark.parametrize("seed", [11, 42])
@pytest.mark.parametrize("structure", ["conventional", "causal"])
@pytest.mark.parametrize("variant", ["normalized_cartesian", "normalized_spherical", "paper_literal"])
def test_every_other_row_alone_gives_its_rows_of_the_full_run(capsys, variant, structure, seed):
    # cpu, cocycle, global, kolmogorov and oracle read their own slices of
    # the run's one draw, functions of the seed and their own counts
    others = tuple(name for name in CHECK_NAMES if name not in SAMPLED_ROWS)
    _assert_rows_alone_match_the_full_run(capsys, variant, structure, seed, others)


def _assert_rows_alone_match_the_full_run(capsys, variant, structure, seed, names):
    """--checks X alone prints X's rows of the full run byte for byte, for each X in names."""
    argv = ["verify", "--variant", variant.replace("_", "-"), "--structure", structure,
            "--seed", str(seed), "--format", "json"]
    _, out, _ = _run_cli(capsys, argv)
    full = json.loads(out)["checks"]
    conditions = [row["condition"] for row in full]
    for name in names:
        _, out, _ = _run_cli(capsys, [*argv, "--checks", name])
        rows = json.loads(out)["checks"]
        start = conditions.index(rows[0]["condition"])
        assert json.dumps(rows) == json.dumps(full[start : start + len(rows)]), name


@pytest.mark.parametrize("variant", ["normalized_cartesian", "paper_literal"])
def test_a_shallower_global_run_prints_the_first_volumes_of_the_full_run(capsys, variant):
    # volume n's draws depend on (seed, samples, n) alone, so --n-max 2
    # prints the full run's first three global rows byte for byte
    argv = ["verify", "--variant", variant.replace("_", "-"), "--format", "json"]
    _, out, _ = _run_cli(capsys, argv)
    full = [row for row in json.loads(out)["checks"] if row["condition"].startswith("global")]
    code, out, _ = _run_cli(capsys, [*argv, "--checks", "global", "--n-max", "2"])
    assert code == (1 if variant == "paper_literal" else 0)
    assert json.dumps(json.loads(out)["checks"]) == json.dumps(full[:3])


class _CountingGenerator:
    """A Generator that records the size of every standard_normal draw."""

    def __init__(self, rng, draws):
        self._rng, self._draws = rng, draws

    def standard_normal(self, size=None):
        self._draws.append(int(np.prod(size)))
        return self._rng.standard_normal(size)

    def __getattr__(self, name):
        return getattr(self._rng, name)


def _count_draws(monkeypatch) -> tuple[list, list]:
    """Record every generator that np.random.default_rng makes and every Gaussian draw."""
    generators, draws = [], []
    make = np.random.default_rng

    def counting(seed=None):
        generators.append(seed)
        return _CountingGenerator(make(seed), draws)

    monkeypatch.setattr(np.random, "default_rng", counting)
    return generators, draws


def test_a_run_draws_once_and_nothing_it_does_not_read(monkeypatch, tmp_path):
    generators, draws = _count_draws(monkeypatch)
    # one buffer, as long as the furthest Gaussian a row reads: global's
    # last site, at 4 * 50 + 7 * 50 sites of 2 * 4 + 2 * 9 Gaussians
    run(RunConfig())
    assert (generators, draws) == ([42], [4 * 50 + 7 * 50 * 26])
    # cocycle's 400 rotations reach furthest when they are all it reads
    generators.clear(), draws.clear()
    run(RunConfig(checks=("cpu", "cocycle"), seed=3))
    assert (generators, draws) == ([3], [4 * 400])
    # the sampled rows alone read 200 rotations, then sliced's 200 sites
    generators.clear(), draws.clear()
    run(RunConfig(checks=SAMPLED_ROWS))
    assert draws == [4 * 200 + 200 * 26]
    # a sampled row other than sliced reads the rotations alone
    generators.clear(), draws.clear()
    run(RunConfig(checks=("transition",)))
    assert draws == [4 * 200]
    # and stacks only the reps it names: transition and initial read pi
    # alone, so no rho stack is built; a run stacks rho once, over the
    # longest prefix a row naming it reads
    stacked = []
    rotation_matrices = grouprep.rotation_matrices
    monkeypatch.setattr(
        grouprep, "rotation_matrices", lambda q: stacked.append(len(q)) or rotation_matrices(q)
    )
    run(RunConfig(checks=("initial", "transition")))
    assert stacked == []
    run(RunConfig(checks=("transition", "global")))
    assert stacked == [50]
    stacked.clear()
    run(RunConfig())
    assert stacked == [200]
    monkeypatch.setattr(grouprep, "rotation_matrices", rotation_matrices)
    generators.clear(), draws.clear()
    run(RunConfig(checks=("sliced",)))
    assert draws == [4 * 200 + 200 * 26]
    # a run that reads no Gaussian makes no generator
    generators.clear(), draws.clear()
    code = main(["verify", "--checks", "cpu", "--format", "json"])
    assert (code, generators, draws) == (0, [], [])
    # a config-file model: kolmogorov's 5 * 50 sites reach past oracle's 20
    path = tmp_path / "model.json"
    path.write_text(json.dumps({
        "hidden_dim": 2, "obs_dim": 3, "E_H": {"kind": "normalized_partial_trace"},
        "E_HO": {"kind": "aklt_emission"},
    }))
    generators.clear(), draws.clear()
    run(RunConfig(model=str(path)))
    assert (generators, draws) == ([42], [5 * 50 * 26])


def _replay_models() -> dict:
    """The six built-in configs and the Kraus model config of the oracle fixture."""
    models = {
        f"{v}/{s}": (v, s) for v in aklt.VARIANTS for s in ("conventional", "causal")
    }
    models["kraus-config"] = None
    return models


REPLAY_MODELS = _replay_models()
ORACLE_FIXTURE = Path(__file__).parent / "data" / "oracle_values.json"


@pytest.mark.parametrize("counts", [(200, 50, 6), (1, 1, 0), (7, 3, 1)], ids=str)
@pytest.mark.parametrize("seed", [11, 42])
@pytest.mark.parametrize("name", sorted(REPLAY_MODELS))
def test_the_run_draw_reproduces_each_row_drawing_alone(name, seed, counts, tmp_path):
    # every row reads, off the run's one draw, the bits it drew from a
    # generator of its own: whichever rows run, and at every count
    samples, global_samples, n_max = counts
    if REPLAY_MODELS[name] is None:
        fixture = json.loads(ORACLE_FIXTURE.read_text())["kraus_config"]
        path = tmp_path / "kraus.json"
        path.write_text(json.dumps(fixture))
        m = cli.load_model(str(path), "normalized_cartesian", None)
    else:
        m = cli.load_model("aklt", *REPLAY_MODELS[name])
    config = RunConfig(seed=seed, samples=samples, global_samples=global_samples, n_max=n_max)
    want = util.replay_row_inputs(m, config)
    d = cli.draw(m, config, tuple(want))
    for row, inputs in want.items():
        for alone in (False, True):
            got = _row_inputs(m, config, row) if alone else cli.CHECKS[row].inputs(d, config)
            assert len(got) == len(inputs), row
            for k, (g, w) in enumerate(zip(got, inputs)):
                assert g.shape == w.shape, (row, k)
                assert g.tobytes() == w.tobytes(), (row, k, alone)


@pytest.mark.parametrize("seed", [11, 42])
@pytest.mark.parametrize("structure", ["conventional", "causal"])
@pytest.mark.parametrize("variant", ["normalized_cartesian", "normalized_spherical", "paper_literal"])
def test_each_sampled_deviation_replays_from_its_slice_of_the_draw(
    monkeypatch, variant, structure, seed
):
    # deviation k of a run's sampled row is the row's check on entry k of
    # its inputs alone, so a witness index needs nothing else to rerun
    seen = {}

    def spy(condition, samples, seed, deviations, tolerance):
        seen[condition] = np.asarray(deviations)
        return check_result(condition, samples, seed, deviations, tolerance)

    check_result = cli.check_result
    monkeypatch.setattr(cli, "check_result", spy)
    config = RunConfig(variant=variant, structure=structure, seed=seed, samples=40,
                       checks=SAMPLED_ROWS)
    run(config)
    full = dict(seen)
    m = cli.load_model(config.model, config.variant, config.structure)
    d = cli.draw(m, config, SAMPLED_ROWS)
    for name in SAMPLED_ROWS:
        check = cli.CHECKS[name]
        inputs = check.inputs(d, config)
        for k in range(config.samples):
            one = tuple(stack[k : k + 1] for stack in inputs)
            seen.clear()
            [result] = check.results(m, config, config.tolerances[name], one)
            got = seen[result.condition].tobytes()
            assert got == full[result.condition][k : k + 1].tobytes(), (name, k)
    assert len(full) == len(SAMPLED_ROWS)


def test_eval_of_an_overflowing_word_is_null_without_a_warning(tmp_path, capsys):
    # entries of 1e308 overflow the fold's products: the value is not
    # finite, written as null with exit 1, and numpy says nothing on the way
    huge = {
        "X": util.matrix_json(1e308 * np.eye(2)),
        "Y": util.matrix_json(1e308 * np.eye(3)),
    }
    path = tmp_path / "word.json"
    path.write_text(json.dumps([huge] * 3))
    for structure in ("conventional", "causal"):
        argv = ["eval", "--word", str(path), "--structure", structure]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = _run_cli(capsys, argv)
        assert (code, err) == (1, "")
        assert _strict_json(out)["value"] == {"re": None, "im": None}


def _eval_value(capsys, argv) -> complex:
    code, out, err = _run_cli(capsys, [*argv, "--format", "json"])
    assert (code, err) == (0, "")
    value = _strict_json(out)["value"]
    return complex(value["re"], value["im"])


def _kraus_fixture_config(tmp_path) -> str:
    path = tmp_path / "kraus.json"
    fixture = json.loads((Path(__file__).parent / "data" / "oracle_values.json").read_text())
    path.write_text(json.dumps(fixture["kraus_config"]))
    return str(path)


@pytest.mark.parametrize("structure", ["conventional", "causal"])
@pytest.mark.parametrize("model", [*cli.VARIANT_CHOICES, "kraus-config"])
def test_eval_agrees_with_the_per_site_fold_and_the_dense_referee(tmp_path, capsys, model, structure):
    # eval folds through sliced_coefficients and fold_suffixes; the per-site
    # fold finite_volume_state and the dense referee are independent of both
    if model == "kraus-config":
        path = _kraus_fixture_config(tmp_path)
        m = cli.load_model(path, "", structure)
        argv = ["eval", "--model", path, "--structure", structure]
    else:
        m = build_model(model.replace("-", "_"), structure)
        argv = ["eval", "--variant", model, "--structure", structure]
    rng = np.random.default_rng(2034)
    words = {}
    # one site is the one-row GEMM that sliced_coefficients pads to two
    for n in (1, 2, 5, 8):
        word = util.random_word(rng, m.triple, n)
        path = tmp_path / f"word{n}.json"
        util.write_word(path, word)
        words[str(path)] = word
    h, o = m.triple.hidden_dim, m.triple.obs_dim
    for n in (1, 8, 64):
        words[f"allidentity:{n}"] = ObservableWord.all_identity(n, h, o)
    if m.tensors is not None:
        labels = "".join(m.tensors.labels)
        for spec in (labels[0], labels, labels[::-1] + labels[1]):
            words[f"proj:{spec}"] = aklt.projector_word(m, spec)
    values = {spec: _eval_value(capsys, [*argv, "--word", spec]) for spec in words}
    for spec, word in words.items():
        got = values[spec]
        assert abs(got - finite_volume_state(m.triple, m.structure, word)) <= 1e-13, spec
        # the dense referee contracts at most 8 sites
        if len(word) <= 8:
            assert abs(got - dense_word_value(m.triple, m.structure, word)) <= 1e-12, spec
    assert abs(values["allidentity:64"] - 1) <= 1e-13


def test_eval_is_the_last_suffix_of_the_verify_fold(tmp_path, capsys):
    # the value eval prints is, bit for bit, the whole word's entry of the
    # fold that verify's rows take, with the word in a batch of others
    m = build_model("normalized_spherical", "causal")
    xs, ys = util.random_words(np.random.default_rng(34), m.triple, 3, 4)
    batch = util.fold_batch(m.triple, m.structure, xs, ys)
    for k in range(3):
        path = tmp_path / f"word{k}.json"
        util.write_word(path, ObservableWord(xs[k], ys[k]))
        argv = ["eval", "--word", str(path), "--variant", "normalized-spherical"]
        got = _eval_value(capsys, [*argv, "--structure", "causal"])
        assert got == complex(batch[k])


def test_eval_text_spaces_a_non_finite_imaginary_part_from_the_i(tmp_path, capsys):
    # the overflowing word of tests/test_processes.py: "nan + nani" would
    # read as one word; a finite value keeps its text byte for byte
    x = {"dim": 2, "re": [1e308, 0, 0, 1e308], "im": [0] * 4}
    y = {"dim": 3, "re": [1e308, 0, 0, 0, 1e308, 0, 0, 0, 1e308], "im": [0] * 9}
    path = tmp_path / "huge-word.json"
    path.write_text(json.dumps([{"X": x, "Y": y}] * 3))
    code, out, err = _run_cli(capsys, ["eval", "--word", str(path), "--format", "text"])
    assert (code, err) == (1, "")
    assert out == "value = nan + nan i (3 sites, conventional)\n"
    code, out, _ = _run_cli(capsys, ["eval", "--word", "proj:xyz", "--format", "text"])
    assert code == 0
    assert out == "value = 0.037037037037 + 0i (3 sites, conventional)\n"


def _asdict_check_form(result) -> dict:
    """CheckResult.to_json_dict as it was built through dataclasses.asdict."""
    out = asdict(result)
    out["pass"] = out.pop("passed")
    if not np.isfinite(out["max_deviation"]):
        out["max_deviation"] = None
    return out


@pytest.mark.parametrize("structure", ["conventional", "causal"])
@pytest.mark.parametrize("variant", ["normalized_cartesian", "normalized_spherical", "paper_literal"])
def test_json_dicts_keep_the_asdict_bytes(variant, structure):
    config = RunConfig(variant=variant, structure=structure, seed=11)
    asdict_config = {
        **asdict(config),
        "checks": list(config.checks),
        "tolerances": {name: config.tolerances[name] for name in CHECK_NAMES},
    }
    assert json.dumps(config.to_json_dict()) == json.dumps(asdict_config)
    model = cli.load_model(config.model, config.variant, config.structure)
    d = cli.draw(model, config, CHECK_NAMES)
    results = [
        r
        for name, check in cli.CHECKS.items()
        for r in check.results(model, config, config.tolerances[name], check.inputs(d, config))
    ]
    assert len(results) == 16
    # a nan deviation is written as null either way
    results.append(replace(results[0], max_deviation=float("nan"), passed=False))
    for result in results:
        assert json.dumps(result.to_json_dict()) == json.dumps(_asdict_check_form(result))
