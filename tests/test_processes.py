"""Every documented CLI call, run in four fresh interpreters that must print the same bytes.

One table holds each call's argv and its exit code.  Four child
interpreters, started at once, each run the whole table through cli.main
and print [code, stdout] per call:

- hashseed-0: PYTHONHASHSEED=0, the table in order;
- hashseed-1-reversed: PYTHONHASHSEED=1, the table in reverse, so state
  carried from one call to the next, or the order of a set or dict,
  changes some call's bytes;
- one-blas-thread: OPENBLAS_NUM_THREADS=1, so a report may not depend
  on how BLAS splits a product over threads;
- warnings-as-errors: PYTHONWARNINGS=error::RuntimeWarning, so numpy's
  floating-point warnings stop the child: no closed form may divide 0 by
  0 or take arccos outside [-1, 1], and an overflowing eval word must
  come out null without a warning.

Every call's code and stdout are byte for byte the same in all four.  The
content checks then read the first child alone: a row run alone or a
subset of rows prints its rows of the full run, a shallow global run the
first volumes of the deep one, the config models PASS, and the eval
values are right.

A closed pipe is run on its own: a child whose reader closes its stdout
at once exits with its own code and writes nothing to stderr.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import util
from hqmmsym import build_model, dense_word_value, load_model_config, load_word
from hqmmsym.cli import CHECK_NAMES

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# the rows that paper_literal's tensors FAIL
LITERAL_FAILS = {"emission", "sliced", "global", "intertwining"}
# the batch edges of the rows that batch their volumes, lengths or words:
# kolmogorov with no length, global with one volume, one sample per volume
# and length, and oracle at 7 samples, whose last word has two suffixes in use
EDGES = ("--n-max 0", "--n-max 1", "--samples 1 --global-samples 1", "--samples 7")
CONFIG_ROWS = ("cpu", "kolmogorov", "oracle")


def _calls(files: dict[str, str]) -> dict[str, tuple[list[str], int]]:
    """Each call's name, argv and exit code, in table order; files holds the input paths."""
    runs = {"default": ("normalized-cartesian", 0), "literal": ("paper-literal", 1)}
    calls = {
        "smoke": (["verify", "--checks", "cpu,cocycle", "--format", "text"], 0),
        "z2z2": (["cocycle", "--subgroup", "z2z2"], 0),
        # the paper-literal tensors FAIL covariance: exit 1, not 0 or 2
        "literal-covariance": (
            ["verify", "--variant", "paper-literal", "--checks", "emission,intertwining"], 1
        ),
        "default": (["verify", "--format", "json"], 0),
        "literal": (["verify", "--variant", "paper-literal", "--format", "json"], 1),
        "spherical": ([
            "verify", "--variant", "normalized-spherical",
            "--checks", "transition,emission,intertwining", "--format", "json",
        ], 0),
    }
    for name, (variant, code) in runs.items():
        verify = ["verify", "--variant", variant, "--format", "json"]
        calls[f"{name}-subset"] = (verify + ["--checks", "emission,transition,sliced"], code)
        for row in CHECK_NAMES:
            fails = name == "literal" and row in LITERAL_FAILS
            calls[f"{name}-alone-{row}"] = (verify + ["--checks", row], int(fails))
        calls[f"{name}-shallow"] = (verify + ["--checks", "global", "--n-max", "2"], code)
    calls["huge-word"] = (["eval", "--word", files["huge-word"]], 1)
    for k, edge in enumerate(EDGES):
        argv = ["verify", "--checks", "global,kolmogorov,oracle", *edge.split(), "--format", "json"]
        calls[f"edge-{k}"] = (argv, 0)
    # a non-finite element is a usage error, exit 2, not a warning turned error
    calls["infinite-element"] = (
        ["cocycle", "--element", "1,0,0:inf", "--element", "1,0,0:0"], 2
    )
    for config in ("kraus", "readme"):
        verify = ["verify", files[config], "--format", "json"]
        for structure in ("conventional", "causal"):
            calls[f"{config}-{structure}"] = (verify + ["--structure", structure], 0)
        # with the file's own structure
        for row in CONFIG_ROWS:
            calls[f"{config}-alone-{row}"] = (verify + ["--checks", row], 0)
    calls["projector-word"] = (["eval", "--word", "proj:xyz", "--format", "json"], 0)
    calls["identity-64"] = (["eval", "--word", "allidentity:64", "--format", "json"], 0)
    # one site is the one-row GEMM that sliced_coefficients pads to two
    calls["one-site-word"] = (["eval", "--word", files["one-site-word"], "--format", "json"], 0)
    # the README config's own structure is causal
    calls["config-eval"] = (
        ["eval", "--model", files["readme"], "--word", files["word"], "--format", "json"], 0
    )
    return calls


# A child's program: run the job's calls through cli.main in the job's order
# and print [code, stdout] per call, in table order.
CHILD = """
import contextlib, io, json, sys
from pathlib import Path
job = json.loads(sys.argv[1])
import hqmmsym
from hqmmsym import cli
assert Path(hqmmsym.__file__).resolve().is_relative_to(job["src"]), hqmmsym.__file__
out = [None] * len(job["calls"])
for i in job["order"]:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(job["calls"][i])
    out[i] = [code, stdout.getvalue()]
json.dump(out, sys.stdout)
"""

CHILDREN = {
    "hashseed-0": ({"PYTHONHASHSEED": "0"}, False),
    "hashseed-1-reversed": ({"PYTHONHASHSEED": "1"}, True),
    "one-blas-thread": ({"OPENBLAS_NUM_THREADS": "1"}, False),
    "warnings-as-errors": ({"PYTHONWARNINGS": "error::RuntimeWarning"}, False),
}
# what a child inherits of these comes from its own entry alone: the other
# children keep BLAS's default thread count and numpy's default warnings
CONTROLLED = {name for env, _ in CHILDREN.values() for name in env}


@pytest.fixture(scope="module")
def table(tmp_path_factory) -> dict[str, tuple[list[str], int]]:
    out = tmp_path_factory.mktemp("processes")
    names = ("huge-word", "kraus", "readme", "one-site-word", "word")
    files = {name: str(out / f"{name}.json") for name in names}
    # entries of 1e308 overflow the fold's products
    x = {"dim": 2, "re": [1e308, 0, 0, 1e308], "im": [0] * 4}
    y = {"dim": 3, "re": [1e308, 0, 0, 0, 1e308, 0, 0, 0, 1e308], "im": [0] * 9}
    # the Kraus model config of the referee's fixture, and the README's, whose
    # normalized_partial_trace and aklt_emission kinds build the other maps
    kraus = json.loads((ROOT / "tests" / "data" / "oracle_values.json").read_text())
    rng = np.random.default_rng(2034)
    triple = build_model().triple
    contents = {
        "huge-word": [{"X": x, "Y": y}] * 3,
        "one-site-word": util.word_items(util.random_word(rng, triple, 1)),
        "word": util.word_items(util.random_word(rng, triple, 3)),
        "kraus": kraus["kraus_config"],
        "readme": util.readme_model_config(),
    }
    for name, content in contents.items():
        Path(files[name]).write_text(json.dumps(content))
    return _calls(files)


@pytest.fixture(scope="module")
def children(table) -> dict[str, subprocess.CompletedProcess]:
    """Each child's finished process, all four started before any is awaited."""
    argvs = [argv for argv, _ in table.values()]
    base = {k: v for k, v in os.environ.items() if k not in CONTROLLED}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), base.get("PYTHONPATH")]))
    started = {}
    for name, (env, reverse) in CHILDREN.items():
        order = list(range(len(argvs)))[:: -1 if reverse else 1]
        job = json.dumps({"src": str(SRC), "calls": argvs, "order": order})
        started[name] = subprocess.Popen(
            [sys.executable, "-c", CHILD, job], cwd=ROOT, env={**base, **env},
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
    done = {}
    try:
        for name, child in started.items():
            stdout, stderr = child.communicate(timeout=300)
            done[name] = subprocess.CompletedProcess(child.args, child.returncode, stdout, stderr)
    finally:
        # a timeout leaves no child running past the test
        for child in started.values():
            child.kill()
    return done


def _outputs(children, name: str) -> list[tuple[int, str]]:
    """A child's [code, stdout] per call; a child that raised fails here with its stderr."""
    child = children[name]
    assert child.returncode == 0, f"{name} exited {child.returncode}:\n{child.stderr}"
    return [tuple(pair) for pair in json.loads(child.stdout)]


@pytest.fixture(scope="module")
def first(table, children) -> dict[str, tuple[int, str]]:
    """The first child's (code, stdout) per call name."""
    return dict(zip(table, _outputs(children, "hashseed-0")))


@pytest.mark.parametrize("name", list(CHILDREN))
def test_every_call_prints_the_same_bytes_in_every_child(table, children, name):
    want = _outputs(children, "hashseed-0")
    got = _outputs(children, name)
    assert len(got) == len(table)
    for call, w, g in zip(table, want, got):
        assert g == w, (name, call)


def test_every_call_exits_with_its_code(table, first):
    codes = {call: code for call, (_, code) in table.items()}
    assert {call: first[call][0] for call in table} == codes


def _report(first, call: str) -> dict:
    return json.loads(first[call][1])


def _assert_rows_of_full_run(full: dict, alone: dict, code: int) -> None:
    """alone's rows are one contiguous run of full's rows, byte for byte, and code says if all pass."""
    rows = alone["checks"]
    conditions = [row["condition"] for row in full["checks"]]
    assert rows and rows[0]["condition"] in conditions, rows
    start = conditions.index(rows[0]["condition"])
    assert json.dumps(rows) == json.dumps(full["checks"][start : start + len(rows)]), rows
    assert code == (0 if all(row["pass"] for row in rows) else 1), (rows, code)


@pytest.mark.parametrize("name", ["default", "literal"])
def test_each_row_alone_prints_its_rows_of_the_full_run(first, name):
    full = _report(first, name)
    for row in CHECK_NAMES:
        call = f"{name}-alone-{row}"
        _assert_rows_of_full_run(full, _report(first, call), first[call][0])


@pytest.mark.parametrize("name", ["default", "literal"])
def test_a_subset_of_the_sampled_rows_prints_the_full_runs_rows(first, name):
    rows = {row["condition"]: row for row in _report(first, name)["checks"]}
    subset = _report(first, f"{name}-subset")["checks"]
    names = [row["condition"] for row in subset]
    assert names == ["transition_equivariance", "emission_covariance", "sliced_covariance"]
    assert all(row == rows[row["condition"]] for row in subset), subset


@pytest.mark.parametrize("name", ["default", "literal"])
def test_a_shallow_global_run_prints_the_first_volumes(first, name):
    full = _report(first, name)["checks"]
    rows = [row for row in full if row["condition"].startswith("global_invariance")]
    shallow = _report(first, f"{name}-shallow")["checks"]
    assert [row["condition"] for row in shallow] == [f"global_invariance[n={n}]" for n in range(3)]
    assert json.dumps(shallow) == json.dumps(rows[:3])


@pytest.mark.parametrize("config", ["kraus", "readme"])
def test_config_models_pass_and_their_rows_alone_match(first, config):
    full = {}
    for structure in ("conventional", "causal"):
        report = _report(first, f"{config}-{structure}")
        assert report["pass"], report
        full[structure] = report
    for row in CONFIG_ROWS:
        call = f"{config}-alone-{row}"
        alone = _report(first, call)
        _assert_rows_of_full_run(full[alone["model"]["structure"]], alone, first[call][0])


def _value(first, call: str) -> complex:
    value = _report(first, call)["value"]
    return complex(value["re"], value["im"])


def test_eval_values(table, first):
    # a word whose products overflow is null; P(x, y, z) is 1/27
    assert _report(first, "huge-word")["value"] == {"re": None, "im": None}
    value = _report(first, "projector-word")["value"]
    assert abs(value["re"] - 1 / 27) <= 1e-12 and abs(value["im"]) <= 1e-12, value
    assert abs(_value(first, "identity-64") - 1) <= 1e-13
    # the word files' values against the dense referee
    model = build_model()
    one_site = load_word(table["one-site-word"][0][2], 2, 3)
    want = dense_word_value(model.triple, model.structure, one_site)
    assert abs(_value(first, "one-site-word") - want) <= 1e-12
    assert _report(first, "config-eval")["structure"] == "causal"
    triple, structure = load_model_config(table["config-eval"][0][2])
    want = dense_word_value(triple, structure, load_word(table["config-eval"][0][4], 2, 3))
    assert abs(_value(first, "config-eval") - want) <= 1e-12


@pytest.mark.parametrize("argv, code", [
    (["--checks", "cpu"], 0),
    (["--variant", "paper-literal"], 1),
], ids=["cpu", "literal"])
def test_a_closed_pipe_keeps_the_exit_code_and_an_empty_stderr(argv, code):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    child = subprocess.Popen(
        [sys.executable, "-m", "hqmmsym.cli", "verify", *argv, "--format", "text"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        child.stdout.close()
        stderr = child.stderr.read()
        assert child.wait(timeout=120) == code
    finally:
        child.kill()
    assert stderr == b""
