"""Tests of the benchmark harness itself (not of hqmmsym).

Run from the repository root:

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from hqmmsym import aklt, cli, hqmm, opalg, symmetry  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def workdir(request):
    """Scratch directory under bench/out, inside the checkout, removed afterwards."""
    path = BENCH_DIR / "out" / f"test-{request.node.name}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _run(args, cwd=ROOT, script=BENCH_DIR / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
def test_smoke_run_emits_declared_metrics(workload, trace):
    done = _run(["--workload", workload, "--seed", "3", "--seconds", "0",
                 "--trace", str(trace), "--smoke"])
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    declared = DECLARED["per_layer"] if trace else DECLARED["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert math.isfinite(emitted["value"])
    if trace == 0:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)


def test_fails_without_program_sources(workdir):
    shutil.copy(ROOT / "BENCHMARK.json", workdir)
    shutil.copytree(
        BENCH_DIR, workdir / "bench", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    done = _run(["--workload", "word-eval", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=workdir, script=workdir / "bench" / "run.py")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_tracer_replaces_every_binding_and_restores_them(workdir):
    originals = {
        (hqmm, "finite_volume_state"): hqmm.finite_volume_state,
        (symmetry, "finite_volume_state"): symmetry.finite_volume_state,
        (cli, "finite_volume_state"): cli.finite_volume_state,
        (opalg, "operator_norm"): opalg.operator_norm,
        (symmetry, "operator_norm"): symmetry.operator_norm,
        (cli, "operator_norm"): cli.operator_norm,
    }
    apply_array = vars(opalg.OperatorMap)["apply_array"]
    from_function = vars(opalg.OperatorMap)["from_function"]
    workload = workloads.CliCalls(5, workdir)
    workload.prepare()
    tally = workloads.Tally()
    with tracing.Tracer() as tracer:
        for (module, attr), original in originals.items():
            assert getattr(module, attr) is not original, f"{module.__name__}.{attr}"
        for i in range(workload.period):
            workload.step(i, tally)
    assert tracing.leftover_wrappers() == []
    for (module, attr), original in originals.items():
        assert getattr(module, attr) is original
    assert vars(opalg.OperatorMap)["apply_array"] is apply_array
    assert vars(opalg.OperatorMap)["from_function"] is from_function
    metrics = tracer.metrics()
    assert metrics["cli.main.calls"] == workload.period
    assert metrics["hqmm.sites_folded"] > 0
    assert tally.wrong == 0


def test_tracer_restores_after_an_exception():
    with pytest.raises(RuntimeError):
        with tracing.Tracer():
            assert tracing.leftover_wrappers()
            raise RuntimeError("boom")
    assert tracing.leftover_wrappers() == []


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer(targets=("hqmm.finite_volume_state", "opalg.OperatorMap.apply_array"))
    word = hqmm.ObservableWord.all_identity(6, 2, 3)
    triple = aklt.build_model().triple
    with tracer:
        hqmm.finite_volume_state(triple, "conventional", word)
    metrics = tracer.metrics()
    assert metrics["opalg.OperatorMap.apply_array.calls"] == 12
    fold = metrics["hqmm.finite_volume_state.s"]
    child = metrics["opalg.OperatorMap.apply_array.s"]
    assert metrics["hqmm.finite_volume_state.self_s"] == pytest.approx(fold - child)
    assert metrics["hqmm.sites_folded"] == 6


def test_missing_target_reports_zero():
    tracer = tracing.Tracer(targets=("hqmm.no_such_function", "cli.main"))
    with tracer:
        assert tracing.leftover_wrappers() == ["hqmmsym.cli.main"]
    assert tracer.missing == ["hqmm.no_such_function"]
    assert tracer.metrics()["hqmm.no_such_function.calls"] == 0


def test_whole_site_identity_files_are_probed_not_timed(workdir):
    workload = workloads.CliCalls(5, workdir)
    workload.prepare()
    timed = [c.argv for calls in workload.templates for c in calls]
    assert workload.whole_site
    for call in workload.whole_site:
        assert call.argv not in timed
        assert '"I"' in Path(call.argv[2]).read_text()
    probe = workloads.Tally()
    assert workload.probe(probe)
    assert probe.attempted == len(workload.whole_site)
    assert probe.wrong == 0


def test_host_speed_scale_uses_the_samples_near_the_operation():
    track = hostspeed.SpeedTrack()
    ref = hostspeed.REFERENCE_S
    track.at = [0.0, 1.0, 2.0, 10.0, 11.0, 12.0]
    track.seconds = [ref, ref, ref, 2 * ref, 2 * ref, 2 * ref]
    assert track.scale(0.5, 0.6) == pytest.approx(1.0)
    assert track.scale(10.5, 10.6) == pytest.approx(0.5)
    # nothing within the window: the median of the whole run
    assert track.scale(6.0, 6.1) == pytest.approx(2 / 3)


def test_verify_suite_captures_the_bytes_cli_prints(workdir, capsys):
    argv = workloads.VerifySuite(7, workdir).argvs[0]
    _, code, captured, _ = workloads.call_cli(argv)
    direct_code = cli.main(argv)
    assert (code, captured) == (direct_code, capsys.readouterr().out)
