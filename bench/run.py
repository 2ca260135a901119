"""hqmmsym benchmark: one closed-loop workload per run, end-to-end or traced.

Run from the root of a source checkout:

    python3 bench/run.py --workload verify-suite --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics with nothing
wrapped.  Times are rescaled to a nominal host speed by ``hostspeed``:
each operation by the reference samples taken near it, and set-up by
those of the whole loop, which follows it.  The raw figures are printed
and recorded beside them.  With ``--trace 1`` it runs the workload untraced
for half the time, then again with every function in ``tracing.TARGETS``
wrapped, and reports per-layer metrics plus the tracing overhead; the
spans go to ``bench/out/<workload>-spans.npz``.  ``--smoke`` runs one pass over the
workload's distinct operations with a single set-up, for the harness's
own tests.  After the loop a workload may probe, untimed and outside
``attempted``, inputs that a known defect makes the program refuse; the
outcome is printed and recorded, and a wrong value from a probe makes
``correct`` false.  The last line of standard output is the JSON result;
the full record, with provenance, goes to ``bench/out/<workload>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
WORKLOAD_NAMES = ("verify-suite", "word-eval", "cli-calls")
SETUP_REPEATS = 7
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "work_per_s": "1/s",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one pass, one set-up")
    # internal: time one set-up in a fresh interpreter and print it
    parser.add_argument("--probe-setup", metavar="WORKDIR", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_program():
    """Import hqmmsym and its CLI module from this checkout's src/, and nothing else."""
    if not (SRC / "hqmmsym" / "__init__.py").is_file():
        raise SystemExit(f"error: no hqmmsym sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import hqmmsym
    import hqmmsym.cli  # noqa: F401  (the entry point, part of what a CLI call imports)

    if Path(hqmmsym.__file__).resolve().parent != SRC / "hqmmsym":
        raise SystemExit(f"error: imported hqmmsym from {hqmmsym.__file__}, not {SRC}")
    return hqmmsym


def probe_setup(args) -> None:
    """Child process: import the package, build the workload's models, print seconds."""
    start = time.perf_counter()
    import_program()
    imported = time.perf_counter() - start
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, Path(args.probe_setup))
    start = time.perf_counter()
    workload.setup()
    print(json.dumps({"setup_s": imported + time.perf_counter() - start}))


def measure_setup(args, workdir: Path, repeats: int) -> list[float]:
    command = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--probe-setup", str(workdir),
    ]
    times = []
    for _ in range(repeats):
        done = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True
        )
        times.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def run_loop(workload, tally, seconds: float, smoke: bool, first: int):
    """Closed loop from operation index ``first``; at least one full pass.

    Returns the operations' samples rescaled to the nominal host speed,
    the raw samples, the next operation index and the host-speed track.
    """
    import hostspeed  # not at the top: numpy's import belongs to the timed set-up

    track = hostspeed.SpeedTrack()
    samples, starts = [], []
    track.sample()
    deadline = time.perf_counter() + seconds
    i = first
    while True:
        starts.append(time.perf_counter())
        samples.append(workload.step(i, tally))
        i += 1
        track.maybe_sample()
        if i - first >= workload.period and (smoke or time.perf_counter() >= deadline):
            break
    track.sample()
    scaled = [
        dataclasses.replace(s, seconds=s.seconds * track.scale(t, t + s.seconds))
        for s, t in zip(samples, starts)
    ]
    return scaled, samples, i, track


def run_all(args) -> int:
    """Each workload in turn, in its own process so peak memory stays per workload."""
    codes = []
    for name in WORKLOAD_NAMES:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        sys.stdout.flush()
        codes.append(subprocess.run(command + ["--smoke"] * args.smoke, cwd=ROOT).returncode)
    return max(codes)


def provenance(seed: int) -> dict:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {name: os.environ.get(name) for name in BLAS_ENV},
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "commit": _git_commit(),
        "seed": seed,
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str | None:
    """HEAD of the checkout's git directory, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    args = parse_args(argv)
    for name in BLAS_ENV:
        os.environ[name] = BLAS_THREADS
    if args.probe_setup:
        probe_setup(args)
        return 0
    if args.workload == "all":
        return run_all(args)
    import_program()
    import workloads
    from tracing import Tracer

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"inputs-{args.workload}-{os.getpid()}"
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        record = {
            "workload": args.workload, "trace": args.trace, "provenance": provenance(args.seed)
        }
        if args.trace == 0:
            setups = measure_setup(args, workdir, 1 if args.smoke else SETUP_REPEATS)
        workload.setup()
        workload.prepare()
        tally = workloads.Tally()
        if args.trace == 0:
            samples, raw, _, track = run_loop(workload, tally, args.seconds, args.smoke, 0)
            summary = workload.summarize(samples)
            raw_summary = workload.summarize(raw)
            setup_scale = track.scale(track.at[0], track.at[-1])
            metrics = {
                "setup_s": statistics.median(setups) * setup_scale,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "op_p50_ms": summary["op_p50_ms"],
                "op_tail_ms": summary["op_tail_ms"],
                "work_per_s": summary["work_per_s"],
            }
            units = END_TO_END_UNITS
            record["setup_runs_s"] = setups
            record["raw"] = {
                "setup_s": statistics.median(setups),
                **{name: raw_summary[name] for name in ("op_p50_ms", "op_tail_ms", "work_per_s")},
            }
        else:
            plain, _, i, _ = run_loop(workload, tally, args.seconds / 2, args.smoke, 0)
            with Tracer() as tracer:
                workload.setup()
                traced, _, _, _ = run_loop(workload, tally, args.seconds / 2, args.smoke, i)
            summary = workload.summarize(traced)
            base = workload.summarize(plain)["op_p50_ms"]
            metrics = tracer.metrics()
            metrics["trace.overhead_frac"] = summary["op_p50_ms"] / base - 1.0
            units = {name: _per_layer_unit(name) for name in metrics}
            record["spans"] = tracer.write_spans(OUT / f"{args.workload}-spans.npz")
            record["missing_targets"] = tracer.missing
        workload.finish(tally)
        probe = workloads.Tally()
        probed = workload.probe(probe)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record.update(
        attempted=tally.attempted, refused=tally.refused, wrong=tally.wrong,
        fail_frac=tally.failed / tally.attempted, problems=tally.problems,
        samples=summary["samples"], median_ms_by_kind=summary["median_ms_by_kind"], metrics=metrics,
        aliases={k: v[0] for k, v in summary["aliases"].items()},
    )
    if probed:
        record["probe"] = {
            "what": probed, "attempted": probe.attempted, "refused": probe.refused,
            "wrong": probe.wrong, "problems": probe.problems,
        }
    (OUT / f"{args.workload}-trace{args.trace}.json").write_text(json.dumps(record, indent=2))

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("provenance " + json.dumps(record["provenance"]))
    if args.trace == 0:
        for name, value in metrics.items():
            raw_value = record["raw"].get(name)
            raw_note = "" if raw_value is None else f" (raw {raw_value:.6g})"
            print(f"{name} {value:.6g} {units[name]}{raw_note}")
        for name, (value, unit) in summary["aliases"].items():
            print(f"{name} {value:.6g} {unit} (n={summary['samples']})")
    else:
        print(f"spans {record['spans']} overhead {metrics['trace.overhead_frac']:+.3f}")
        if tracer.missing:
            print("not found, reported as zero: " + ", ".join(tracer.missing))
    print(f"fail_frac {record['fail_frac']:.4g} ({tally.failed} of {tally.attempted}: "
          f"{tally.refused} refused, {tally.wrong} wrong)")
    for problem in tally.problems[:5]:
        print("  " + problem)
    if probed:
        print(f"probe, untimed and not in attempted: {probed}: {probe.attempted} calls, "
              f"{probe.refused} refused, {probe.wrong} wrong")
        for problem in probe.problems[:2]:
            print("  " + problem)
    result = {
        "correct": tally.wrong == 0 and probe.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _per_layer_unit(name: str) -> str:
    if name.endswith((".calls", ".samples", ".sites_folded")):
        return "count"
    if name.endswith((".calls_per_build", "overhead_frac")):
        return "ratio"
    return "s"


if __name__ == "__main__":
    sys.exit(main())
