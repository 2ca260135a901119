"""The three workloads of the hqmmsym benchmark.

Every workload makes its inputs from the workload seed alone, builds the
models it uses in ``setup`` (the part timed as set-up), then runs one
operation per ``step`` in a closed loop with a single caller.  Only the
call into the program is timed.  Outputs are judged against expectations
fixed before the loop (cli-calls, verify-suite) or checked after it
(word-eval), and each operation ends as ok, refused or wrong:

- refused: the program exited 2 with an ``error:`` line, declining an
  input it should accept;
- wrong: any other departure (a wrong value or verdict, a wrong exit
  code, non-identical bytes for a repeated configuration, an exception).

Library functions are always reached through their module attribute
(``cli.main``, ``hqmm.finite_volume_state``) so that the tracer's
replacements are the ones called.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from hqmmsym import aklt, cli, hqmm
from hqmmsym.opalg import ComplexOperator

OK, REFUSED, WRONG = "ok", "refused", "wrong"


@dataclass
class Sample:
    """One timed operation: which kind it was, its wall seconds, its work units."""

    key: int
    seconds: float
    work: int = 1


@dataclass
class Tally:
    attempted: int = 0
    refused: int = 0
    wrong: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, status: str, what: str = "") -> None:
        self.attempted += 1
        if status == OK:
            return
        if status == REFUSED:
            self.refused += 1
        else:
            self.wrong += 1
        if len(self.problems) < 50:
            self.problems.append(f"{status}: {what}")

    def fault(self, what: str) -> None:
        """A wrong result found after the loop for an already counted operation."""
        self.wrong += 1
        if len(self.problems) < 50:
            self.problems.append(f"wrong: {what}")

    @property
    def failed(self) -> int:
        return self.refused + self.wrong


def call_cli(argv: list[str]) -> tuple[float, int, str, str]:
    """Run ``cli.main(argv)`` in-process; return (seconds, exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects a command line this way
            code = exc.code if isinstance(exc.code, int) else 2
        seconds = time.perf_counter() - start
    return seconds, code, out.getvalue(), err.getvalue()


def _exit_status(code: int, err: str, expected: int) -> str | None:
    if code == expected:
        return None
    if code == 2 and err.startswith("error:"):
        return REFUSED
    return WRONG


def _unit_norm(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    """count complex Gaussian dim x dim matrices scaled to operator norm one."""
    g = rng.standard_normal((count, dim, dim)) + 1j * rng.standard_normal((count, dim, dim))
    return g / np.linalg.norm(g, ord=2, axis=(1, 2))[:, None, None]


def _matrix_json(m: np.ndarray) -> dict:
    return {
        "dim": int(m.shape[0]),
        "re": [float(v) for v in m.real.ravel()],
        "im": [float(v) for v in m.imag.ravel()],
    }


def _word(xs: np.ndarray, ys: np.ndarray) -> hqmm.ObservableWord:
    h, o = xs.shape[1], ys.shape[1]
    return hqmm.ObservableWord.from_pairs(
        [(ComplexOperator(h, x), ComplexOperator(o, y)) for x, y in zip(xs, ys)]
    )


def _percentile_ms(seconds: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(seconds), q)) * 1e3


def _completed(samples: list[Sample]) -> list[Sample]:
    """Operations that returned; one that raised carries NaN seconds."""
    return [s for s in samples if not np.isnan(s.seconds)]


def _by_key(samples: list[Sample]) -> dict[int, list[float]]:
    """Completed operations' seconds grouped by kind."""
    groups: dict[int, list[float]] = {}
    for s in _completed(samples):
        groups.setdefault(s.key, []).append(s.seconds)
    return groups


def _median_ms_by_key(samples: list[Sample]) -> dict[int, float]:
    return {k: float(np.median(v)) * 1e3 for k, v in sorted(_by_key(samples).items())}


class Workload:
    """What run.py drives: set-up, then one operation per step, then checks."""

    name: str
    period: int  # operations in one pass over the workload's distinct kinds

    def setup(self) -> None:
        """Build the models the workload uses; this is what setup_s times."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Fix expected answers before the loop."""

    def step(self, i: int, tally: Tally) -> Sample:
        raise NotImplementedError

    def finish(self, tally: Tally) -> None:
        """Checks that run after the timed loop."""

    def probe(self, tally: Tally) -> str | None:
        """Untimed calls on inputs a known defect refuses; returns what was probed."""
        return None

    @staticmethod
    def summarize(samples: list[Sample]) -> dict:
        raise NotImplementedError


# --------------------------------------------------------------------------
# verify-suite


VERIFY_CONFIGS = (
    ("normalized-cartesian", "conventional"),
    ("normalized-cartesian", "causal"),
    ("normalized-spherical", "conventional"),
    ("normalized-spherical", "causal"),
    ("paper-literal", "conventional"),
)
# Passed explicitly so that a change of the CLI defaults cannot change the work.
VERIFY_DEPTH = ("--samples", "200", "--global-samples", "50", "--n-max", "6")
# Conditions the unnormalized diagnostic tensors must fail.
PAPER_LITERAL_FAILS = ("tensor_intertwining", "emission_covariance")


class VerifySuite(Workload):
    """Full default check list through ``cli.main(["verify", ...])``, rotating variants."""

    name = "verify-suite"

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.argvs = [
            ["verify", "--variant", variant, "--structure", structure,
             "--seed", str(int(rng.integers(2**31))), *VERIFY_DEPTH, "--format", "json"]
            for variant, structure in VERIFY_CONFIGS
        ]
        self.period = len(self.argvs)
        self.first_output: dict[int, str] = {}

    def setup(self) -> None:
        for variant, structure in VERIFY_CONFIGS:
            aklt.build_model(variant, structure)

    def step(self, i: int, tally: Tally) -> Sample:
        k = i % self.period
        argv = self.argvs[k]
        try:
            seconds, code, out, err = call_cli(argv)
        except Exception as exc:
            tally.record(WRONG, f"{' '.join(argv)}: {exc!r}")
            return Sample(k, float("nan"))
        tally.record(*self._judge(k, code, out, err))
        return Sample(k, seconds)

    def _judge(self, k: int, code: int, out: str, err: str) -> tuple[str, str]:
        variant = VERIFY_CONFIGS[k][0]
        literal = variant == "paper-literal"
        what = " ".join(self.argvs[k])
        status = _exit_status(code, err, 1 if literal else 0)
        if status is not None:
            return status, f"{what}: exit {code} {err.strip()[:200]}"
        if self.first_output.setdefault(k, out) != out:
            return WRONG, f"{what}: output differs from the first run of this configuration"
        try:
            report = json.loads(out)
            failing = [c["condition"] for c in report["checks"] if not c["pass"]]
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            return WRONG, f"{what}: unreadable report ({exc})"
        if literal:
            missing = [
                name for name in PAPER_LITERAL_FAILS
                if not any(c.startswith(name) for c in failing)
            ]
            if report["pass"] is not False or missing:
                return WRONG, f"{what}: expected FAIL on {missing or 'overall'}"
        elif report["pass"] is not True or failing:
            return WRONG, f"{what}: expected PASS, failing {failing}"
        return OK, ""

    @staticmethod
    def summarize(samples: list[Sample]) -> dict:
        by_config = _by_key(samples)
        medians = [float(np.median(v)) for v in by_config.values()]
        return {
            "op_p50_ms": float(np.mean(medians)) * 1e3,
            "op_tail_ms": max(medians) * 1e3,
            "work_per_s": len(medians) / sum(medians),
            "aliases": {"verify_s": (float(np.mean(medians)), "s")},
            "samples": sum(len(v) for v in by_config.values()),
            "median_ms_by_kind": _median_ms_by_key(samples),
        }


# --------------------------------------------------------------------------
# word-eval


WORD_MAX_SITES = 64
CLASSICAL_HIDDEN, CLASSICAL_SYMBOLS = 4, 3
DENSE_MAX_SITES = 5
DENSE_CHECKS = 40
# Tolerances fixed before any measurement.
IDENTITY_TOL = 1e-10
DENSE_TOL = 1e-10
FORWARD_REL_TOL = 1e-9
BOUND_SLACK = 1e-9


class WordEval(Workload):
    """The word fold alone: one ``hqmm.finite_volume_state`` call per word.

    Models: the built-in normalized-cartesian chain under both causal
    structures, and a seeded classical chain with 4 hidden states and 3
    symbols under both structures, so a kernel tuned to 2x2 hidden
    algebras cannot hide a slowdown at other sizes.
    """

    name = "word-eval"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        rng = np.random.default_rng(seed)
        d, o = CLASSICAL_HIDDEN, CLASSICAL_SYMBOLS
        self.initial = rng.dirichlet(np.ones(d))
        self.transition = rng.dirichlet(np.ones(d), size=d)
        self.emission = rng.dirichlet(np.ones(o), size=d)
        self.period = 4
        self.models: list[tuple[hqmm.GenerativeTriple, str, bool]] = []
        self.records: list[tuple[int, str, complex, np.ndarray | None]] = []
        self.dense_words: list[tuple[int, hqmm.ObservableWord, complex]] = []

    def setup(self) -> None:
        chain = {s: aklt.build_model("normalized_cartesian", s) for s in ("conventional", "causal")}
        classical = hqmm.classical_diagonal_triple(self.initial, self.transition, self.emission)
        self.models = [
            (chain["conventional"].triple, "conventional", False),
            (chain["causal"].triple, "causal", False),
            (classical, "conventional", True),
            (classical, "causal", True),
        ]

    def _make_word(self, i: int):
        """Word i: model, kind ('random', 'identity', 'projector') and the word itself."""
        rng = np.random.default_rng((self.seed, i))
        m = i % len(self.models)
        triple, _, classical = self.models[m]
        h, o = triple.hidden_dim, triple.obs_dim
        n = int(rng.integers(1, WORD_MAX_SITES + 1))
        if rng.random() < 0.125:
            return m, "identity", None, hqmm.ObservableWord.all_identity(n, h, o)
        if classical:
            labels = rng.integers(o, size=n)
            xs = np.broadcast_to(np.eye(h, dtype=complex), (n, h, h))
            ys = np.zeros((n, o, o), dtype=complex)
            ys[np.arange(n), labels, labels] = 1.0
            return m, "projector", labels, _word(xs, ys)
        return m, "random", None, _word(_unit_norm(rng, n, h), _unit_norm(rng, n, o))

    def step(self, i: int, tally: Tally) -> Sample:
        m, kind, labels, word = self._make_word(i)
        triple, structure, _ = self.models[m]
        try:
            start = time.perf_counter()
            value = hqmm.finite_volume_state(triple, structure, word)
            seconds = time.perf_counter() - start
        except Exception as exc:
            tally.record(WRONG, f"word {i}: {exc!r}")
            return Sample(m, float("nan"), 0)
        tally.record(OK)
        self.records.append((m, kind, value, labels))
        short = len(word) <= DENSE_MAX_SITES
        if kind == "random" and short and len(self.dense_words) < DENSE_CHECKS:
            self.dense_words.append((m, word, value))
        return Sample(m, seconds, len(word))

    def finish(self, tally: Tally) -> None:
        """Check every stored value; runs after the timed loop."""
        for index, (m, kind, value, labels) in enumerate(self.records):
            if not abs(value) <= 1.0 + BOUND_SLACK:
                tally.fault(f"word record {index}: |value| {abs(value):.3e} exceeds 1")
            if kind == "identity" and abs(value - 1.0) > IDENTITY_TOL:
                tally.fault(f"word record {index}: all-identity value {value}")
            if kind == "projector":
                ref = _forward_likelihood(self.initial, self.transition, self.emission, labels)
                if abs(value - ref) > FORWARD_REL_TOL * ref:
                    tally.fault(f"word record {index}: {value} against forward likelihood {ref}")
        for m, word, value in self.dense_words:
            triple, structure, _ = self.models[m]
            ref = aklt.dense_word_value(triple, structure, word)
            if abs(value - ref) > DENSE_TOL:
                tally.fault(f"{len(word)}-site word on model {m}: {value} against dense {ref}")

    @staticmethod
    def summarize(samples: list[Sample]) -> dict:
        done = _completed(samples)
        seconds = [s.seconds for s in done]
        rate = sum(s.work for s in done) / sum(seconds)
        p50, p90, p99 = (_percentile_ms(seconds, q) for q in (50, 90, 99))
        return {
            "op_p50_ms": p50,
            "op_tail_ms": p90,
            "work_per_s": rate,
            "aliases": {
                "sites_per_s": (rate, "1/s"),
                "word_p50_ms": (p50, "ms"),
                "word_p90_ms": (p90, "ms"),
                "word_p99_ms": (p99, "ms"),
            },
            "samples": len(seconds),
            "median_ms_by_kind": _median_ms_by_key(samples),
        }


def _forward_likelihood(initial, transition, emission, labels) -> float:
    """Classical hidden-chain likelihood by the textbook forward recursion."""
    alpha = initial * emission[:, labels[0]]
    for y in labels[1:]:
        alpha = (alpha @ transition) * emission[:, y]
    return float(alpha.sum())


# --------------------------------------------------------------------------
# cli-calls


POOL = 6
CHAIN_LABELS = {"normalized-cartesian": "xyz", "normalized-spherical": "+0-"}
CONFIG_DEPTH = ("--samples", "200", "--global-samples", "50", "--n-max", "6")
CONFIG_CONDITIONS = ["cpu_certification", "kolmogorov_consistency", "oracle_agreement"]


@dataclass
class Call:
    """One CLI invocation and what a correct program answers to it."""

    argv: list[str]
    code: int = 0
    value: complex | None = None  # eval: the word value
    nontrivial: bool | None = None  # cocycle: the class verdict
    conditions: list[str] | None = None  # verify: the check names, all passing
    stored: str | None = None  # report: the stored report file


class CliCalls(Workload):
    """Short in-process CLI calls covering the documented command forms.

    Templates run in a fixed round robin and each draws from a pool of
    seeded variants, so the mix of call kinds is the same in every run.
    """

    name = "cli-calls"

    def __init__(self, seed: int, workdir: Path):
        self.rng = np.random.default_rng(seed)
        self.dir = workdir
        self.dir.mkdir(parents=True, exist_ok=True)
        self.configs = [self._write_config(j) for j in range(4)]
        self.templates: list[list[Call]] = []
        self.whole_site: list[Call] = []
        self.period = 0

    # inputs ---------------------------------------------------------------

    def _unital_kraus(self, d_out: int, d_in: int, count: int) -> list[dict]:
        g = self.rng.standard_normal((count * d_in, d_out)) + 1j * self.rng.standard_normal(
            (count * d_in, d_out)
        )
        q, _ = np.linalg.qr(g)  # orthonormal columns, so the row blocks sum to identity
        stacked = q.conj().T
        return [
            {"rows": d_out, "cols": d_in, "re": [float(v) for v in k.real.ravel()],
             "im": [float(v) for v in k.imag.ravel()]}
            for k in np.split(stacked, count, axis=1)
        ]

    def _write_config(self, j: int) -> Path:
        transition = (
            {"kind": "normalized_partial_trace"} if j % 2 == 0
            else {"kind": "kraus", "kraus": self._unital_kraus(2, 4, 2)}
        )
        variant = ("normalized_cartesian", "normalized_spherical")[j // 2]
        emission = (
            {"kind": "aklt_emission", "variant": variant}
            if j < 3 else {"kind": "kraus", "kraus": self._unital_kraus(2, 6, 3)}
        )
        config = {"hidden_dim": 2, "obs_dim": 3, "E_H": transition, "E_HO": emission,
                  "structure": ("conventional", "causal")[j % 2]}
        if j % 2:
            rho = _unit_norm(self.rng, 1, 2)[0]
            rho = rho @ rho.conj().T
            config["phi0"] = _matrix_json(rho / np.trace(rho).real)
        path = self.dir / f"model{j}.json"
        path.write_text(json.dumps(config))
        return path

    def _draw_word(
        self, n: int, identity_sites: bool
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """n seeded sites and the mask of those that are the identity on both slots."""
        xs, ys = _unit_norm(self.rng, n, 2), _unit_norm(self.rng, n, 3)
        identity = np.zeros(n, dtype=bool)
        if identity_sites:
            identity = self.rng.random(n) < 0.5
            identity[int(self.rng.integers(n))] = True  # at least one
            xs[identity] = np.eye(2)
            ys[identity] = np.eye(3)
        return xs, ys, identity

    def _write_word(
        self, name: str, xs: np.ndarray, ys: np.ndarray, whole_site: np.ndarray | None = None
    ) -> Path:
        """A word file; the sites in ``whole_site`` are written as the string "I"."""
        if whole_site is None:
            whole_site = np.zeros(len(xs), dtype=bool)
        items = [
            "I" if short else {"X": _matrix_json(x), "Y": _matrix_json(y)}
            for x, y, short in zip(xs, ys, whole_site)
        ]
        path = self.dir / f"{name}.json"
        path.write_text(json.dumps(items))
        return path

    def _new_word(self, name: str, n: int) -> tuple[Path, hqmm.ObservableWord]:
        xs, ys, _ = self._draw_word(n, False)
        return self._write_word(name, xs, ys), _word(xs, ys)

    def _elements(self, cyclic: bool) -> tuple[list[str], bool]:
        """A finite abelian rotation subgroup and whether its class is nontrivial."""
        if cyclic:
            axis = self.rng.standard_normal(3)
            axis /= np.linalg.norm(axis)
            k = int(self.rng.integers(2, 7))
            angles = [2 * np.pi * j / k for j in range(k)]
            axes = [axis] * k
            nontrivial = False
        else:
            frame = np.eye(3)[self.rng.permutation(3)] * self.rng.choice([-1.0, 1.0], size=(3, 1))
            axes = [frame[0], *frame]
            angles = [0.0, np.pi, np.pi, np.pi]
            nontrivial = True
        specs = [
            "--element=" + ",".join(repr(float(c)) for c in a) + f":{float(t)!r}"
            for a, t in zip(axes, angles)
        ]
        return specs, nontrivial

    # set-up ---------------------------------------------------------------

    def setup(self) -> None:
        for variant in CHAIN_LABELS:
            for structure in ("conventional", "causal"):
                aklt.build_model(variant, structure)
        aklt.build_model("paper-literal", "conventional")
        for path in self.configs:
            hqmm.load_model_config(str(path))

    def prepare(self) -> None:
        """Draw every call of the pool and fix its expected answer.

        Variants, structures and call kinds are fixed by the pool index,
        not drawn, so every seed runs the same mix of costs; the seed
        draws the values (labels, matrices, lengths, check seeds).
        """
        models = {}

        def chain(variant, structure):
            if (variant, structure) not in models:
                models[variant, structure] = aklt.build_model(variant, structure)
            return models[variant, structure]

        proj, identity, words, spelled, config_eval = [], [], [], [], []
        cocycles, cpu, verify_plain, verify_kraus, reports = [], [], [], [], []
        for j in range(POOL):
            variant = list(CHAIN_LABELS)[j % 2]
            structure = ("conventional", "causal")[(j // 2) % 2]
            model = chain(variant, structure)
            chain_args = ["--variant", variant, "--structure", structure, "--format", "json"]

            size = int(self.rng.integers(1, 6))
            labels = "".join(self.rng.choice(list(CHAIN_LABELS[variant]), size=size))
            word = aklt.projector_word(model, labels)
            proj.append(Call(["eval", "--word", f"proj:{labels}", *chain_args],
                             value=aklt.dense_word_value(model.triple, model.structure, word)))

            n = int(self.rng.integers(1, 65))
            identity.append(Call(["eval", "--word", f"allidentity:{n}", *chain_args], value=1.0))

            path, word = self._new_word(f"word{j}", int(self.rng.integers(1, 6)))
            words.append(Call(["eval", "--word", str(path), *chain_args],
                              value=aklt.dense_word_value(model.triple, model.structure, word)))

            # Identity sites spelled as identity matrices go in the loop; the
            # same word with those sites as whole-site "I" goes to the probe.
            xs, ys, ident = self._draw_word(int(self.rng.integers(2, 6)), True)
            value = aklt.dense_word_value(model.triple, model.structure, _word(xs, ys))
            path = self._write_word(f"spelled{j}", xs, ys)
            spelled.append(Call(["eval", "--word", str(path), *chain_args], value=value))
            path = self._write_word(f"holes{j}", xs, ys, ident)
            self.whole_site.append(Call(["eval", "--word", str(path), *chain_args], value=value))

            config = self.configs[j % len(self.configs)]
            triple, config_structure = hqmm.load_model_config(str(config))
            path, word = self._new_word(f"cword{j}", int(self.rng.integers(1, 6)))
            argv = ["eval", "--model", str(config), "--word", str(path), "--format", "json"]
            value = aklt.dense_word_value(triple, config_structure, word)
            config_eval.append(Call(argv, value=value))

            if j == 0:
                argv = ["cocycle", "--subgroup", "z2z2", "--format", "json"]
                cocycles.append(Call(argv, nontrivial=True))
            else:
                specs, nontrivial = self._elements(cyclic=j % 2 == 1)
                argv = ["cocycle", *specs, "--format", "json"]
                cocycles.append(Call(argv, nontrivial=nontrivial))

            seed = str(int(self.rng.integers(2**31)))
            cpu_variant = ("normalized-cartesian", "normalized-spherical", "paper-literal")[j % 3]
            cpu.append(Call(["verify", "--checks", "cpu,cocycle", "--variant", cpu_variant,
                             "--seed", seed, "--samples", "200", "--format", "json"],
                            conditions=["cpu_certification", "cocycle_identity"]))

            for pool, k in ((verify_plain, 2 * (j % 2)), (verify_kraus, 2 * (j % 2) + 1)):
                pool.append(Call(["verify", str(self.configs[k]), "--seed", seed, *CONFIG_DEPTH,
                                  "--format", "json"], conditions=CONFIG_CONDITIONS))

            report_variant = "paper-literal" if j % 2 else variant
            _, _, out, _ = call_cli([
                "verify", "--checks", "cpu,global,intertwining", "--n-max", "2",
                "--variant", report_variant, "--seed", seed, "--format", "json",
            ])
            stored = self.dir / f"report{j}.json"
            stored.write_text(out)
            fmt = ["--format", "json"] if j % 2 == 0 else []
            code = 0 if json.loads(out)["pass"] else 1
            reports.append(Call(["report", str(stored), *fmt], code=code, stored=out))

        # The config-model verifies are the slowest calls; two templates of
        # them (1 in 5 calls) keep the 90th percentile inside their cluster.
        self.templates = [proj, identity, words, spelled, config_eval, cocycles, cpu,
                          verify_plain, verify_kraus, reports]
        self.period = len(self.templates)

    # loop -----------------------------------------------------------------

    def step(self, i: int, tally: Tally) -> Sample:
        t = i % len(self.templates)
        call = self.templates[t][(i // len(self.templates)) % POOL]
        return Sample(t, self._call(call, tally))

    def probe(self, tally: Tally) -> str:
        """Each whole-site "I" word file once, untimed and outside ``attempted``.

        The README documents the form, but the word-file loader refuses it
        with exit 2.  The timed loop holds only calls the program is expected
        to complete, so these run here instead: the refusal stays visible in
        every run, and the probe shows when a fix lands.
        """
        for call in self.whole_site:
            self._call(call, tally)
        return 'eval on word files with whole-site "I" entries'

    def _call(self, call: Call, tally: Tally) -> float:
        """One CLI call, judged into ``tally``; returns its seconds (NaN if it raised)."""
        try:
            seconds, code, out, err = call_cli(call.argv)
        except Exception as exc:
            tally.record(WRONG, f"{' '.join(call.argv)}: {exc!r}")
            return float("nan")
        status = _exit_status(code, err, call.code)
        if status is not None:
            tally.record(status, f"{' '.join(call.argv)}: exit {code} {err.strip()[:200]}")
        else:
            problem = self._judge(call, out)
            tally.record(WRONG if problem else OK, f"{' '.join(call.argv)}: {problem}")
        return seconds

    @staticmethod
    def _judge(call: Call, out: str) -> str:
        if call.stored is not None and "--format" not in call.argv:
            verdict = "PASS" if call.code == 0 else "FAIL"
            checks = len(json.loads(call.stored)["checks"])
            lines = out.strip().splitlines()
            shown = sum(line.startswith(("[PASS]", "[FAIL]")) for line in lines)
            if lines[-1:] != [f"overall: {verdict}"] or shown != checks:
                return f"text report does not show {checks} checks and overall {verdict}"
            return ""
        try:
            payload = json.loads(out)
            if call.stored is not None:
                same = payload == json.loads(call.stored)
                return "" if same else "report differs from the stored one"
            if call.value is not None:
                got = complex(payload["value"]["re"], payload["value"]["im"])
                close = abs(got - call.value) <= DENSE_TOL
                return "" if close else f"value {got} expected {call.value}"
            if call.nontrivial is not None:
                ok = payload["nontrivial"] is call.nontrivial
                return "" if ok else f"nontrivial is not {call.nontrivial}"
            names = [c["condition"] for c in payload["checks"]]
            if names != call.conditions or payload["pass"] is not True:
                return f"checks {names} pass={payload['pass']}, expected {call.conditions} passing"
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            return f"unreadable output ({exc!r})"
        return ""

    @staticmethod
    def summarize(samples: list[Sample]) -> dict:
        seconds = [s.seconds for s in _completed(samples)]
        rate = len(seconds) / sum(seconds)
        p50, p90 = _percentile_ms(seconds, 50), _percentile_ms(seconds, 90)
        return {
            "op_p50_ms": p50,
            "op_tail_ms": p90,
            "work_per_s": rate,
            "aliases": {
                "cli_calls_per_s": (rate, "1/s"),
                "cli_call_p50_s": (p50 / 1e3, "s"),
                "cli_call_p90_s": (p90 / 1e3, "s"),
            },
            "samples": len(seconds),
            "median_ms_by_kind": _median_ms_by_key(samples),
        }


WORKLOADS = {w.name: w for w in (VerifySuite, WordEval, CliCalls)}
