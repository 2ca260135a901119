"""Command-line front end: verification suites, word evaluation, cocycle probes.

The verify subcommand assembles a model, makes one seeded draw of all
that the selected checks read, runs them and emits a machine-readable
report; running it twice with the same configuration produces
byte-identical JSON.  The eval subcommand
prints a single word value, folded as verify folds its words: one
sliced_coefficients call gives every site's transfer and fold_suffixes
folds them, the whole word being the last suffix.  cocycle analyzes a
finite abelian subgroup, and report re-renders a stored report file.

run is the only place that draws, once per run, through draw: one
standard_normal buffer from np.random.default_rng(seed), as long as the
furthest Gaussian any selected row reads (none for --checks cpu).  Each
row of CHECKS declares its slice of that stream as its Reads: Haar
rotations of 4 Gaussians each from Gaussian 0, the reps it stacks over
them, and random sites of 2 h^2 + 2 o^2 Gaussians each (26 for the
built-in model) from right after its rotations, Gaussian 4 * rotations:

    cocycle                 2 samples rotations, paired (g0, g1), (g2, g3), ...
    initial, transition     samples rotations, with pi
    emission, intertwining  samples rotations, with pi and rho
    sliced                  samples rotations, with pi and rho; one site per sample
    global                  global_samples rotations, with pi and rho; (n_max + 1)
                            global_samples sites, in blocks from the end of the words
    kolmogorov              (n_max - 1) global_samples sites (none for n_max <= 1),
                            in blocks from the end of the words
    oracle                  5 ceil(min(samples, 20) / 5) sites, word by word

Block j holds every word's j-th site from the end, so the words of a
shorter length are the first blocks of the same stream.  The oracle
sites are a prefix of the kolmogorov ones whenever those are as many.
A row's slice, and so its inputs, depend on the seed and its own counts
alone: --checks X alone prints X's rows of the full run byte for byte,
--n-max 2 prints the first three global rows of a deeper run, and
deviation k of a sampled row is its check on entry k of its inputs
alone.

Exit codes: 0 when everything passed, 1 when a check failed, 2 for
configuration or usage errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from dataclasses import dataclass, field, fields
from typing import Callable, NamedTuple

import numpy as np

from . import aklt
from .errors import ConfigError, SubgroupStructureError, config_float, config_int, load_json
from .grouprep import RotationElement, cocycle_defects, detect_nontrivial_class, haar_quaternions
from .hqmm import (
    CausalStructure,
    Model,
    ObservableWord,
    fold_suffixes,
    kolmogorov_check,
    load_model_config,
    load_word,
    sliced_coefficients,
    unit_sites,
)
# operator_norm is unused here but stays bound: bench/tests checks that the
# tracer in bench/tracing.py wraps and restores this module's binding.
from .opalg import operator_norm  # noqa: F401
from .symmetry import (
    CheckResult,
    check_emission_covariance,
    check_global_invariance,
    check_initial_invariance,
    check_sliced_covariance,
    check_result,
    check_transition_equivariance,
)

VARIANT_CHOICES = tuple(v.replace("_", "-") for v in aklt.VARIANTS)


def load_model(name: str, variant: str, structure: str | None) -> Model:
    """The built-in model when name is 'aklt', else the model config file at name.

    A structure given here replaces the file's own, or the built-in conventional.
    """
    if name == "aklt":
        return aklt.build_model(variant, structure or "conventional")
    triple, own = load_model_config(name)
    structure = CausalStructure.parse(own if structure is None else structure)
    info = {
        "name": "config",
        "path": name,
        "structure": structure.value,
        "hidden_dim": triple.hidden_dim,
        "obs_dim": triple.obs_dim,
    }
    return Model(triple, structure, info)


class Reads(NamedTuple):
    """A row's slice of the run's one Gaussian stream.

    The first rotations Haar rotations, four Gaussians each from the
    start of the stream, with the stacks of the reps named in reps
    ("pi" for pi(g_k), "rho" for rho(g_k)); and sites random sites,
    2 h^2 + 2 o^2 Gaussians each, from right after those rotations, at
    Gaussian 4 * rotations.
    """

    rotations: int = 0
    reps: tuple[str, ...] = ()
    sites: int = 0


class Draw(NamedTuple):
    """A verify run's one draw, decoded once for every selected row.

    q holds the longest prefix of Haar rotations any row reads, and reps
    maps "pi" and "rho" to their stacks, each over the longest prefix a
    row naming that rep reads (absent when no row names it).  windows
    maps the rotation count of each row that reads sites to the sites
    (xs, ys) decoded from right after those rotations, as many as the
    row reading most of them.  dims is the triple's (h, o).
    """

    q: np.ndarray
    reps: dict[str, np.ndarray]
    windows: dict[int, tuple[np.ndarray, np.ndarray]]
    dims: tuple[int, int]

    def stacks(self, r: Reads) -> tuple[np.ndarray, ...]:
        """The stacks of the reps r names, over the rotations r reads, in r's order."""
        return tuple(self.reps[name][: r.rotations] for name in r.reps)

    def sites(self, r: Reads) -> tuple[np.ndarray, np.ndarray]:
        """The sites r reads, as stacks xs[r.sites, h, h] and ys[r.sites, o, o]."""
        if r.sites == 0:
            return tuple(np.empty((0, d, d), dtype=complex) for d in self.dims)
        xs, ys = self.windows[r.rotations]
        return xs[: r.sites], ys[: r.sites]


def draw(m: Model, c: RunConfig, checks) -> Draw:
    """The one draw of a run of the named checks, the only draw of a verify run.

    One standard_normal buffer from np.random.default_rng(c.seed), as
    long as the furthest Gaussian any row reads, and none when no row
    reads one.  The rotations are decoded once by haar_quaternions, and
    pi and rho each stacked once, over the longest prefix a row naming
    it reads.  Every window of sites goes through one unit_sites call,
    so each site size has one operator_norms call.  Every step is per
    row of Gaussians, so an input's bits do not depend on which rows
    run.
    """
    h, o = m.triple.hidden_dim, m.triple.obs_dim
    width = 2 * (h * h + o * o)
    reads = [CHECKS[name].reads(c) for name in checks]
    rotations = max([r.rotations for r in reads], default=0)
    # each window of sites starts right after its row's rotations
    windows: dict[int, int] = {}
    for r in reads:
        if r.sites:
            windows[r.rotations] = max(windows.get(r.rotations, 0), r.sites)
    size = max([4 * rotations, *(4 * k + n * width for k, n in windows.items())])
    g = np.random.default_rng(c.seed).standard_normal(size) if size else np.empty(0)
    q = np.empty((0, 4))
    if rotations:
        q = haar_quaternions(g[: 4 * rotations].reshape(rotations, 4))
    reps = {}
    for name in ("pi", "rho"):
        count = max([r.rotations for r in reads if name in r.reps], default=0)
        if count:
            reps[name] = getattr(m.action, name).stack(q[:count])
    decoded = {}
    if windows:
        rows = [g[4 * k : 4 * k + n * width].reshape(n, width) for k, n in windows.items()]
        xs, ys = unit_sites(m.triple, np.concatenate(rows))
        cuts = np.cumsum(list(windows.values()))[:-1]
        decoded = dict(zip(windows, zip(np.split(xs, cuts), np.split(ys, cuts))))
    return Draw(q, reps, decoded, (h, o))


def _words(xs: np.ndarray, ys: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """count words from sites laid out in blocks from the end of the words.

    Block j holds every word's j-th site from the end, so the words of a
    shorter length are the first blocks, whatever the longest length.
    """
    h, o = xs.shape[-1], ys.shape[-1]
    xs, ys = xs.reshape(-1, count, h, h), ys.reshape(-1, count, o, o)
    return xs[::-1].swapaxes(0, 1), ys[::-1].swapaxes(0, 1)


@dataclass(frozen=True)
class Check:
    """One verify row; needs_action marks those config-file models cannot run.

    reads(c) is the row's slice of the run's Gaussian stream,
    from_draw(d, r, c) shapes that slice of the run's Draw d, with
    r = reads(c), into the row's inputs, and results(m, c, tol, inputs)
    makes the row's verdicts from them.
    """

    needs_action: bool
    tolerance: float
    results: Callable[[Model, RunConfig, float, tuple], list[CheckResult]]
    reads: Callable[[RunConfig], Reads] = lambda c: Reads()
    from_draw: Callable[[Draw, Reads, RunConfig], tuple] = lambda d, r, c: ()

    def inputs(self, d: Draw, c: RunConfig) -> tuple:
        """The row's inputs, read off the run's draw d."""
        return self.from_draw(d, self.reads(c), c)


def _check_cpu(m: Model, c: RunConfig, tol: float, inputs: tuple) -> list[CheckResult]:
    # the one verdict on a triple: every defect within this row's tolerance
    deviations = list(m.triple.defects().values())
    return [check_result("cpu_certification", 0, c.seed, deviations, tol)]


def _check_cocycle(m: Model, c: RunConfig, tol: float, inputs: tuple) -> list[CheckResult]:
    omega, deviations = cocycle_defects(m.action.pi, *inputs)
    # the section cocycle takes the values +1 and -1 exactly; a pair whose
    # omega is any other value has no finite deviation, and fails
    deviations = np.where((omega == 1.0) | (omega == -1.0), deviations, np.nan)
    return [check_result("cocycle_identity", c.samples, c.seed, deviations, tol)]


def _sampled(tolerance: float, condition: str, reps: tuple, deviations_of: Callable) -> Check:
    """A row over the run's first samples rotations.

    deviations_of(m, *stacks) gives one deviation per sample from the
    stacks of the reps named, u[k] = pi(g_k) for "pi" and r[k] = rho(g_k)
    for "rho", in that order.
    """

    def results(m: Model, c: RunConfig, tol: float, inputs: tuple):
        return [check_result(condition, c.samples, c.seed, deviations_of(m, *inputs), tol)]

    return Check(
        True, tolerance, results,
        reads=lambda c: Reads(c.samples, reps),
        from_draw=lambda d, r, c: d.stacks(r),
    )


def _check_sliced(m: Model, c: RunConfig, tol: float, inputs: tuple) -> list[CheckResult]:
    deviations = check_sliced_covariance(m.triple, m.structure, *inputs)
    return [check_result("sliced_covariance", c.samples, c.seed, deviations, tol)]


def _check_global(m: Model, c: RunConfig, tol: float, inputs: tuple) -> list[CheckResult]:
    by_volume = check_global_invariance(m.triple, m.structure, *inputs)
    return [
        check_result(f"global_invariance[n={n}]", c.global_samples, c.seed, deviations, tol)
        for n, deviations in enumerate(by_volume)
    ]


def _check_kolmogorov(m: Model, c: RunConfig, tol: float, inputs: tuple) -> list[CheckResult]:
    deviations = kolmogorov_check(m.triple, m.structure, *inputs)
    # one word per deviation: 1 + (n_max - 1) * (global_samples + 1) of them
    return [check_result("kolmogorov_consistency", len(deviations), c.seed, deviations, tol)]


def _oracle_deviations(m: Model, xs: np.ndarray, ys: np.ndarray, count: int) -> np.ndarray:
    """Deviation i: the last 1 + i % 5 sites of word i // 5, folded against the dense referee.

    The words xs[W, 5, h, h], ys[W, 5, o, o] are ceil(count / 5) words
    of 5 sites.  One sliced_coefficients call gives every site's
    transfer and one fold_suffixes call folds the words, each suffix's
    value with the bits of that suffix folded alone.  The referee takes
    every suffix of the whole words and, of a last word in part, the
    suffixes of its last count % 5 sites, the ones the row keeps:
    dense_suffix_values gives each value the bits of its suffix alone.
    """
    whole, rest = divmod(count, 5)
    h, o = m.triple.hidden_dim, m.triple.obs_dim
    sites = (xs.reshape(-1, h, h), ys.reshape(-1, o, o))
    transfers = sliced_coefficients(m.triple, m.structure, *sites)
    folded = fold_suffixes(m.triple, transfers.reshape(len(xs), 5, h * h, h * h))
    spans = [(xs[:whole], ys[:whole]), (xs[whole:, 5 - rest :], ys[whole:, 5 - rest :])]
    referee = [
        aklt.dense_suffix_values(m.triple, m.structure, x, y).reshape(-1) for x, y in spans if x.size
    ]
    return np.abs(folded.reshape(-1)[:count] - np.concatenate(referee))


def _check_oracle(m: Model, c: RunConfig, tol: float, inputs: tuple) -> list[CheckResult]:
    deviations = _oracle_deviations(m, *inputs, min(c.samples, 20))
    return [check_result("oracle_agreement", len(deviations), c.seed, deviations, tol)]


# The verify checks in report order.  Each row is the one place its check's
# deviations meet a tolerance.  Rows share only the run's one draw, and
# their reads are the one table of what each reads of it.  A row's reads
# depend on the seed and its own counts alone, so its inputs do too,
# whichever other rows are selected.
CHECKS = {
    "cpu": Check(False, 1e-10, _check_cpu),
    "cocycle": Check(
        True, 1e-10, _check_cocycle,
        # each sample is a pair (g, h) of successive rotations
        reads=lambda c: Reads(rotations=2 * c.samples),
        from_draw=lambda d, r, c: (d.q[0 : r.rotations : 2], d.q[1 : r.rotations : 2]),
    ),
    "initial": _sampled(1e-10, "initial_invariance", ("pi",), lambda m, u: (
        check_initial_invariance(m.triple.phi0, u)
    )),
    "transition": _sampled(1e-10, "transition_equivariance", ("pi",), lambda m, u: (
        check_transition_equivariance(m.triple.transition, u)
    )),
    "emission": _sampled(1e-10, "emission_covariance", ("pi", "rho"), lambda m, u, r: (
        check_emission_covariance(m.triple.emission, u, r)
    )),
    "sliced": Check(
        True, 1e-10, _check_sliced,
        # the sampled rows' rotations, and one site per sample after them
        reads=lambda c: Reads(c.samples, ("pi", "rho"), c.samples),
        from_draw=lambda d, r, c: (*d.stacks(r), *d.sites(r)),
    ),
    "global": Check(
        True, 1e-9, _check_global,
        # one word of n_max + 1 sites per sample, in blocks from the end
        reads=lambda c: Reads(c.global_samples, ("pi", "rho"), (c.n_max + 1) * c.global_samples),
        from_draw=lambda d, r, c: (*d.stacks(r), *_words(*d.sites(r), c.global_samples)),
    ),
    "kolmogorov": Check(
        False, 1e-10, _check_kolmogorov,
        # one word of n_max - 1 sites per sample, in blocks from the end
        reads=lambda c: Reads(sites=max(c.n_max - 1, 0) * c.global_samples),
        from_draw=lambda d, r, c: _words(*d.sites(r), c.global_samples),
    ),
    "intertwining": _sampled(1e-10, "tensor_intertwining", ("pi", "rho"), lambda m, u, r: (
        aklt.verify_intertwining(m.tensors, u, r)
    )),
    "oracle": Check(
        False, 1e-10, _check_oracle,
        # words of 5 sites, word by word: a prefix of kolmogorov's sites
        reads=lambda c: Reads(sites=5 * math.ceil(min(c.samples, 20) / 5)),
        from_draw=lambda d, r, c: tuple(s.reshape(-1, 5, *s.shape[1:]) for s in d.sites(r)),
    ),
}
CHECK_NAMES = tuple(CHECKS)


def default_tolerances() -> dict[str, float]:
    return {name: check.tolerance for name, check in CHECKS.items()}


def _ordered_checks(names) -> tuple[str, ...]:
    for name in names:
        if name not in CHECKS:
            raise ConfigError(f"unknown check {name!r}; expected one of {', '.join(CHECK_NAMES)}")
    return tuple(sorted(set(names), key=CHECK_NAMES.index))


@dataclass(frozen=True)
class RunConfig:
    """Everything a verification run depends on, JSON round-trippable."""

    model: str = "aklt"
    variant: str = "normalized_cartesian"
    structure: str | None = None
    checks: tuple[str, ...] = ()
    seed: int = 42
    samples: int = 200
    global_samples: int = 50
    n_max: int = 6
    tolerances: dict[str, float] = field(default_factory=default_tolerances)

    def __post_init__(self):
        for name in ("seed", "samples", "global_samples", "n_max"):
            object.__setattr__(self, name, config_int(name, getattr(self, name)))
        # a run that samples nothing, or compares against a meaningless
        # tolerance, would pass vacuously
        for name in ("samples", "global_samples"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1, got {getattr(self, name)}")
        # numpy takes no negative seed, and a negative depth checks nothing
        for name in ("seed", "n_max"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be nonnegative, got {getattr(self, name)}")
        if not isinstance(self.tolerances, dict):
            raise ConfigError(f"tolerances must be an object, got {self.tolerances!r}")
        # a check without a given tolerance keeps its default
        tolerances = default_tolerances()
        for name, value in self.tolerances.items():
            if name not in CHECKS:
                raise ConfigError(f"unknown tolerance key {name!r}")
            value = config_float(f"tolerance {name!r}", value)
            if not (math.isfinite(value) and value >= 0):
                raise ConfigError(
                    f"tolerance for {name!r} must be finite and nonnegative, got {value}"
                )
            tolerances[name] = value
        object.__setattr__(self, "tolerances", tolerances)

    def to_json_dict(self) -> dict:
        """Every field in declaration order; checks as a list, tolerances in check order."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["checks"] = list(self.checks)
        out["tolerances"] = {name: self.tolerances[name] for name in CHECK_NAMES}
        return out

    @classmethod
    def from_json_dict(cls, obj: dict) -> "RunConfig":
        """The config from a JSON object; a field it does not name keeps its default."""
        given = {f.name: obj[f.name] for f in fields(cls) if f.name in obj}
        if "checks" in given:
            # a string would be read letter by letter
            if not isinstance(given["checks"], list):
                raise ConfigError(f"checks must be a list of check names, got {given['checks']!r}")
            given["checks"] = _ordered_checks(given["checks"])
        if "model" in given:
            given["model"] = str(given["model"])
        if "variant" in given:
            given["variant"] = str(given["variant"]).replace("-", "_")
        return cls(**given)


def run(config: RunConfig) -> dict:
    """Execute the configured checks and return the full report dict."""
    m = load_model(config.model, config.variant, config.structure)
    allowed = tuple(
        name for name, check in CHECKS.items() if m.action is not None or not check.needs_action
    )
    checks = _ordered_checks(config.checks) if config.checks else allowed
    for name in checks:
        if name not in allowed:
            raise ConfigError(
                f"check {name!r} needs the builtin model; config-file models support "
                + ", ".join(allowed)
            )
    # the run's one draw, of what the selected rows read
    d = draw(m, config, checks)
    results = []
    for name in checks:
        check = CHECKS[name]
        results += check.results(m, config, config.tolerances[name], check.inputs(d, config))
    return {
        "config": config.to_json_dict(),
        "model": m.info,
        "checks": [r.to_json_dict() for r in results],
        "pass": all(r.passed for r in results),
    }


def render_report_text(report: dict) -> str:
    info = report["model"]
    head = f"model: {info.get('name', '?')}"
    if "variant" in info:
        head += f" variant={info['variant']}"
    if "path" in info:
        head += f" path={info['path']}"
    head += f" structure={info.get('structure', '?')}"
    lines = [head]
    for check in report["checks"]:
        status = "PASS" if check["pass"] else "FAIL"
        # a non-finite deviation is stored as null
        deviation = check["max_deviation"]
        deviation = "nan" if deviation is None else f"{deviation:.3e}"
        lines.append(
            f"[{status}] {check['condition']:<32} "
            f"max_deviation={deviation} tolerance={check['tolerance']:.1e}"
        )
    lines.append("overall: " + ("PASS" if report["pass"] else "FAIL"))
    return "\n".join(lines)


def _emit(payload: dict, fmt: str, text: str) -> None:
    """Print the payload as JSON, or the text; a reader that has closed the pipe is let go.

    On a closed pipe stdout is pointed at os.devnull, so that the flush
    at exit cannot raise again, and the command still returns its code.
    """
    # JSON has no NaN or Infinity; a non-finite number here is a bug
    out = json.dumps(payload, indent=2, allow_nan=False) if fmt == "json" else text
    try:
        print(out)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _config_from_args(args) -> RunConfig:
    tolerances = {name: getattr(args, f"tol_{name}") for name in CHECK_NAMES}
    # a count not given on the command line keeps the RunConfig default
    counts = {name: getattr(args, name) for name in ("seed", "samples", "global_samples", "n_max")}
    return RunConfig.from_json_dict(
        {
            "model": args.model,
            "variant": args.variant,
            "structure": args.structure,
            "checks": [s.strip() for s in (args.checks or "").split(",") if s.strip()],
            **{name: value for name, value in counts.items() if value is not None},
            "tolerances": {name: tol for name, tol in tolerances.items() if tol is not None},
        }
    )


def _cmd_verify(args) -> int:
    config = _config_from_args(args)
    report = run(config)
    _emit(report, args.format, render_report_text(report))
    return 0 if report["pass"] else 1


def _parse_word_spec(spec: str, m: Model) -> ObservableWord:
    h, o = m.triple.hidden_dim, m.triple.obs_dim
    if spec.startswith("allidentity:"):
        try:
            n = int(spec.split(":", 1)[1])
        except ValueError:
            raise ConfigError(f"bad word spec {spec!r}; expected allidentity:<sites>") from None
        if n < 1:
            raise ConfigError("allidentity words need at least one site")
        return ObservableWord.all_identity(n, h, o)
    if spec.startswith("proj:"):
        if m.tensors is None:
            raise ConfigError("projector words are defined by the builtin model's labels")
        return aklt.projector_word(m, spec.split(":", 1)[1])
    return load_word(spec, h, o)


def _cmd_eval(args) -> int:
    m = load_model(args.model, args.variant, args.structure)
    word = _parse_word_spec(args.word, m)
    word.check_dims(m.triple)
    # a word whose products overflow folds to inf or nan, reported below as
    # null with exit 1; numpy's warnings on the way would only repeat that
    with np.errstate(over="ignore", invalid="ignore"):
        transfers = sliced_coefficients(m.triple, m.structure, word.xs, word.ys)
        value = complex(fold_suffixes(m.triple, transfers)[-1])
    parts = {"re": value.real, "im": value.imag}
    payload = {
        "model": args.model,
        "structure": m.structure.value,
        "word": args.word,
        "sites": len(word),
        # as in verify reports, a non-finite number is written as null
        "value": {k: v if math.isfinite(v) else None for k, v in parts.items()},
    }
    sign = "-" if value.imag < 0 else "+"
    imag = f"{abs(value.imag):.12g}"
    # "nan" or "inf" glued to the i would read as one word
    if not math.isfinite(value.imag):
        imag += " "
    text = f"value = {value.real:.12g} {sign} {imag}i ({len(word)} sites, {m.structure.value})"
    _emit(payload, args.format, text)
    # a non-finite value fails, as a nan deviation does in verify
    return 1 if None in payload["value"].values() else 0


def _parse_element(spec: str) -> RotationElement:
    try:
        axis_part, angle_part = spec.split(":", 1)
        axis = tuple(float(s) for s in axis_part.split(","))
        angle = float(angle_part)
        if len(axis) != 3:
            raise ValueError
        return RotationElement.from_axis_angle(axis, angle)
    except ValueError:
        raise ConfigError(f"bad element spec {spec!r}; expected ax,ay,az:theta") from None


def _z2z2_elements() -> list[RotationElement]:
    return [
        RotationElement.identity(),
        RotationElement.from_axis_angle((1.0, 0.0, 0.0), np.pi),
        RotationElement.from_axis_angle((0.0, 1.0, 0.0), np.pi),
        RotationElement.from_axis_angle((0.0, 0.0, 1.0), np.pi),
    ]


def _cmd_cocycle(args) -> int:
    if args.subgroup is not None and args.element:
        raise ConfigError("give --subgroup or --element entries, not both")
    if args.subgroup is not None:
        elements = _z2z2_elements()
    elif args.element:
        if len(args.element) < 2:
            raise ConfigError("need at least two --element entries")
        elements = [_parse_element(s) for s in args.element]
    else:
        raise ConfigError("give --subgroup z2z2 or repeat --element ax,ay,az:theta")
    report = detect_nontrivial_class(elements)
    table = [
        [{"re": float(v.real), "im": float(v.imag)} for v in row]
        for row in np.asarray(report.pairing_table)
    ]
    payload = {
        "elements": [e.to_json_dict() for e in elements],
        "nontrivial": report.nontrivial,
        "witness": None
        if report.witness is None
        else [report.witness[0].to_json_dict(), report.witness[1].to_json_dict()],
        "pairing_table": table,
    }
    lines = [f"elements: {len(elements)}", f"nontrivial class: {report.nontrivial}"]
    for row in np.asarray(report.pairing_table):
        # omega is the section's sign, so every entry is +1 or -1 exactly
        lines.append("  ".join(f"{v.real:+.0f}" for v in row))
    _emit(payload, args.format, "\n".join(lines))
    return 0


def _check_report_shape(report, path: str) -> None:
    """Refuse a stored report that render_report_text or the exit code would misread."""
    checks = report.get("checks") if isinstance(report, dict) else None
    # verify never writes an empty check list, and one would pass vacuously
    if not (
        isinstance(checks, list)
        and checks
        and isinstance(report.get("model"), dict)
        and all(
            isinstance(c, dict)
            and isinstance(c.get("condition"), str)
            and (
                type(c.get("max_deviation")) in (int, float)
                # null stands for a non-finite deviation, which fails its check
                or ("max_deviation" in c and c["max_deviation"] is None and c["pass"] is False)
            )
            and type(c.get("tolerance")) in (int, float)
            and isinstance(c.get("pass"), bool)
            # check_result passes exactly at max_deviation <= tolerance; a
            # stored fail within its tolerance is still read, as earlier
            # versions failed an inexact cocycle pair that way
            and (c["pass"] is False or c["max_deviation"] <= c["tolerance"])
            for c in checks
        )
        and report.get("pass") is all(c["pass"] for c in checks)
    ):
        raise ConfigError(
            f"report {path} is not a verification report: it needs a 'model' object, a "
            "nonempty 'checks' list whose entries have a string 'condition', numbers "
            "'max_deviation' (or null on a failed check) and 'tolerance' and a boolean 'pass' "
            "that is false when max_deviation exceeds tolerance, and an overall 'pass' that "
            "is true exactly when every check passed"
        )
    # verify never writes NaN or Infinity, so a report holding one, say a nan
    # max_deviation beside "pass": true, has been edited
    try:
        json.dumps(report, allow_nan=False)
    except ValueError:
        raise ConfigError(f"report {path} holds a non-finite number") from None


def _cmd_report(args) -> int:
    report = load_json(args.path, "report")
    _check_report_shape(report, args.path)
    _emit(report, args.format, render_report_text(report))
    return 0 if report["pass"] else 1


# Built on the first call and reused for the rest of the process: parsing
# mutates only the namespace it returns, never the parser or its defaults.
# Only callers that run main several times in one process save anything;
# the console script calls it once per process and builds one parser.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hqmmsym",
        description="verify and evaluate hidden models with rotational symmetry",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model_options(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--variant",
            choices=VARIANT_CHOICES,
            default="normalized-cartesian",
            help="tensor variant for the builtin model",
        )
        p.add_argument(
            "--structure",
            choices=("conventional", "causal"),
            default=None,
            help="causal structure (default: conventional, or the config file's)",
        )
        p.add_argument("--format", choices=("json", "text"), default="json")

    verify = sub.add_parser("verify", help="run a suite of named checks")
    verify.add_argument(
        "model",
        nargs="?",
        default="aklt",
        help="'aklt' for the builtin model or a path to a model config JSON",
    )
    add_model_options(verify)
    verify.add_argument("--seed", type=int)
    verify.add_argument("--samples", type=int)
    verify.add_argument("--global-samples", type=int, dest="global_samples")
    verify.add_argument("--n-max", type=int, dest="n_max")
    verify.add_argument(
        "--checks",
        default=None,
        help="comma-separated subset of: " + ", ".join(CHECK_NAMES),
    )
    for name in CHECK_NAMES:
        verify.add_argument(
            f"--tol-{name}", type=float, default=None, dest=f"tol_{name}",
            help=argparse.SUPPRESS,
        )

    evaluate = sub.add_parser("eval", help="evaluate one observable word")
    evaluate.add_argument("--model", default="aklt")
    add_model_options(evaluate)
    evaluate.add_argument(
        "--word",
        required=True,
        help="path to a word JSON, or allidentity:<sites>, or proj:<labels>",
    )

    cocycle = sub.add_parser("cocycle", help="analyze a finite abelian subgroup")
    cocycle.add_argument("--subgroup", choices=("z2z2",), default=None)
    cocycle.add_argument(
        "--element",
        action="append",
        default=[],
        help="repeatable rotation spec ax,ay,az:theta",
    )
    cocycle.add_argument("--format", choices=("json", "text"), default="json")

    report = sub.add_parser("report", help="re-render a stored report")
    report.add_argument("path")
    report.add_argument("--format", choices=("json", "text"), default="text")
    return parser


_COMMANDS = {
    "verify": _cmd_verify,
    "eval": _cmd_eval,
    "cocycle": _cmd_cocycle,
    "report": _cmd_report,
}


def _join_element_values(argv: list[str]) -> list[str]:
    """Write '--element SPEC' as '--element=SPEC' when SPEC starts with a minus.

    argparse would read such a SPEC, say -0.6,0,0.8:3.14, as an option.
    """
    out = []
    for arg in argv:
        if out and out[-1] == "--element" and re.match(r"-[0-9.]", arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(_join_element_values(sys.argv[1:] if argv is None else list(argv)))
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, SubgroupStructureError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
