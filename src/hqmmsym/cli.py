"""Command-line front end: verification suites, word evaluation, cocycle probes.

The verify subcommand assembles a model, runs a configurable list of
named checks and emits a machine-readable report; running it twice with
the same configuration produces byte-identical JSON.  The eval subcommand
prints a single word value, cocycle analyzes a finite abelian subgroup,
and report re-renders a stored report file.

Exit codes: 0 when everything passed, 1 when a check failed, 2 for
configuration or usage errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import aklt
from .errors import ConfigError, SubgroupStructureError
from .grouprep import RotationElement, detect_nontrivial_class, haar_rotations
from .hqmm import (
    CausalStructure,
    GenerativeTriple,
    ObservableWord,
    finite_volume_state,
    kolmogorov_check,
    load_model_config,
    load_word,
    random_word,
)
from .opalg import operator_norm, worst_deviation
from .sampling import rng_from
from .symmetry import (
    CheckResult,
    check_emission_covariance,
    check_global_invariance,
    check_initial_invariance,
    check_sliced_covariance,
    check_transition_equivariance,
)

CHECK_NAMES = (
    "cpu",
    "cocycle",
    "initial",
    "transition",
    "emission",
    "sliced",
    "global",
    "kolmogorov",
    "intertwining",
    "oracle",
)

# checks that need only a bare triple, available for config-file models
TRIPLE_CHECKS = ("cpu", "kolmogorov", "oracle")

VARIANT_CHOICES = ("normalized-cartesian", "normalized-spherical", "paper-literal")


def default_tolerances() -> dict[str, float]:
    return {name: (1e-9 if name == "global" else 1e-10) for name in CHECK_NAMES}


def _ordered_checks(names) -> tuple[str, ...]:
    for name in names:
        if name not in CHECK_NAMES:
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
        # a run that samples nothing, or compares against a meaningless
        # tolerance, would pass vacuously
        for name in ("samples", "global_samples"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.n_max < 0:
            raise ConfigError(f"n_max must be nonnegative, got {self.n_max}")
        for name, value in self.tolerances.items():
            if not (math.isfinite(value) and value >= 0):
                raise ConfigError(
                    f"tolerance for {name!r} must be finite and nonnegative, got {value}"
                )

    def to_json_dict(self) -> dict:
        return {
            "model": self.model,
            "variant": self.variant,
            "structure": self.structure,
            "checks": list(self.checks),
            "seed": self.seed,
            "samples": self.samples,
            "global_samples": self.global_samples,
            "n_max": self.n_max,
            "tolerances": {name: self.tolerances[name] for name in CHECK_NAMES},
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "RunConfig":
        tolerances = default_tolerances()
        for name, value in dict(obj.get("tolerances", {})).items():
            if name not in CHECK_NAMES:
                raise ConfigError(f"unknown tolerance key {name!r}")
            tolerances[name] = float(value)
        return cls(
            model=str(obj.get("model", "aklt")),
            variant=str(obj.get("variant", "normalized_cartesian")).replace("-", "_"),
            structure=obj.get("structure"),
            checks=_ordered_checks(obj.get("checks", [])),
            seed=int(obj.get("seed", 42)),
            samples=int(obj.get("samples", 200)),
            global_samples=int(obj.get("global_samples", 50)),
            n_max=int(obj.get("n_max", 6)),
            tolerances=tolerances,
        )


def _check_cpu(config: RunConfig, tol: float, triple: GenerativeTriple) -> list[CheckResult]:
    deviations = []
    ok = True
    for cert in triple.certificates(tol).values():
        deviations += [
            cert.choi_defect,
            cert.unitality_deviation,
            np.maximum(0.0, -cert.min_eigenvalue),
        ]
        ok = ok and cert.cp and cert.unital
    worst = worst_deviation(deviations)
    return [CheckResult("cpu_certification", 0, config.seed, worst, tol, ok)]


def _check_cocycle(config: RunConfig, tol: float, model: aklt.AkltModel) -> list[CheckResult]:
    rng = rng_from(config.seed)
    pi = model.action.pi
    deviations = []
    exact = True
    for _ in range(config.samples):
        g, h = haar_rotations(rng, 2)
        omega = complex(pi.cocycle.evaluate(g, h))
        exact = exact and omega in (1.0 + 0.0j, -1.0 + 0.0j)
        u_g = pi.evaluate(g).entries
        u_h = pi.evaluate(h).entries
        u_gh = pi.evaluate(g.compose(h)).entries
        deviations.append(operator_norm(u_g @ u_h - omega * u_gh))
    worst = worst_deviation(deviations)
    passed = exact and worst <= tol
    return [CheckResult("cocycle_identity", config.samples, config.seed, worst, tol, passed)]


def _check_oracle(
    config: RunConfig, tol: float, triple: GenerativeTriple, structure: CausalStructure
) -> list[CheckResult]:
    rng = rng_from(config.seed)
    count = min(config.samples, 20)
    deviations = []
    for i in range(count):
        word = random_word(rng, triple, 1 + i % 5)
        folded = finite_volume_state(triple, structure, word)
        dense = aklt.dense_word_value(triple, structure, word)
        deviations.append(abs(folded - dense))
    worst = worst_deviation(deviations)
    return [CheckResult("oracle_agreement", count, config.seed, worst, tol, worst <= tol)]


def run(config: RunConfig) -> dict:
    """Execute the configured checks and return the full report dict."""
    if config.model == "aklt":
        structure = CausalStructure.parse(config.structure or "conventional")
        model = aklt.build_model(config.variant, structure)
        triple = model.triple
        allowed = CHECK_NAMES
        model_info = {"name": "aklt", "structure": structure.value, **model.metadata}
    else:
        triple, structure = load_model_config(config.model)
        if config.structure is not None:
            structure = CausalStructure.parse(config.structure)
        model = None
        allowed = TRIPLE_CHECKS
        model_info = {
            "name": "config",
            "path": config.model,
            "structure": structure.value,
            "hidden_dim": triple.hidden_dim,
            "obs_dim": triple.obs_dim,
        }
    checks = _ordered_checks(config.checks) if config.checks else allowed
    for name in checks:
        if name not in allowed:
            raise ConfigError(
                f"check {name!r} needs the builtin model; config-file models support "
                + ", ".join(TRIPLE_CHECKS)
            )
    tol = config.tolerances
    results: list[CheckResult] = []
    for name in checks:
        if name == "cpu":
            results.extend(_check_cpu(config, tol[name], triple))
        elif name == "cocycle":
            results.extend(_check_cocycle(config, tol[name], model))
        elif name == "initial":
            results.append(
                check_initial_invariance(
                    triple.phi0, model.action, config.samples, config.seed, tol[name]
                )
            )
        elif name == "transition":
            results.append(
                check_transition_equivariance(
                    triple.transition, model.action, config.samples, config.seed, tol[name]
                )
            )
        elif name == "emission":
            results.append(
                check_emission_covariance(
                    triple.emission, model.action, config.samples, config.seed, tol[name]
                )
            )
        elif name == "sliced":
            results.append(
                check_sliced_covariance(
                    triple, structure, model.action, config.samples, config.seed, tol[name]
                )
            )
        elif name == "global":
            by_volume = check_global_invariance(
                triple,
                structure,
                model.action,
                config.n_max,
                config.global_samples,
                config.seed,
                tol[name],
            )
            results.extend(by_volume[n] for n in sorted(by_volume))
        elif name == "kolmogorov":
            dev = kolmogorov_check(
                triple, structure, depth=config.n_max, samples=config.global_samples,
                seed=config.seed,
            )
            results.append(
                CheckResult(
                    "kolmogorov_consistency",
                    config.global_samples,
                    config.seed,
                    dev,
                    tol[name],
                    dev <= tol[name],
                )
            )
        elif name == "intertwining":
            report = aklt.verify_intertwining(
                model.tensors, model.action.pi, model.action.rho, config.samples, config.seed
            )
            results.append(
                CheckResult(
                    f"tensor_intertwining[{report.convention}]",
                    config.samples,
                    config.seed,
                    report.residual,
                    tol[name],
                    report.residual <= tol[name],
                )
            )
        elif name == "oracle":
            results.extend(_check_oracle(config, tol[name], triple, structure))
    return {
        "config": config.to_json_dict(),
        "model": model_info,
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
    for warning in info.get("warnings", []):
        lines.append(f"warning: {warning}")
    for check in report["checks"]:
        status = "PASS" if check["pass"] else "FAIL"
        lines.append(
            f"[{status}] {check['condition']:<32} "
            f"max_deviation={check['max_deviation']:.3e} tolerance={check['tolerance']:.1e}"
        )
    lines.append("overall: " + ("PASS" if report["pass"] else "FAIL"))
    return "\n".join(lines)


def _emit(payload: dict, fmt: str, text: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(text)


def _config_from_args(args) -> RunConfig:
    tolerances = default_tolerances()
    for name in CHECK_NAMES:
        value = getattr(args, f"tol_{name}")
        if value is not None:
            tolerances[name] = value
    checks: tuple[str, ...] = ()
    if args.checks:
        parts = [s.strip() for s in args.checks.split(",") if s.strip()]
        checks = _ordered_checks(parts)
    return RunConfig(
        model=args.model,
        variant=args.variant.replace("-", "_"),
        structure=args.structure,
        checks=checks,
        seed=args.seed,
        samples=args.samples,
        global_samples=args.global_samples,
        n_max=args.n_max,
        tolerances=tolerances,
    )


def _cmd_verify(args) -> int:
    config = _config_from_args(args)
    report = run(config)
    _emit(report, args.format, render_report_text(report))
    return 0 if report["pass"] else 1


def _parse_word_spec(spec: str, triple: GenerativeTriple, model) -> ObservableWord:
    if spec.startswith("allidentity:"):
        try:
            n = int(spec.split(":", 1)[1])
        except ValueError:
            raise ConfigError(f"bad word spec {spec!r}; expected allidentity:<sites>") from None
        if n < 1:
            raise ConfigError("allidentity words need at least one site")
        return ObservableWord.all_identity(n, triple.hidden_dim, triple.obs_dim)
    if spec.startswith("proj:"):
        if model is None:
            raise ConfigError("projector words are defined by the builtin model's labels")
        return aklt.projector_word(model, spec.split(":", 1)[1])
    return load_word(spec, triple.hidden_dim, triple.obs_dim)


def _cmd_eval(args) -> int:
    if args.model == "aklt":
        model = aklt.build_model(
            args.variant.replace("-", "_"), args.structure or "conventional"
        )
        triple = model.triple
        structure = model.structure
    else:
        triple, structure = load_model_config(args.model)
        if args.structure is not None:
            structure = CausalStructure.parse(args.structure)
        model = None
    word = _parse_word_spec(args.word, triple, model)
    value = finite_volume_state(triple, structure, word)
    payload = {
        "model": args.model,
        "structure": structure.value,
        "word": args.word,
        "sites": len(word),
        "value": {"re": value.real, "im": value.imag},
    }
    sign = "+" if value.imag >= 0 else "-"
    text = (
        f"value = {value.real:.12g} {sign} {abs(value.imag):.12g}i "
        f"({len(word)} sites, {structure.value})"
    )
    _emit(payload, args.format, text)
    return 0


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
        rendered = []
        for v in row:
            if abs(v.imag) < 1e-12:
                rendered.append(f"{v.real:+.0f}")
            else:
                rendered.append(f"{v:.3f}")
        lines.append("  ".join(rendered))
    _emit(payload, args.format, "\n".join(lines))
    return 0


def _cmd_report(args) -> int:
    try:
        with open(args.path) as fh:
            report = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read report {args.path}: {err}") from None
    except json.JSONDecodeError as err:
        raise ConfigError(f"report {args.path} is not valid JSON: {err}") from None
    if not isinstance(report, dict) or "checks" not in report or "pass" not in report:
        raise ConfigError(f"report {args.path} does not look like a verification report")
    _emit(report, args.format, render_report_text(report))
    return 0 if report["pass"] else 1


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
    verify.add_argument("--seed", type=int, default=42)
    verify.add_argument("--samples", type=int, default=200)
    verify.add_argument("--global-samples", type=int, default=50, dest="global_samples")
    verify.add_argument("--n-max", type=int, default=6, dest="n_max")
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


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, SubgroupStructureError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
