"""Span tracing of hqmmsym's public functions, installed from outside the package.

The tracer wraps each named function, records one span per call (name,
start, end, parent span) in flat arrays and aggregates call counts,
inclusive time and self time as the calls return.  Several modules bind
the same function with ``from .x import f``, so installing replaces every
attribute of every loaded ``hqmmsym`` module that refers to the original,
and uninstalling puts every one of them back.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from pathlib import Path

# Traced functions, as "<module>.<attribute path>" under the hqmmsym package.
TARGETS = (
    "cli.main",
    "cli.run",
    "aklt.build_model",
    "aklt.verify_intertwining",
    "aklt.emission_map",
    "aklt.dense_word_value",
    "hqmm.GenerativeTriple.validate",
    "hqmm.finite_volume_state",
    "hqmm.kolmogorov_check",
    "hqmm.sliced_map",
    "hqmm.random_word",
    "hqmm.load_model_config",
    "opalg.certify_cpu",
    "opalg.OperatorMap.from_function",
    "opalg.OperatorMap.choi",
    "opalg.operator_norm",
    "opalg.OperatorMap.apply_array",
    "symmetry.check_initial_invariance",
    "symmetry.check_transition_equivariance",
    "symmetry.check_emission_covariance",
    "symmetry.check_sliced_covariance",
    "symmetry.check_global_invariance",
    "grouprep.haar_rotations",
    "grouprep.cocycle_eval",
    "grouprep.detect_nontrivial_class",
    "sampling.random_operator",
)

PACKAGE = "hqmmsym"
WRAPPED_MARK = "__hqmmsym_bench_wrapped__"


def _argument(args, kwargs, position: int, name: str):
    return kwargs[name] if name in kwargs else args[position]


# Work counts taken from a call's arguments: (counter name, extractor).
COUNTERS = {
    "hqmm.finite_volume_state": (
        "hqmm.sites_folded",
        lambda args, kwargs: len(_argument(args, kwargs, 2, "word")),
    ),
    "grouprep.haar_rotations": (
        "grouprep.haar_rotations.samples",
        lambda args, kwargs: int(_argument(args, kwargs, 1, "count")),
    ),
}


def package_modules() -> list:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def leftover_wrappers() -> list[str]:
    """Names of package attributes (module level or class level) still wrapped."""
    found = []
    for module in package_modules():
        for attr, value in vars(module).items():
            if getattr(value, WRAPPED_MARK, False):
                found.append(f"{module.__name__}.{attr}")
            if isinstance(value, type):
                for cls_attr, member in vars(value).items():
                    inner = getattr(member, "__func__", member)
                    if getattr(inner, WRAPPED_MARK, False):
                        found.append(f"{module.__name__}.{attr}.{cls_attr}")
    return found


class Tracer:
    """Wraps TARGETS while installed; use as a context manager."""

    def __init__(self, targets=TARGETS):
        self.targets = tuple(targets)
        self.calls = [0] * len(self.targets)
        self.inclusive = [0.0] * len(self.targets)
        self.self_time = [0.0] * len(self.targets)
        self.counters = {counter: 0 for counter, _ in COUNTERS.values()}
        self.span_name = array("H")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._open: list[int] = []
        self._child_time: list[float] = []
        self._restore: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        self.origin = time.perf_counter()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        modules = {m.__name__: m for m in package_modules()}
        try:
            for index, target in enumerate(self.targets):
                module_name, *path = target.split(".")
                try:
                    owner = modules[f"{PACKAGE}.{module_name}"]
                    for part in path[:-1]:
                        owner = getattr(owner, part)
                    original = vars(owner)[path[-1]]
                except (KeyError, AttributeError):
                    # a renamed or removed function reports zero calls
                    self.missing.append(target)
                    continue
                if isinstance(owner, type):
                    self._wrap_method(index, owner, path[-1], original)
                else:
                    self._wrap_function(index, original, modules.values())
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _wrap_function(self, index: int, original, modules) -> None:
        wrapper = self._wrapper(index, original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def _wrap_method(self, index: int, cls: type, attr: str, original) -> None:
        if isinstance(original, classmethod):
            replacement = classmethod(self._wrapper(index, original.__func__))
        else:
            replacement = self._wrapper(index, original)
        self._restore.append((cls, attr, original))
        setattr(cls, attr, replacement)

    def _wrapper(self, index: int, fn):
        counter = COUNTERS.get(self.targets[index])
        clock = time.perf_counter
        open_spans = self._open
        child_time = self._child_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(self.span_start)
            self.span_name.append(index)
            self.span_parent.append(open_spans[-1] if open_spans else -1)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            if counter is not None:
                self.counters[counter[0]] += counter[1](args, kwargs)
            open_spans.append(span)
            child_time.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                open_spans.pop()
                children = child_time.pop()
                duration = end - start
                if child_time:
                    child_time[-1] += duration
                self.calls[index] += 1
                self.inclusive[index] += duration
                self.self_time[index] += duration - children
                self.span_start[span] = start - self.origin
                self.span_end[span] = end - self.origin

        setattr(traced, WRAPPED_MARK, True)
        return traced

    def metrics(self) -> dict[str, float]:
        """Per-function calls, inclusive and self seconds, plus derived counts."""
        out: dict[str, float] = {}
        for index, target in enumerate(self.targets):
            out[f"{target}.calls"] = self.calls[index]
            out[f"{target}.s"] = self.inclusive[index]
            out[f"{target}.self_s"] = self.self_time[index]
        out.update(self.counters)
        sites = self.counters["hqmm.sites_folded"]
        fold_s = out.get("hqmm.finite_volume_state.s", 0.0)
        out["hqmm.finite_volume_state.s_per_site"] = fold_s / sites if sites else 0.0
        builds = out.get("aklt.build_model.calls", 0)
        out["aklt.verify_intertwining.calls_per_build"] = (
            out.get("aklt.verify_intertwining.calls", 0) / builds if builds else 0.0
        )
        return out

    def write_spans(self, path: Path) -> int:
        """Write every recorded span to a compressed .npz file; return the count."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.targets),
            name=np.frombuffer(self.span_name, dtype=np.uint16),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            start_s=np.frombuffer(self.span_start, dtype=np.float64),
            end_s=np.frombuffer(self.span_end, dtype=np.float64),
        )
        return len(self.span_start)
