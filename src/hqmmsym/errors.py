"""Structured exceptions shared across the package, and the rules for input files.

Each exception carries the measured quantity that triggered it, so callers
and tests can inspect how badly a precondition failed.
"""

from __future__ import annotations

import json
import math
import numbers
import sys


class DimensionMismatchError(ValueError):
    """An operator or map was used with an incompatible dimension."""

    def __init__(self, axis: str, expected, got):
        self.axis = axis
        self.expected = expected
        self.got = got
        super().__init__(
            f"dimension mismatch on axis '{axis}': expected {expected}, got {got}"
        )


class SubgroupStructureError(ValueError):
    """An element list is not a closed abelian subgroup."""

    def __init__(self, reason: str, deviation: float):
        self.reason = reason
        self.deviation = deviation
        super().__init__(f"not a closed abelian subgroup ({reason}, deviation {deviation:.3e})")


class ConfigError(ValueError):
    """A run configuration, model file or word file is malformed."""


def is_number(value) -> bool:
    """Whether value is a JSON number: a float, or an int (not a bool) that a double holds."""
    return isinstance(value, float) or (type(value) is int and abs(value) <= sys.float_info.max)


def config_int(name: str, value) -> int:
    """A count read from a run config, model config or matrix object, or ConfigError.

    int() would truncate a fractional count and read a boolean as 0 or 1;
    an integral float such as 2.0 is accepted.
    """
    if isinstance(value, bool) or not (
        isinstance(value, numbers.Integral) or (isinstance(value, float) and value.is_integer())
    ):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _finite(text: str) -> float:
    # json passes NaN and the Infinities here, and each fraction or exponent, as 1e999
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text} is not a finite number")
    return value


def _unique_names(pairs: list) -> dict:
    # RFC 8259 leaves an object with a repeated name undefined
    obj = dict(pairs)
    if len(obj) < len(pairs):
        raise ValueError(f"an object repeats a name: {[name for name, _ in pairs]}")
    return obj


def load_json(path: str, what: str, read=lambda doc: doc):
    """What read makes of the strict JSON in the file at path; each ConfigError names the file."""
    # JSON exchanged between systems is UTF-8 (RFC 8259), whatever the locale
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh, parse_float=_finite, parse_constant=_finite,
                            object_pairs_hook=_unique_names)
    except OSError as err:
        raise ConfigError(f"cannot read {what} {path}: {err}") from None
    except UnicodeDecodeError as err:
        raise ConfigError(f"{what} {path} is not UTF-8 text: {err}") from None
    except ValueError as err:  # a syntax error, or a number or a name the hooks refuse
        raise ConfigError(f"{what} {path} is not strict JSON: {err}") from None
    try:
        return read(doc)
    except ConfigError as err:
        raise ConfigError(f"{what} {path}: {err}") from None
