"""Structured exceptions shared across the package, and the rules for input files.

Each exception carries the measured quantity that triggered it, so callers
and tests can inspect how badly a precondition failed.
"""

from __future__ import annotations

import json
import numbers


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


def config_float(name: str, value) -> float:
    """A number read from a run config, or ConfigError."""
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{name} must be a number, got {value!r}") from None


def load_json(path: str, what: str):
    """The JSON document in the file at path, or ConfigError naming it as what."""
    # JSON exchanged between systems is UTF-8 (RFC 8259), whatever the locale
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read {what} {path}: {err}") from None
    except UnicodeDecodeError as err:
        raise ConfigError(f"{what} {path} is not UTF-8 text: {err}") from None
    except json.JSONDecodeError as err:
        raise ConfigError(f"{what} {path} is not valid JSON: {err}") from None
