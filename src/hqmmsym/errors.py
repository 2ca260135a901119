"""Structured exceptions shared across the package, and the count rule for input files.

Each exception carries the measured quantity that triggered it, so callers
and tests can inspect how badly a precondition failed.
"""

from __future__ import annotations

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


class NonUnimodularError(ValueError):
    """A gauge function returned a value off the unit circle."""

    def __init__(self, modulus_deviation: float):
        self.modulus_deviation = modulus_deviation
        super().__init__(
            f"gauge value is not unimodular: | |lambda| - 1 | = {modulus_deviation:.3e}"
        )


class NonCommutingError(ValueError):
    """A pair of rotations required to commute does not."""

    def __init__(self, deviation: float, tol: float):
        self.deviation = deviation
        self.tol = tol
        super().__init__(
            f"rotations do not commute: composition mismatch {deviation:.3e} > {tol:.1e}"
        )


class SubgroupStructureError(ValueError):
    """An element list is not a closed abelian subgroup."""

    def __init__(self, reason: str, deviation: float):
        self.reason = reason
        self.deviation = deviation
        super().__init__(f"not a closed abelian subgroup ({reason}, deviation {deviation:.3e})")


class RankEstimationError(ValueError):
    """Singular values straddle the nullspace threshold, so the rank is ambiguous."""

    def __init__(self, singular_values, threshold: float):
        self.singular_values = singular_values
        self.threshold = threshold
        super().__init__(
            "commutant rank is ill conditioned near threshold "
            f"{threshold:.3e}; singular values {singular_values}"
        )


class UnsupportedSpinError(ValueError):
    """Requested spin label is not a nonnegative half integer."""

    def __init__(self, j):
        self.j = j
        super().__init__(f"unsupported spin label j={j!r}; need a positive multiple of 1/2")


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
