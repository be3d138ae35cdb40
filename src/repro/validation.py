"""NaN-safe guards for the config value objects.

Each guard names the field it checks. A range test is written as
``not (valid)`` so a NaN fails it, and a type test runs before any
comparison, so a bool, a string or a fraction fails with the field's name
instead of coercing into a plausible run.
"""

from __future__ import annotations

import numbers


def require_prob(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be a probability in [0, 1], got {value!r}")


def require_nonneg(name: str, value: float) -> None:
    if not value >= 0.0:  # also rejects NaN
        raise ValueError(f"{name} must be >= 0, got {value!r}")


def require_int(name: str, value: object, least: int) -> None:
    """``value`` must be an integral non-bool number of at least ``least``."""
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Integral)
        or value < least
    ):
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def require_bool(name: str, value: object) -> None:
    if not isinstance(value, bool):
        raise ValueError(f"{name} must be a bool, got {value!r}")
