"""Shared number rules: float sums that match on every Python, JSON integers."""

import math
from typing import Iterable, Mapping


def json_int(value: object) -> int:
    """A JSON integer as written; a float, a boolean or a string is refused."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def left_sum(values: Iterable[float], start: float = 0.0) -> float:
    """((start + v1) + v2) + ..., added left to right as sum() did up to
    Python 3.11; from 3.12 sum() compensates the rounding, so bits differ."""
    total = start
    for value in values:
        total += value
    return total


def check_weights(weights: Mapping[object, float], key: str) -> None:
    """Raises ValueError naming key unless every weight is finite and >= 0
    and their left_sum is within 1e-9 of 1."""
    for weight in weights.values():
        if not (math.isfinite(weight) and weight >= 0):
            raise ValueError(f"{key} must be finite and >= 0, got {weight!r}")
    total = left_sum(weights.values())
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"{key} must sum to 1, got {total}")
