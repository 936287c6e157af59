"""One rounding policy for float sums, so outputs match on every Python."""

from typing import Iterable


def left_sum(values: Iterable[float], start: float = 0.0) -> float:
    """((start + v1) + v2) + ..., added left to right as sum() did up to
    Python 3.11; from 3.12 sum() compensates the rounding, so bits differ."""
    total = start
    for value in values:
        total += value
    return total
