"""Growth checks for code that must stay linear on adversarial input.

A ratio of two timings on one host holds where an absolute bound does not:
the same loop can take a quarter longer from one minute to the next, but
both sizes are measured within the same few milliseconds.
"""

from __future__ import annotations

import time
from typing import Callable


def _best_time(run: Callable[[], object], repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best


def growth_ratio(
    run: Callable[[object], object], make: Callable[[int], object], n: int, repeat: int = 5
) -> float:
    """The best of `repeat` timings of run(make(4n)) over that of run(make(n)).

    About 4 for linear work, 16 for quadratic and 64 for cubic.
    """
    small, large = make(n), make(4 * n)
    run(small)  # warm caches and lazy imports outside the timed runs
    return _best_time(lambda: run(large), repeat) / _best_time(lambda: run(small), repeat)
