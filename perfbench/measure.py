"""The percentile behind the latency and throughput metrics."""

from __future__ import annotations

import math

MIN_BEYOND = 10


def percentile(samples, q: float) -> float:
    """Nearest-rank q-th percentile of `samples`.

    Refuses (ValueError) unless at least MIN_BEYOND samples lie beyond the
    returned rank, so a tail percentile is never read off a handful of
    points.
    """
    if not 0.0 < q < 100.0:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    ordered = sorted(samples)
    n = len(ordered)
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < MIN_BEYOND:
        raise ValueError(
            f"p{q:g} needs at least {MIN_BEYOND} samples beyond it; "
            f"{n} samples leave {n - rank}"
        )
    return ordered[rank - 1]
