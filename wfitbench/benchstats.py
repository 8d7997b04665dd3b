"""Order statistics the benchmark reports.

Both follow the nearest-rank definition the engine's own ``metrics()``
uses: the p-th percentile of ``n`` samples is the sample at sorted index
``ceil(p * n) - 1``, so every reported value is a measured sample and the
median of two samples is the lower one.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

#: A tail percentile is reported only where at least this many samples lie
#: beyond it, so one stray sample cannot move it.
TAIL_BEYOND = 10


def nearest_rank(samples: Sequence[float], fraction: float) -> float:
    """The nearest-rank ``fraction`` percentile of ``samples``."""
    if not samples:
        raise ValueError("no samples")
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    ordered = sorted(samples)
    rank = math.ceil(fraction * len(ordered)) - 1
    return ordered[min(len(ordered) - 1, max(0, rank))]


def median(samples: Sequence[float]) -> float:
    """Nearest-rank median (the lower middle sample for even counts)."""
    return nearest_rank(samples, 0.5)


def tail(
    samples: Sequence[float], beyond: int = TAIL_BEYOND
) -> Optional[Tuple[float, float, int]]:
    """The highest percentile with at least ``beyond`` samples above it.

    Returns ``(value, percentile, sample_count)``: the sample at sorted
    index ``n - beyond - 1`` and its nearest-rank percentile
    ``100 * (n - beyond) / n``. None when fewer than ``beyond + 1``
    samples exist, because then no sample has enough samples beyond it.
    """
    n = len(samples)
    if n < beyond + 1:
        return None
    ordered = sorted(samples)
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n, n
