"""Summary arithmetic shared by the driver and the traced run.

Percentiles follow the sample-count rule of the benchmark: a timing is
reported as its median and as the highest percentile that still has at
least ``MIN_TAIL`` samples beyond it.  ``percentile`` therefore refuses
(returns ``None``) a quantile the sample cannot support, and callers
print the count next to every value.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence

#: samples that must lie beyond a reported percentile
MIN_TAIL = 10


def supported(n: int, q: float, min_tail: int = MIN_TAIL) -> bool:
    """True when ``n`` samples leave at least ``min_tail`` beyond ``q``.

    The median needs ``2 * min_tail`` samples, p90 needs ``10 * min_tail``.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile must lie in (0, 1), got {q}")
    return n * (1.0 - q) >= min_tail - 1e-9


def percentile(
    samples: Sequence[float], q: float, min_tail: int = MIN_TAIL
) -> Optional[float]:
    """Linear-interpolated ``q`` quantile, or None when unsupported.

    Interpolates between closest ranks (the ``(n - 1) * q`` convention,
    as numpy's default), so a quantile is a value between two observed
    samples, never outside their range.
    """
    n = len(samples)
    if n == 0 or not supported(n, q, min_tail):
        return None
    ordered = sorted(samples)
    rank = (n - 1) * q
    low = math.floor(rank)
    high = min(low + 1, n - 1)
    frac = rank - low
    return ordered[low] + (ordered[high] - ordered[low]) * frac


def mean(samples: Iterable[float]) -> float:
    values = list(samples)
    return sum(values) / len(values) if values else 0.0


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, 0 when nothing was attempted."""
    return numerator / denominator if denominator else 0.0


def median(samples: Sequence[float]) -> float:
    """Plain median (no sample-count rule): for repeated set-up times."""
    if not samples:
        raise ValueError("median of no samples")
    ordered = sorted(samples)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0
