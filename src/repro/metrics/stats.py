"""Small statistics helpers (means, percentiles, CDFs).

Kept dependency-free on purpose: everything the experiments report reduces
to means, percentiles and empirical CDFs over trace-derived samples.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError

#: Sentinel distinguishing "no default supplied" from ``default=None``.
_RAISE = object()


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; raises on empty input (silent zeros hide bugs)."""
    if not values:
        raise ConfigurationError("mean of empty sequence")
    return sum(values) / len(values)


def percentile(
    values: Sequence[float], q: float, default: Optional[float] = _RAISE
) -> Optional[float]:
    """Linear-interpolated percentile, q in [0, 100].

    Edge cases are explicit: an empty input raises (or returns ``default``
    when one is supplied, as ``explain``'s frame percentiles do); a single
    sample is every percentile of itself; q=0 / q=100 return the exact
    min / max with no interpolation rounding; a NaN or out-of-range q is
    rejected rather than silently indexing somewhere.
    """
    if not 0.0 <= q <= 100.0:  # NaN fails this comparison too
        raise ConfigurationError(f"percentile q must be in [0, 100], got {q}")
    if not values:
        if default is _RAISE:
            raise ConfigurationError("percentile of empty sequence")
        return default
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    if q == 0.0:
        return ordered[0]
    if q == 100.0:
        return ordered[-1]
    rank = (q / 100.0) * (len(ordered) - 1)
    low = min(int(math.floor(rank)), len(ordered) - 2)
    high = low + 1
    fraction = rank - low
    result = ordered[low] * (1.0 - fraction) + ordered[high] * fraction
    # The two-product form is stable for huge magnitudes but can round
    # outside the bracket for denormals (5e-324 * 0.5 rounds to 0);
    # clamp so the result always lands between its neighbors.
    return min(max(result, ordered[low]), ordered[high])


def cdf_points(values: Sequence[float]) -> List[Tuple[float, float]]:
    """Empirical CDF as (value, cumulative probability) pairs."""
    if not values:
        return []
    ordered = sorted(values)
    n = len(ordered)
    return [(v, (i + 1) / n) for i, v in enumerate(ordered)]
