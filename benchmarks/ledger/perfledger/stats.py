"""Order statistics the ledger reports: medians, fixed tails, spreads."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: Samples a tail percentile needs beyond it before it is reported.
MIN_BEYOND_TAIL = 10


class TooFewSamples(ValueError):
    """A run produced fewer samples than its fixed tail percentile needs."""


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank percentile ``p`` in (0, 100] of a non-empty sample."""
    if not samples:
        raise TooFewSamples("percentile of an empty sample")
    if not 0.0 < p <= 100.0:
        raise ValueError(f"percentile must lie in (0, 100], got {p}")
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_needed(p: float) -> int:
    """Smallest N leaving :data:`MIN_BEYOND_TAIL` samples beyond ``p``."""
    return math.ceil(MIN_BEYOND_TAIL * 100.0 / (100.0 - p))


def fixed_tail(samples: Sequence[float], p: float) -> float:
    """The workload's fixed tail percentile.

    The percentile is written in the workload table and never derived
    from N, so two runs always report the same statistic; a run too
    short to leave ten samples beyond it is invalid, not silently
    downgraded to a lower percentile.
    """
    need = samples_needed(p)
    if len(samples) < need:
        raise TooFewSamples(
            f"p{p:g} needs >= {need} samples to leave {MIN_BEYOND_TAIL} "
            f"beyond it, got {len(samples)}"
        )
    return percentile(samples, p)


def iqr_share(samples: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (run-to-run spread)."""
    q1, _, q3 = statistics.quantiles(samples, n=4)
    mid = statistics.median(samples)
    return (q3 - q1) / abs(mid) if mid else math.inf
