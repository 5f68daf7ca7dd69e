"""Order statistics and the decision rules of ``compare.py``.

Quartiles follow ``statistics.quantiles(values, n=4)`` (the "exclusive"
method), the definition of run-to-run spread the bounds are set against.
Latency percentiles over request samples are nearest-rank, so a reported
p99 is always a latency some request actually saw.
"""

from __future__ import annotations

import math
import statistics
from typing import List, Sequence, Tuple


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q <= 100) of ``values``."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < q <= 100:
        raise ValueError(f"percentile rank must be in (0, 100], got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    if not values:
        raise ValueError("quartiles of an empty sample")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def rel_iqr(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, median, q3 = quartiles(values)
    if median == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(median)


def worse_by(parent: float, change: float, better: str) -> float:
    """How much worse ``change`` is than ``parent``, as a share of parent.

    Negative when the change is better.
    """
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    if parent == 0:
        if change == parent:
            return 0.0
        worse = change > parent if better == "lower" else change < parent
        return math.inf if worse else -math.inf
    delta = (change - parent) / abs(parent)
    return delta if better == "lower" else -delta


def pair_wins(
    parent: Sequence[float], change: Sequence[float], better: str
) -> Tuple[int, int]:
    """(pairs the change wins, pairs compared); ties count for neither."""
    if len(parent) != len(change):
        raise ValueError("pairs need equal-length parent and change runs")
    wins = 0
    for p, c in zip(parent, change):
        if (c < p) if better == "lower" else (c > p):
            wins += 1
    return wins, len(parent)


def claim_holds(
    parent: Sequence[float],
    change: Sequence[float],
    better: str,
    *,
    min_pairs: int = 10,
) -> bool:
    """The gain rule: ≥ 9/10 of at least ``min_pairs`` pairs won, and the
    medians differ (in the change's favour) by more than the parent's IQR.
    """
    wins, pairs = pair_wins(parent, change, better)
    if pairs < min_pairs or wins * 10 < pairs * 9:
        return False
    p1, p_med, p3 = quartiles(parent)
    c_med = statistics.median(change)
    gap = (p_med - c_med) if better == "lower" else (c_med - p_med)
    return gap > (p3 - p1)


def verdict(
    parent: Sequence[float],
    change: Sequence[float],
    better: str,
    bound: float,
) -> str:
    """``regression``, ``unresolved`` or ``ok`` for a metric with a bound.

    A change whose median is worse than the parent's by more than
    ``bound`` regresses.  Otherwise, when either side's run-to-run spread
    exceeds the bound the comparison cannot tell, and the metric is
    ``unresolved`` — unless every change run reads better than every
    parent run.
    """
    if worse_by(statistics.median(parent), statistics.median(change), better) > bound:
        return "regression"
    if max(rel_iqr(parent), rel_iqr(change)) > bound:
        if better == "lower":
            separated = max(change) < min(parent)
        else:
            separated = min(change) > max(parent)
        return "ok" if separated else "unresolved"
    return "ok"


def lateness_valid(lateness_s: Sequence[float], limit_ms: float = 5.0) -> bool:
    """An open-loop run is valid when the generator's p99 lateness —
    how long after its due time each request actually left — stays
    within ``limit_ms``.  Later than that, measured latency would mostly
    be the generator's own delay.
    """
    if not lateness_s:
        return False
    return percentile(lateness_s, 99.0) * 1000.0 <= limit_ms


def summarize(values: Sequence[float]) -> dict:
    """Median, quartiles, relative spread and sample count."""
    q1, median, q3 = quartiles(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "rel_iqr": rel_iqr(values),
        "n": len(values),
        "values": list(values),
    }


def diffs(marks: Sequence[float]) -> List[float]:
    """Successive differences of a timestamp sequence."""
    return [b - a for a, b in zip(marks, marks[1:])]
