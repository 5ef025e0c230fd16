"""Order statistics and the parent-vs-change verdict rule.

Every timing the benchmark reports is a median over samples, and every
comparison between two revisions goes through :func:`verdict`, which
implements the acceptance rule the benchmark is judged by:

* a gain needs the change to win at least nine tenths of the seed-paired
  runs (ties count for neither side) *and* the medians to differ by more
  than the parent's own quartile spread;
* a regression is a change median worse than the parent's by more than
  the metric's bound (a share of the parent median);
* when either side's quartile spread is wider than the bound the metric
  is unresolved, unless every change run beats every parent run.
"""

from __future__ import annotations

import math
import statistics

__all__ = ["percentile", "median", "quartiles", "relative_spread",
           "pair_wins", "verdict", "growth_ratio"]


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation between
    closest ranks (NumPy's default method).

    Infinite samples (failed operations count as missing every latency
    limit) sort last, so a percentile below the failure share stays
    finite.  Raises ``ValueError`` on an empty sample.
    """
    ordered = sorted(float(value) for value in values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q!r} is outside 0..100")
    position = (len(ordered) - 1) * q / 100.0
    lower = math.floor(position)
    upper = math.ceil(position)
    if lower == upper or ordered[lower] == ordered[upper]:
        return ordered[lower]
    fraction = position - lower
    return ordered[lower] + (ordered[upper] - ordered[lower]) * fraction


def median(values) -> float:
    """The 50th percentile."""
    return percentile(values, 50.0)


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``
    gives them (the exclusive method; one value is its own quartiles)."""
    values = [float(value) for value in values]
    if not values:
        raise ValueError("quartiles of an empty sample")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values) -> float:
    """Inter-quartile distance as a share of the median (0 for a
    constant sample, infinite when the median is 0 but the sample is
    not constant)."""
    q1, q2, q3 = quartiles(values)
    if q3 == q1:
        return 0.0
    if q2 == 0:
        return math.inf
    return (q3 - q1) / abs(q2)


def _better(a: float, b: float, better: str) -> bool:
    """Whether value ``a`` reads strictly better than ``b``."""
    if better == "lower":
        return a < b
    if better == "higher":
        return a > b
    raise ValueError(f"'better' must be 'lower' or 'higher', not {better!r}")


def pair_wins(parent: dict, change: dict, better: str) -> tuple[int, int]:
    """``(change_wins, pairs)`` over the keys (seeds) both sides ran.

    A tie is a pair neither side won; it still counts in ``pairs``.
    """
    keys = sorted(set(parent) & set(change))
    wins = sum(1 for key in keys if _better(change[key], parent[key], better))
    return wins, len(keys)


def verdict(parent: dict, change: dict, better: str, bound: float) -> str:
    """``better``, ``worse``, ``unchanged`` or ``unresolved`` for one
    metric on one workload.

    ``parent`` and ``change`` map a run key (the seed) to the metric
    value of that run.  ``bound`` is the share of the parent median by
    which the change may be worse before it counts as a regression.
    """
    if not parent or not change:
        return "unresolved"
    parent_values = list(parent.values())
    change_values = list(change.values())
    q1, parent_median, q3 = quartiles(parent_values)
    change_median = median(change_values)
    wins, pairs = pair_wins(parent, change, better)
    if (pairs and wins >= 0.9 * pairs
            and _better(change_median, parent_median, better)
            and abs(change_median - parent_median) > q3 - q1):
        return "better"
    scale = abs(parent_median) or 1.0
    worse_by = (change_median - parent_median) / scale
    if better == "higher":
        worse_by = -worse_by
    if worse_by > bound:
        return "worse"
    if max(relative_spread(parent_values),
           relative_spread(change_values)) > bound:
        all_better = all(_better(c, p, better)
                         for c in change_values for p in parent_values)
        return "unchanged" if all_better else "unresolved"
    return "unchanged"


def growth_ratio(durations) -> float:
    """Median of the last tenth of a call sequence over the median of
    its first tenth: 1.0 is flat, above 1.0 the per-call cost grows with
    the calls made before (0 when there are fewer than ten calls)."""
    tenth = len(durations) // 10
    if tenth < 1:
        return 0.0
    first = median(durations[:tenth])
    return median(durations[-tenth:]) / first if first > 0 else 0.0
