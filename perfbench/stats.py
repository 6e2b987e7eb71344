"""Order statistics and span arithmetic used by the benchmark.

Pure functions on numbers and span tuples; nothing here imports `forge`.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict
from fractions import Fraction
from typing import Iterable, Sequence

# percentiles the tail rule chooses from; the benchmark reports p90 by name
# and checks that each pass has enough items for it
TAIL_CANDIDATES = (50.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10


def nearest_rank(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the ceil(pct/100 * n)-th smallest value."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    return ordered[_rank(len(ordered), pct) - 1]


def samples_beyond(n: int, pct: float) -> int:
    """How many of n samples lie strictly above the nearest-rank percentile."""
    return n - _rank(n, pct)


def _rank(n: int, pct: float) -> int:
    # exact: 99.9 / 100 * 10000 is 9990.000000000002 in floating point
    return max(1, math.ceil(Fraction(str(pct)) * n / 100))


def highest_tail_percentile(
    n: int, candidates: Iterable[float] = TAIL_CANDIDATES, min_beyond: int = MIN_BEYOND
) -> float | None:
    """The highest candidate percentile with at least `min_beyond` samples above it."""
    ok = [pct for pct in candidates if samples_beyond(n, pct) >= min_beyond]
    return max(ok) if ok else None


def item_medians(passes: Sequence[Sequence[dict]]) -> list[float]:
    """Each item's median time over the passes that timed it.

    One slow moment on a shared machine then moves one pass's item times,
    not the percentile.  Items are matched by id; untimed items are left out.
    """
    times: dict[str, list[float]] = defaultdict(list)
    for items in passes:
        for item in items:
            if item["s"] is not None:
                times[item["id"]].append(item["s"])
    return [statistics.median(t) for t in times.values()]


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between first and third quartile as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else math.inf


def covered_ns(lo: int, hi: int, intervals: Iterable[tuple[int, int]]) -> int:
    """Length of the part of [lo, hi] covered by the union of `intervals`."""
    total = 0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def aggregate_spans(spans: Sequence[Sequence]) -> dict[str, dict[str, float]]:
    """Per-name call count, inclusive and self time from (name, start, end, parent).

    `parent` is the index of the enclosing span or -1.  Self time is a span's
    duration minus the part of it its direct children cover.  Inclusive time
    counts only the outermost span of a name, so a function that re-enters
    itself is not counted twice.
    """
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "s": 0.0, "self_s": 0.0}
    )
    for idx, (name, start, end, parent) in enumerate(spans):
        row = out[name]
        row["calls"] += 1
        row["self_s"] += (end - start - covered_ns(start, end, children.get(idx, ()))) / 1e9
        anc = parent
        while anc >= 0 and spans[anc][0] != name:
            anc = spans[anc][3]
        if anc < 0:
            row["s"] += (end - start) / 1e9
    return dict(out)
