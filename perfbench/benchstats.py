"""The benchmark's own arithmetic: medians, quartiles, percentiles, span
self times and CPU-per-wall ratios. Pure functions, tested by
test_benchstats.py."""

import math
import statistics

# A percentile is reported only when at least this many samples lie beyond it.
MIN_BEYOND = 10


def median(xs):
    return statistics.median(xs)


def quartiles(xs):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them; one sample
    is its own quartiles."""
    if len(xs) == 1:
        return (xs[0], xs[0], xs[0])
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return (q1, q2, q3)


def percentile(xs, q):
    """Nearest-rank q-quantile (0 < q < 1) of xs, or None unless at least
    MIN_BEYOND samples rank above it."""
    if not xs:
        return None
    ranked = sorted(xs)
    rank = max(1, math.ceil(q * len(ranked) - 1e-9))  # tolerate q*n rounding up
    if len(ranked) - rank < MIN_BEYOND:
        return None
    return ranked[rank - 1]


def covered(parent, children):
    """Length of the part of [parent.start, parent.end] that the union of the
    children's intervals covers (children may overlap each other)."""
    lo, hi = parent["start"], parent["end"]
    intervals = sorted((max(c["start"], lo), min(c["end"], hi)) for c in children)
    total, cur_start, cur_end = 0.0, None, None
    for s, e in intervals:
        if e <= s:
            continue
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Each span's duration minus the time its direct children cover.
    `spans` is a list of dicts with start, end and parent (an index into the
    list, or -1); returns one self time per span."""
    children = [[] for _ in spans]
    for s in spans:
        if s["parent"] >= 0:
            children[s["parent"]].append(s)
    return [s["end"] - s["start"] - covered(s, kids) for s, kids in zip(spans, children)]


def roots(spans):
    """Index of each span's outermost ancestor."""
    out = []
    for i, s in enumerate(spans):
        j = i
        while spans[j]["parent"] >= 0:
            j = spans[j]["parent"]
        out.append(j)
    return out


def cores_busy(cpu_s, wall_s):
    """CPU seconds per wall second, or None when no wall time elapsed."""
    if wall_s <= 0:
        return None
    return cpu_s / wall_s
