"""Order statistics and span self time, kept free of third-party imports."""

from __future__ import annotations

import math


def percentile(values, q: float) -> float:
    """q-th percentile (0..100) with linear interpolation between order
    statistics, the same rule as numpy's default ('linear')."""
    data = sorted(float(v) for v in values)
    if not data:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q!r} outside 0..100")
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50.0)


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals`, each clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans) -> dict:
    """Map span id -> self time: the span's duration minus the part of its
    interval covered by the union of its direct children.

    `spans` is an iterable of dicts with keys id, parent, start, end.
    """
    spans = list(spans)
    children: dict = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {
        s["id"]: (s["end"] - s["start"])
        - covered_length(children.get(s["id"], ()), s["start"], s["end"])
        for s in spans
    }
