"""Pure arithmetic of the benchmark: quartiles, target crossings, span self
times and failure accounting.  Nothing here imports ``repro`` or reads a
clock, so the tests can drive every function with synthetic inputs."""

from __future__ import annotations

import math
import statistics
from collections import defaultdict


def quartiles(values):
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives
    them; a single value is its own quartiles."""
    values = [float(v) for v in values]
    if not values:
        raise ValueError("quartiles of no values")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def median(values):
    return quartiles(values)[1]


def percentile(values, share):
    """Nearest-rank percentile (``share`` in (0, 1]) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(share * len(ordered)))
    return ordered[rank - 1]


def first_crossing(history, var, target, validate_every):
    """Index of the first history record taken at a validation where
    ``var``'s error is at or below ``target``, else ``None``.

    The trainer validates at ``step % validate_every == 0`` and at the last
    step; records between validations repeat the last errors, so they are
    skipped rather than credited with a crossing they did not observe.
    Variables are looked up by name: the order of the errors mapping is
    not stable between runs.
    """
    series = history.errors.get(var)
    if series is None or not history.steps:
        return None
    last = history.steps[-1]
    for index, step in enumerate(history.steps):
        if step % validate_every and step != last:
            continue
        if series[index] <= target:      # NaN never crosses
            return index
    return None


def self_times(spans):
    """Total self seconds per span name: each closed span's duration minus
    the durations of its direct children."""
    duration = {span["id"]: span["end"] - span["start"]
                for span in spans if span.get("end") is not None}
    children = defaultdict(float)
    for span in spans:
        if span["id"] in duration and span.get("parent") in duration:
            children[span["parent"]] += duration[span["id"]]
    totals = defaultdict(float)
    for span in spans:
        if span["id"] in duration:
            totals[span["name"]] += duration[span["id"]] - children[span["id"]]
    return dict(totals)


class Tally:
    """Attempted/failed accounting: a repetition fails when any check on
    it reports a problem; every problem is kept for the report."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, label, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)

    @property
    def correct(self):
        return self.attempted > 0 and self.failed == 0
