"""Pure arithmetic of the benchmark: tail percentiles, failure ratios and
span self time. No I/O, so test_stats.py can pin it."""

import math
from fractions import Fraction

# Candidate percentiles, lowest first. A tail is reported at the highest of
# these that still has at least MIN_BEYOND samples above it.
TAIL_CANDIDATES = (50.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10


def rank(n, p):
    """1-based nearest rank of the p-th percentile among n samples, in exact
    arithmetic (0.95 * 200 must be 190, not 190.00000000000003)."""
    return max(1, math.ceil(Fraction(str(p)) * n / 100))


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% of the
    samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    return sorted(values)[rank(len(values), p) - 1]


def beyond(n, p):
    """Samples strictly above the nearest-rank p-th percentile of n samples."""
    return n - rank(n, p)


def tail_percentile(n):
    """The highest candidate percentile with at least MIN_BEYOND of n samples
    beyond it, or None when even the median has fewer."""
    best = None
    for p in TAIL_CANDIDATES:
        if beyond(n, p) >= MIN_BEYOND:
            best = p
    return best


def tail(values):
    """(percentile, value, sample count) of the tail to report."""
    p = tail_percentile(len(values))
    if p is None:
        raise ValueError(
            f"{len(values)} samples leave fewer than {MIN_BEYOND} beyond the median"
        )
    return p, percentile(values, p), len(values)


def failed_ratio(attempted, failed):
    """Failed operations over attempted ones; an operation counts once."""
    if attempted < 1:
        raise ValueError("no operations attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"{failed} failures out of {attempted} attempts")
    return failed / attempted


def union_length(intervals):
    """Total length covered by (start, end) intervals; overlaps count once."""
    total = 0
    reach = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_time(span, children):
    """A span's duration minus what its children cover, never negative.

    Children may be nested calls or replays of an inner call on identical
    inputs (which run after the parent); either way they stand for part of
    the parent's time, and overlapping children count once."""
    duration = span["end_ns"] - span["start_ns"]
    covered = union_length((c["start_ns"], c["end_ns"]) for c in children)
    return max(0, duration - covered)


def children_of(spans):
    """Map span id -> list of its child spans."""
    kids = {s["id"]: [] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            kids[s["parent"]].append(s)
    return kids


def coverage(spans, wall_ns):
    """Share of wall_ns covered by top-level spans."""
    top = [(s["start_ns"], s["end_ns"]) for s in spans if s["parent"] is None]
    return union_length(top) / wall_ns if wall_ns > 0 else 0.0

