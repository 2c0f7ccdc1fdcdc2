"""Statistics shared by the benchmark's runner (run.py) and its steadiness
command (steady.py): medians, quartiles and the tail-percentile rule."""

import math
import statistics

# Candidate tail percentiles, highest first, in tenths of a percent so the
# rank arithmetic stays exact.
TAIL_PERMILLE = (999, 990, 950, 900, 750)
# A tail percentile must leave at least this many samples above it.
TAIL_MIN_BEYOND = 10


def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them
    (its default 'exclusive' method); a single value is its own quartiles."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile distance as a share of the median (0 for a 0 median)."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def tail(samples):
    """The highest candidate percentile with at least TAIL_MIN_BEYOND samples
    beyond it, as (percentile, value). The percentile is nearest-rank: the
    sample at rank ceil(p * n) of the sorted samples, with n - rank samples
    beyond it. With too few samples for any candidate (under 40) the rule
    falls back to the median, reported as percentile 50."""
    ordered = sorted(samples)
    n = len(ordered)
    for permille in TAIL_PERMILLE:
        rank = math.ceil(permille * n / 1000)
        if rank >= 1 and n - rank >= TAIL_MIN_BEYOND:
            return permille / 10, ordered[rank - 1]
    return 50.0, median(ordered)
