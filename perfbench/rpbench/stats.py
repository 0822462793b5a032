"""Order statistics with the benchmark's sample-count rule.

A percentile is reported only when at least MIN_BEYOND samples lie
beyond it; otherwise the estimate rests on a handful of outliers and
two runs of the same code disagree.
"""

import math
import statistics

MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked of a sample that cannot support it."""


def samples_beyond(n, q):
    """Samples ranked strictly above the q-quantile of n samples.

    The quantile sits at rank (n - 1) * q (linear interpolation between
    neighbours), so the samples above it are those with a higher rank.
    """
    if n <= 0:
        return 0
    return n - 1 - math.floor((n - 1) * q)


def quantile(values, q):
    """Linearly interpolated q-quantile of values (q in [0, 1])."""
    if not values:
        raise TooFewSamples("quantile of an empty sample")
    xs = sorted(values)
    h = (len(xs) - 1) * q
    lo = math.floor(h)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (h - lo) * (xs[hi] - xs[lo])


def median(values):
    return quantile(values, 0.5)


def tail(values, q, min_beyond=MIN_BEYOND):
    """The q-quantile, refused unless min_beyond samples lie beyond it."""
    beyond = samples_beyond(len(values), q)
    if beyond < min_beyond:
        raise TooFewSamples(
            "p%g of %d samples has %d beyond it (need %d)"
            % (q * 100, len(values), beyond, min_beyond))
    return quantile(values, q)


def spread(values):
    """Interquartile distance as a share of the median.

    Uses statistics.quantiles(values, n=4), the definition the
    steadiness check is judged by.
    """
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")
