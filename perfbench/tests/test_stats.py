"""Percentiles and the ten-samples-beyond rule."""

import statistics
import unittest

from tests import context  # noqa: F401
from rpbench import stats


class SampleCountRule(unittest.TestCase):
    def test_samples_beyond_counts_ranks_above_the_quantile(self):
        self.assertEqual(stats.samples_beyond(100, 0.9), 10)
        self.assertEqual(stats.samples_beyond(92, 0.9), 10)
        self.assertEqual(stats.samples_beyond(91, 0.9), 9)
        self.assertEqual(stats.samples_beyond(108, 0.9), 11)
        self.assertEqual(stats.samples_beyond(101, 0.5), 50)
        self.assertEqual(stats.samples_beyond(0, 0.9), 0)

    def test_tail_refuses_a_percentile_resting_on_few_samples(self):
        with self.assertRaises(stats.TooFewSamples):
            stats.tail(list(range(91)), 0.9)
        with self.assertRaises(stats.TooFewSamples):
            stats.tail([5.0], 0.5)

    def test_tail_reports_once_enough_samples_lie_beyond(self):
        values = list(range(100))
        self.assertAlmostEqual(stats.tail(values, 0.9), 89.1)
        self.assertEqual(stats.tail(values, 0.9),
                         stats.quantile(values, 0.9))

    def test_every_run_metric_meets_the_rule(self):
        # The workloads' minimum sizes, as the run sizes them.
        from rpbench import workloads as wl
        suite = wl.SUITE_MIN_PASSES * len(wl.SUITE_EXPERIMENTS)
        real = wl.REALSYSTEM_MIN_PASSES * wl.REALSYSTEM_CELLS
        for n in (suite, real, wl.SERVE_MIN_JOBS):
            self.assertGreaterEqual(stats.samples_beyond(n, 0.9),
                                    stats.MIN_BEYOND)


class Quantiles(unittest.TestCase):
    def test_quantile_interpolates_linearly(self):
        self.assertEqual(stats.quantile([3, 1, 2], 0.5), 2)
        self.assertEqual(stats.quantile([1, 2, 3, 4], 0.5), 2.5)
        self.assertEqual(stats.quantile([7], 0.9), 7)
        with self.assertRaises(stats.TooFewSamples):
            stats.quantile([], 0.5)

    def test_spread_is_the_interquartile_share_of_the_median(self):
        values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.0]
        q1, med, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(stats.spread(values), (q3 - q1) / med)
        self.assertEqual(stats.spread([4.0]), 0.0)


if __name__ == "__main__":
    unittest.main()
