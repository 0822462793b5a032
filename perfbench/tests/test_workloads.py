"""Seeded workload generation."""

import unittest

from tests import context  # noqa: F401
from rpbench import workloads as wl


class ServeMixSequence(unittest.TestCase):
    def test_same_seed_gives_the_same_job_sequence(self):
        self.assertEqual(wl.serve_mix_sequence(7, 20),
                         wl.serve_mix_sequence(7, 20))

    def test_other_seeds_reorder_the_jobs(self):
        self.assertNotEqual(wl.serve_mix_sequence(7, 20),
                            wl.serve_mix_sequence(8, 20))

    def test_every_bag_holds_each_kind_once(self):
        seq = wl.serve_mix_sequence(3, 10)
        self.assertEqual(len(seq), 10 * wl.BAG)
        for k in range(10):
            self.assertEqual(sorted(seq[k * wl.BAG:(k + 1) * wl.BAG]),
                             sorted(wl.SERVE_KINDS))

    def test_a_longer_sequence_extends_a_shorter_one(self):
        self.assertEqual(wl.serve_mix_sequence(5, 30)[:5 * wl.BAG],
                         wl.serve_mix_sequence(5, 5))


class CellLatencies(unittest.TestCase):
    def test_progress_of_two_task_sets_yields_every_cell(self):
        progress = [(1.0, 2, 18), (2.0, 18, 18), (3.0, 3, 18),
                    (4.0, 18, 18)]
        cells = wl.cell_latencies(0.5, progress)
        self.assertEqual(len(cells), 36)
        self.assertEqual(cells[:2], [500.0, 500.0])
        self.assertEqual(cells[-1], 3500.0)


class PassSamples(unittest.TestCase):
    def passes(self, n, jobs):
        return [wl.Pass(1.0 + k, 2.0, 20.0, [float(j) for j in range(jobs)])
                for k in range(n)]

    def test_completion_points_count_one_independent_sample_per_pass(self):
        _m, samples = wl.pass_metrics(self.passes(2, 1), self.passes(3, 36),
                                      "cell", independent_jobs=False)
        self.assertEqual(samples["job_p90_ms"]["n"], 108)
        self.assertEqual(samples["job_p90_ms"]["independent"], 3)

    def test_independent_jobs_carry_no_separate_count(self):
        _m, samples = wl.pass_metrics(self.passes(3, 1), self.passes(5, 20),
                                      "experiment")
        self.assertNotIn("independent", samples["job_p50_ms"])
        self.assertEqual(samples["job_p90_ms"]["beyond"], 10)


if __name__ == "__main__":
    unittest.main()
