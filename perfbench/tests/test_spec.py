"""BENCHMARK.json, the layer map and the code name the same things."""

import json
import os
import unittest

from tests import context  # noqa: F401
from rpbench import trace, workloads as wl

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    with open(path) as f:
        return json.load(f)


class Spec(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = load(os.path.join(os.path.dirname(HERE),
                                     "BENCHMARK.json"))
        cls.layers = load(os.path.join(HERE, "layer_map.json"))["layers"]

    def test_workloads_are_the_ones_the_code_measures(self):
        names = [w["name"] for w in self.spec["workloads"]]
        self.assertEqual(sorted(names), sorted(wl.MEASURE))
        self.assertEqual(sorted(names), sorted(trace.PROBE_THREADS))

    def test_layer_map_covers_every_per_layer_metric_once(self):
        mapped = [row["metric"] for rows in self.layers.values()
                  for row in rows]
        self.assertEqual(sorted(mapped),
                         sorted(m["name"] for m in self.spec["per_layer"]))
        for layer, rows in self.layers.items():
            for row in rows:
                self.assertTrue(row["metric"].startswith(layer + "."))

    def test_layer_map_points_at_real_metrics_and_workloads(self):
        e2e = {m["name"] for m in self.spec["end_to_end"]}
        names = {w["name"] for w in self.spec["workloads"]}
        for rows in self.layers.values():
            for row in rows:
                for target in row["moves"]:
                    workload, metric = target.split(":")
                    self.assertIn(workload, names)
                    self.assertIn(metric, e2e)

    def test_setup_has_the_largest_bound(self):
        bounds = {m["name"]: m["bound"] for m in self.spec["end_to_end"]}
        self.assertEqual(max(bounds.values()), bounds["setup_s"])
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))


if __name__ == "__main__":
    unittest.main()
