"""Self time from nested spans."""

import unittest

from tests import context  # noqa: F401
from rpbench import spans


def span(sid, parent, start, end, name="s"):
    return {"name": name, "id": sid, "parent": parent, "req": 0,
            "start_ns": start, "end_ns": end}


class SelfTime(unittest.TestCase):
    def test_children_are_subtracted_once_even_when_they_overlap(self):
        tree = [span(1, 0, 0, 100),
                span(2, 1, 10, 30), span(3, 1, 20, 50),   # overlap
                span(4, 1, 90, 120)]                      # runs past
        own = spans.self_times(tree)
        self.assertEqual(own[1], 100 - 40 - 10)
        self.assertEqual(own[2], 20)
        self.assertEqual(own[4], 30)

    def test_grandchildren_count_against_their_parent_only(self):
        tree = [span(1, 0, 0, 100), span(2, 1, 0, 60),
                span(3, 2, 10, 50)]
        own = spans.self_times(tree)
        self.assertEqual(own[1], 40)
        self.assertEqual(own[2], 20)
        self.assertEqual(own[3], 40)

    def test_self_ms_by_name_sums_over_spans(self):
        tree = [span(1, 0, 0, 4_000_000, "job"),
                span(2, 1, 0, 1_000_000, "submit"),
                span(3, 0, 0, 2_000_000, "job")]
        self.assertEqual(spans.self_ms_by_name(tree),
                         {"job": 5.0, "submit": 1.0})


class Recorder(unittest.TestCase):
    def test_merge_renumbers_and_reparents_foreign_spans(self):
        tr = spans.Tracer()
        with tr.span("probe") as root:
            pass
        tr.merge([span(1, 0, 5, 10, "a"), span(2, 1, 6, 9, "b")], root)
        a, b = tr.spans[1], tr.spans[2]
        self.assertEqual(a["parent"], root["id"])
        self.assertEqual(b["parent"], a["id"])
        self.assertEqual(a["start_ns"], root["start_ns"] + 5)
        self.assertEqual(len({s["id"] for s in tr.spans}), 3)


class Overhead(unittest.TestCase):
    def test_overhead_is_span_cost_over_traced_root_time(self):
        from rpbench import trace
        tr = spans.Tracer()
        tr.spans = [span(1, 0, 0, 1_000_000, "api.traced"),
                    span(2, 1, 0, 10, "api.submit"),
                    span(3, 0, 0, 3_000_000, "probe"),
                    span(4, 3, 0, 10, "sim.run"),
                    span(5, 3, 0, 10, "sys.demo")]
        local_ns = spans.span_cost_ns(n=200)
        self.assertGreater(local_ns, 0)
        pct = trace._overhead_pct(tr, probe_spans=2, probe_span_ns=500)
        # 3 local spans and 2 probe spans over 4 ms of root spans; the
        # local cost is measured again inside, so allow its jitter.
        self.assertGreater(pct, 100.0 * 2 * 500 / 4e6)
        self.assertLess(pct, 100.0 * (2 * 500 + 3 * 50 * local_ns) / 4e6)


if __name__ == "__main__":
    unittest.main()
