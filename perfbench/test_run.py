"""Tests for the benchmark's own arithmetic (run.py).

    python3 -m unittest perfbench/test_run.py
"""

import math
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_nearest_rank(self):
        xs = list(range(1, 101))
        self.assertEqual(run.percentile(xs, 0.5), 50)
        self.assertEqual(run.percentile(xs, 0.99), 99)
        self.assertEqual(run.percentile(xs, 1.0), 100)
        self.assertEqual(run.percentile([7], 0.99), 7)

    def test_missing_values_sort_last(self):
        self.assertEqual(run.percentile([1, None, 2], 0.5), 2)
        self.assertTrue(math.isinf(run.percentile([1, None, 2], 1.0)))

    def test_samples_beyond(self):
        self.assertEqual(run.beyond(1000, 0.99), 10)
        self.assertEqual(run.beyond(999, 0.99), 9)
        self.assertEqual(run.beyond(100, 0.5), 50)

    def test_highest_percentile_with_ten_beyond(self):
        self.assertEqual(run.tail_percentile(1000), 0.99)
        self.assertEqual(run.tail_percentile(999), 0.9)
        self.assertEqual(run.tail_percentile(10000), 0.999)
        self.assertEqual(run.tail_percentile(100000), 0.9999)
        self.assertEqual(run.tail_percentile(20), 0.5)
        self.assertIsNone(run.tail_percentile(19))

    def test_tail_windows_keep_ten_beyond(self):
        for n in (1000, 1999, 2000, 18037):
            sizes = [len(w) for w in run.windows(list(range(n)), 1000)]
            self.assertEqual(sum(sizes), n)
            self.assertTrue(all(run.beyond(s, 0.99) >= 10 for s in sizes))
        self.assertEqual([len(w) for w in run.windows(list(range(10)), 1000)],
                         [10])

    def test_one_stalled_window_does_not_move_the_windowed_tail(self):
        quiet = [1.0] * 1000
        stalled = [1.0] * 900 + [50.0] * 100
        self.assertEqual(
            run.windowed_percentile(quiet + stalled + quiet, 0.99, 1000), 1.0)
        self.assertEqual(run.percentile(quiet + stalled + quiet, 0.99), 50.0)


class SelfTime(unittest.TestCase):
    @staticmethod
    def span(i, layer, start, end, parent=0):
        return {"id": i, "layer": layer, "start": start, "end": end,
                "parent": parent}

    def test_nested_children(self):
        spans = [self.span(1, "bench", 0, 10),
                 self.span(2, "lp", 1, 4, parent=1),
                 self.span(3, "solvers", 2, 3, parent=2)]
        self.assertEqual(run.self_times(spans),
                         {"bench": 7, "lp": 2, "solvers": 1})

    def test_overlapping_children_are_counted_once(self):
        spans = [self.span(1, "bench", 0, 10),
                 self.span(2, "consensus", 1, 5, parent=1),
                 self.span(3, "consensus", 3, 7, parent=1),
                 self.span(4, "consensus", 9, 12, parent=1)]
        st = run.self_times(spans)
        # Children cover [1, 7] and [9, 10] of the parent: 7 of its 10 s.
        self.assertEqual(st["bench"], 3)
        # Concurrent request spans add up (request-seconds).
        self.assertEqual(st["consensus"], 4 + 4 + 3)

    def test_covered_handles_touching_and_contained_intervals(self):
        self.assertEqual(run.covered([(0, 2), (2, 3), (0.5, 1)], 0, 10), 3)
        self.assertEqual(run.covered([(-5, 20)], 0, 10), 10)
        self.assertEqual(run.covered([(11, 12)], 0, 10), 0)


class Ratios(unittest.TestCase):
    def test_zero_base_is_zero(self):
        self.assertEqual(run.ratio(5, 0), 0.0)
        self.assertEqual(run.ratio(6, 3), 2.0)

    def test_per_layer_ratios_use_their_bases(self):
        def raw(capacity):
            return {
                "attempted": 10, "failed": 0, "spans": [], "checks": [],
                "scalars": {
                    "ops": 100.0, "sha256": 2500.0, "frames": 3000.0,
                    "macs": 600.0, "bundled_frames": 1500.0, "dropped": 4.0,
                    "requests_proposed": 90.0, "batches": 30.0,
                    "overflow_dropped": 0, "decode_errors": 0,
                    "auth_failures": 0, "handler_errors": 0,
                    "view_changes": 0,
                    "config.threads": 4, "config.replicas": 7,
                    "config.trials": 2, "closed.completed": 3 * capacity,
                    "closed.window_s": 2.0, "crypto.sha256_us_64B": 1.0},
                "samples": {
                    "setup_s": [0.1],
                    "open_latency_ms.0": [1.0] * 1000,
                    "open_latency_ms.1": [2.0] * 990 + [9.0] * 10,
                    "closed_rps": [capacity, 2 * capacity],
                    "gen_late_ms": [0.1], "queue_depth": [3],
                    "timer_late_us": [50]},
            }
        m = run.per_layer("service-lan", raw(4000), raw(2000))
        self.assertEqual(m["crypto.sha256_per_op"], 25)
        self.assertEqual(m["net.frames_per_op"], 30)
        self.assertEqual(m["net.macs_per_op"], 6)
        self.assertEqual(m["net.mac_amortisation"], 2.5)
        self.assertEqual(m["net.macs_computed"], 600)
        self.assertEqual(m["net.dropped_per_kop"], 40)
        self.assertEqual(m["consensus.avg_batch"], 3)
        self.assertEqual(m["bench.ops"], 100)
        # Untraced median 6000/s against traced 3000/s: tracing doubled the
        # time.
        self.assertEqual(m["bench.trace_overhead"], 1.0)
        # 25 digests of 1 us per request, against 4 threads * 1e6 us / 3000
        # requests per second of CPU per request.
        self.assertAlmostEqual(m["crypto.est_cpu_share"], 25 * 3000 / 4e6)
        # Plain figures: all clusters' completions over all windows, and the
        # worst cluster in each phase.
        self.assertEqual(m["service.capacity_rps"], 3 * 2000 / 2.0)
        self.assertEqual(m["service.capacity_worst_cluster_rps"], 2000)
        self.assertEqual(m["service.p99_worst_cluster_ms"], 2.0)
        self.assertEqual(m["service.p99_ms"], 2.0)
        # 2000 samples: p99 is the highest quantile with 10 beyond it (p99.9
        # has 2), and the 10 slow requests of the second cluster lie beyond.
        self.assertEqual(m["service.tail_ms"], 2.0)
        # Layers the workload does not exercise report zero.
        self.assertEqual(m["lp.iterations_cold"], 0)
        self.assertEqual(set(m), set(run.PER_LAYER_UNITS))


if __name__ == "__main__":
    unittest.main()
