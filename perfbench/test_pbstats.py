"""Hand-computed checks of the benchmark's statistics (pbstats.py).

    python3 perfbench/test_pbstats.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
sys.dont_write_bytecode = True

import pbstats  # noqa: E402


class MedianTest(unittest.TestCase):
    def test_odd_count(self):
        self.assertEqual(pbstats.median([7, 1, 3]), 3)

    def test_even_count_averages_the_middle_pair(self):
        self.assertEqual(pbstats.median([4, 1, 3, 2]), 2.5)


class QuartileTest(unittest.TestCase):
    def test_exclusive_method(self):
        # n = 8: positions (n+1)/4 * k = 2.25, 4.5, 6.75 on 1..8.
        self.assertEqual(pbstats.quartiles(list(range(1, 9))),
                         (2.25, 4.5, 6.75))

    def test_ten_runs(self):
        # n = 10: positions 2.75, 5.5, 8.25 on 10, 20, ..., 100.
        q1, q2, q3 = pbstats.quartiles([10 * k for k in range(10, 0, -1)])
        self.assertAlmostEqual(q1, 27.5)
        self.assertAlmostEqual(q2, 55.0)
        self.assertAlmostEqual(q3, 82.5)

    def test_spread_is_iqr_over_median(self):
        self.assertAlmostEqual(pbstats.spread(list(range(1, 9))),
                               (6.75 - 2.25) / 4.5)

    def test_single_value(self):
        self.assertEqual(pbstats.quartiles([5.0]), (5.0, 5.0, 5.0))
        self.assertEqual(pbstats.spread([5.0]), 0.0)


class TailTest(unittest.TestCase):
    def test_under_forty_samples_reports_the_median(self):
        self.assertEqual(pbstats.tail(list(range(1, 40))), (50.0, 20))
        self.assertEqual(pbstats.tail([3.0, 1.0]), (50.0, 2.0))

    def test_forty_samples_reach_p75(self):
        # rank ceil(0.75 * 40) = 30 leaves exactly 10 beyond.
        self.assertEqual(pbstats.tail(list(range(40, 0, -1))), (75.0, 30))

    def test_hundred_samples_stop_at_p90(self):
        # p95 would leave 5 beyond; p90 (rank 90) leaves 10.
        self.assertEqual(pbstats.tail(list(range(1, 101))), (90.0, 90))

    def test_larger_counts(self):
        self.assertEqual(pbstats.tail(list(range(1, 201))), (95.0, 190))
        self.assertEqual(pbstats.tail(list(range(1, 1001))), (99.0, 990))
        self.assertEqual(pbstats.tail(list(range(1, 10001))), (99.9, 9990))

    def test_rank_rounds_up(self):
        # n = 64: p75 rank ceil(48) = 48 leaves 16; p90 rank ceil(57.6) = 58
        # leaves 6, so p75 it is.
        self.assertEqual(pbstats.tail(list(range(1, 65))), (75.0, 48))
        # n = 1152: p99 rank ceil(1140.48) = 1141 leaves 11.
        self.assertEqual(pbstats.tail(list(range(1, 1153))), (99.0, 1141))


if __name__ == "__main__":
    unittest.main()
