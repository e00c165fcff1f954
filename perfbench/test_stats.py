"""Tests of the benchmark's own arithmetic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import unittest

import stats


def span(sid, start, end, parent=None):
    return {"id": sid, "name": f"s{sid}", "start_ns": start, "end_ns": end,
            "parent": parent, "op": 0}


class PercentileSelection(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        self.assertIsNone(stats.tail_percentile(19))
        self.assertEqual(stats.tail_percentile(20), 50.0)
        self.assertEqual(stats.tail_percentile(99), 50.0)
        self.assertEqual(stats.tail_percentile(100), 90.0)
        self.assertEqual(stats.tail_percentile(199), 90.0)
        self.assertEqual(stats.tail_percentile(200), 95.0)
        self.assertEqual(stats.tail_percentile(999), 95.0)
        self.assertEqual(stats.tail_percentile(1000), 99.0)
        self.assertEqual(stats.tail_percentile(10000), 99.9)

    def test_ranks_are_exact(self):
        # 0.95 * 200 is 190.00000000000003 in floating point; the rank must
        # still be 190, leaving exactly ten samples beyond.
        self.assertEqual(stats.rank(200, 95.0), 190)
        self.assertEqual(stats.beyond(200, 95.0), 10)
        self.assertEqual(stats.beyond(1000, 99.9), 1)

    def test_tail_records_value_and_count(self):
        values = list(range(1, 201))  # 1..200
        p, value, n = stats.tail(values)
        self.assertEqual((p, value, n), (95.0, 190, 200))
        self.assertEqual(sum(v > value for v in values), 10)

    def test_nearest_rank(self):
        self.assertEqual(stats.percentile([5, 1, 3], 50), 3)
        self.assertEqual(stats.percentile([4, 1, 3, 2], 50), 2)
        self.assertEqual(stats.percentile([7], 99.9), 7)
        with self.assertRaises(ValueError):
            stats.percentile([], 50)

    def test_too_few_samples_raise(self):
        with self.assertRaises(ValueError):
            stats.tail(list(range(19)))


class FailedRatio(unittest.TestCase):
    def test_counts(self):
        self.assertEqual(stats.failed_ratio(10, 0), 0.0)
        self.assertEqual(stats.failed_ratio(8, 2), 0.25)
        self.assertEqual(stats.failed_ratio(3, 3), 1.0)

    def test_rejects_impossible_counts(self):
        for attempted, failed in ((0, 0), (2, 3), (2, -1)):
            with self.assertRaises(ValueError):
                stats.failed_ratio(attempted, failed)


class SelfTime(unittest.TestCase):
    def test_subtracts_nested_children(self):
        parent = span(0, 0, 100)
        self.assertEqual(stats.self_time(parent, [span(1, 10, 30, 0), span(2, 50, 60, 0)]), 70)

    def test_overlapping_children_count_once(self):
        parent = span(0, 0, 100)
        kids = [span(1, 10, 40, 0), span(2, 30, 50, 0), span(3, 45, 50, 0)]
        self.assertEqual(stats.self_time(parent, kids), 60)

    def test_replayed_children_outside_the_parent_still_subtract(self):
        parent = span(0, 0, 100)
        kids = [span(1, 100, 130, 0), span(2, 130, 150, 0)]
        self.assertEqual(stats.self_time(parent, kids), 50)

    def test_never_negative(self):
        parent = span(0, 0, 100)
        self.assertEqual(stats.self_time(parent, [span(1, 100, 250, 0)]), 0)

    def test_no_children(self):
        self.assertEqual(stats.self_time(span(0, 5, 9), []), 4)

    def test_union_ignores_empty_intervals(self):
        self.assertEqual(stats.union_length([(5, 5), (7, 3), (1, 2)]), 1)

    def test_children_and_coverage(self):
        spans = [span(0, 0, 40), span(1, 10, 20, 0), span(2, 50, 90), span(3, 60, 70, 2)]
        kids = stats.children_of(spans)
        self.assertEqual([s["id"] for s in kids[0]], [1])
        self.assertEqual(kids[1], [])
        self.assertAlmostEqual(stats.coverage(spans, 100), 0.8)


if __name__ == "__main__":
    unittest.main()
