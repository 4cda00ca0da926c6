#!/usr/bin/env python3
"""Self-test for tools/bench_history.py on generated history fixtures.

Run directly (python3 tools/bench_history_test.py) or through ctest
(registered as bench_history_selftest).  Stdlib only.
"""

import contextlib
import glob
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_history  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Two workloads and one metric of each direction, with 10% bounds.
SPEC = {
    "workloads": [{"name": "alpha"}, {"name": "beta"}],
    "end_to_end": [
        {"name": "run_s", "unit": "s", "better": "lower", "bound": 0.1},
        {"name": "ops", "unit": "1/s", "better": "higher", "bound": 0.1},
    ],
}


def line(side, workload, pair, trace=0, **metrics):
    row = {"pr": 1, "side": side, "parent": "abc1234", "workload": workload, "seed": 2026,
           "seconds": 20.0, "trace": trace}
    if trace == 0:
        row["pair"] = pair
    row["result"] = {"correct": True, "attempted": 5, "failed": 0,
                     "metrics": {k: {"value": v, "unit": "s"} for k, v in metrics.items()}}
    return row


def history(parent_runs, change_runs, workload="alpha"):
    """Alternating pairs of run_s values, then one trace line per side."""
    rows = []
    for i, (p, c) in enumerate(zip(parent_runs, change_runs), 1):
        pair = [line("parent", workload, i, run_s=p, ops=100.0),
                line("change", workload, i, run_s=c, ops=100.0)]
        rows += pair if i % 2 == 1 else pair[::-1]
    rows += [line("parent", workload, None, trace=1), line("change", workload, None, trace=1)]
    return rows


class HistoryCase(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.spec = os.path.join(self.dir.name, "BENCHMARK.json")
        with open(self.spec, "w") as f:
            json.dump(SPEC, f)

    def tearDown(self):
        self.dir.cleanup()

    def write(self, rows, name="h.jsonl"):
        path = os.path.join(self.dir.name, name)
        with open(path, "w") as f:
            for row in rows:
                f.write((row if isinstance(row, str) else json.dumps(row)) + "\n")
        return path

    def run_tool(self, *argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = bench_history.main(["--benchmark", self.spec] + list(argv))
        return code, out.getvalue()

    def labels(self, rows):
        code, text = self.run_tool(self.write(rows))
        self.assertEqual(code, 0)
        found = {}
        table = text.split("\n\n")[0]
        for row in table.splitlines()[2:]:
            # Columns are separated by at least two spaces; the label is last.
            cells = row.split()
            found[(cells[0], cells[1])] = row.rsplit("  ", 1)[1].strip()
        return found, text


class Summary(HistoryCase):
    PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]

    def test_improved(self):
        found, text = self.labels(history(self.PARENT, [x * 0.7 for x in self.PARENT]))
        self.assertEqual(found[("alpha", "run_s")], "improved")
        self.assertIn("10/10", text)
        # A metric that did not move stays within its bound.
        self.assertEqual(found[("alpha", "ops")], "within bound")

    def test_worse(self):
        found, _ = self.labels(history(self.PARENT, [x * 1.3 for x in self.PARENT]))
        self.assertEqual(found[("alpha", "run_s")], "worse")

    def test_within_bound(self):
        found, text = self.labels(history(self.PARENT, [x * 1.01 for x in self.PARENT]))
        self.assertEqual(found[("alpha", "run_s")], "within bound")
        self.assertIn("0/10", text)

    def test_eight_wins_of_ten_is_not_improved(self):
        change = [x * 0.7 for x in self.PARENT[:8]] + [x * 1.05 for x in self.PARENT[8:]]
        found, text = self.labels(history(self.PARENT, change))
        self.assertIn("8/10", text)
        self.assertEqual(found[("alpha", "run_s")], "within bound")

    def test_unresolved_when_parent_spread_exceeds_bound(self):
        parent = [1.0, 1.4, 0.7, 1.2, 0.8, 1.3, 0.75, 1.1, 0.9, 1.25]
        found, _ = self.labels(history(parent, [x * 1.05 for x in reversed(parent)]))
        self.assertEqual(found[("alpha", "run_s")], "unresolved")

    def test_improved_needs_ten_pairs(self):
        found, text = self.labels(history(self.PARENT[:9], [x * 0.7 for x in self.PARENT[:9]]))
        self.assertIn("9/9", text)
        self.assertEqual(found[("alpha", "run_s")], "within bound")
        found, text = self.labels(history([1.0], [0.5]))
        self.assertIn("1/1", text)
        self.assertEqual(found[("alpha", "run_s")], "within bound")

    def test_wide_parent_spread_with_every_change_run_better(self):
        parent = [1.0, 1.4, 0.9, 1.2, 0.95, 1.3, 0.92, 1.1, 0.97, 1.25]
        # Every change run beats every parent run, but the median gain
        # (0.21) is below the parent IQR (0.28).
        change = [0.85, 0.8, 0.88, 0.82, 0.86, 0.84, 0.83, 0.87, 0.81, 0.89]
        found, text = self.labels(history(parent, change))
        self.assertIn("10/10", text)
        self.assertEqual(found[("alpha", "run_s")], "better in every run")
        # One change run inside the parent's range: unresolved again.
        found, _ = self.labels(history(parent, change[:9] + [0.91]))
        self.assertEqual(found[("alpha", "run_s")], "unresolved")

    def test_higher_is_better_metric(self):
        rows = history(self.PARENT, self.PARENT)
        for row in rows:
            if row["side"] == "change" and row["trace"] == 0:
                row["result"]["metrics"]["ops"]["value"] = 150.0
        found, _ = self.labels(rows)
        self.assertEqual(found[("alpha", "ops")], "improved")


    def test_median_attempted_per_side(self):
        rows = history(self.PARENT, [x * 0.7 for x in self.PARENT])
        for row in rows:
            if row["trace"] == 0:
                # The faster side fits more iterations into the same time.
                row["result"]["attempted"] = (9 if row["side"] == "parent" else
                                              11 + row["pair"] % 2)
        _, text = self.labels(rows)
        self.assertIn("median attempted per side", text)
        self.assertIn("alpha: parent 9, change 11.5", text)


class Check(HistoryCase):
    def check(self, rows):
        return self.run_tool("--check", self.write(rows))

    def test_good_file_passes(self):
        code, text = self.check(history([1.0, 1.1], [0.9, 0.8]))
        self.assertEqual(code, 0, text)
        self.assertIn("0 problem(s)", text)

    def test_missing_key(self):
        rows = history([1.0], [0.9])
        del rows[0]["seed"]
        code, text = self.check(rows)
        self.assertEqual(code, 1)
        self.assertIn("missing ['seed']", text)

    def test_unknown_side_and_workload(self):
        rows = history([1.0], [0.9])
        rows[0]["side"] = "base"
        rows[1]["workload"] = "gamma"
        code, text = self.check(rows)
        self.assertEqual(code, 1)
        self.assertIn("side 'base'", text)
        self.assertIn("unknown workload 'gamma'", text)

    def test_incomplete_pair(self):
        rows = history([1.0, 1.1], [0.9, 0.8])
        del rows[3]
        code, text = self.check(rows)
        self.assertEqual(code, 1)
        self.assertIn("alpha pair 2 has sides", text)

    def test_pair_out_of_order(self):
        rows = history([1.0], [0.9])
        rows[0], rows[1] = rows[1], rows[0]
        code, text = self.check(rows)
        self.assertEqual(code, 1)
        self.assertIn("pair 1 runs the change first", text)

    def test_one_trace_line_per_workload_per_side(self):
        rows = history([1.0], [0.9])
        rows.append(line("change", "alpha", None, trace=1))
        rows.pop(2)  # The parent's trace line.
        code, text = self.check(rows)
        self.assertEqual(code, 1)
        self.assertIn("0 trace lines for the parent", text)
        self.assertIn("2 trace lines for the change", text)

    def test_timed_line_needs_a_pair(self):
        rows = history([1.0], [0.9])
        del rows[0]["pair"]
        code, text = self.check(rows)
        self.assertEqual(code, 1)
        self.assertIn("missing ['pair']", text)

    def test_lines_share_pr_and_parent(self):
        rows = history([1.0], [0.9])
        rows[1]["parent"] = "fff0000"
        code, text = self.check(rows)
        self.assertEqual(code, 1)
        self.assertIn("parent 'fff0000' differs", text)

    def test_not_json(self):
        code, text = self.check(history([1.0], [0.9]) + ["{not json"])
        self.assertEqual(code, 1)
        self.assertIn("not a JSON object", text)


class CommittedHistory(unittest.TestCase):
    def test_every_committed_file_passes_check(self):
        files = sorted(glob.glob(os.path.join(ROOT, "bench_history", "*.jsonl")))
        self.assertTrue(files)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = bench_history.main(["--check"] + files)
        self.assertEqual(code, 0, out.getvalue())


if __name__ == "__main__":
    unittest.main()
