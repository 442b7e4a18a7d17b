"""Fast self-test of the benchmark (a few seconds).

    python3 bench/selftest.py

Runs the benchmark's own code path on tiny workloads (one small suite,
four `words` triples), untraced and traced, and checks that every metric
BENCHMARK.json declares is reported with its unit, that every verdict
passed, and that the pinned-count gate turns a wrong count into failures.
"""

import io
import sys
import unittest
from contextlib import redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

SUITE = {"kind": "verify", "args": {}, "checks": {"jform": 143}}
WORDS = {"kind": "words", "triples": 4}


def quiet_result(spec, trace):
    with redirect_stdout(io.StringIO()):
        return run.result("selftest", spec, seed=7, seconds=0, trace=trace)


class SelfTest(unittest.TestCase):
    def check_metrics(self, res, rows):
        self.assertTrue(res["correct"])
        self.assertEqual(res["failed"], 0)
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(list(res["metrics"]), [row["name"] for row in rows])
        for row in rows:
            metric = res["metrics"][row["name"]]
            self.assertEqual(metric["unit"], row["unit"], row["name"])
            self.assertIsInstance(metric["value"], (int, float), row["name"])

    def test_end_to_end_metrics(self):
        rows = run.declared()["end_to_end"]
        for spec in (SUITE, WORDS):
            res = quiet_result(spec, trace=False)
            self.check_metrics(res, rows)
            for name in ("wall_ref_s", "setup_s", "peak_rss_mb"):
                self.assertGreater(res["metrics"][name]["value"], 0, name)

    def test_per_layer_metrics(self):
        rows = run.declared()["per_layer"]
        for spec, busy in ((SUITE, "induce.s"), (WORDS, "parser.parse_s")):
            res = quiet_result(spec, trace=True)
            self.check_metrics(res, rows)
            self.assertEqual(res["metrics"]["fail_ratio"]["value"], 0)
            self.assertGreater(res["metrics"][busy]["value"], 0, busy)
        self.assertEqual(res["metrics"]["report.checks_recorded"]["value"], 0)

    def test_wrong_check_count_fails(self):
        spec = dict(SUITE, checks={"jform": 144})
        res = quiet_result(spec, trace=False)
        self.assertFalse(res["correct"])
        self.assertEqual(res["failed"], 1)


if __name__ == "__main__":
    unittest.main()
