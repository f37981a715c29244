"""Tests of run.py and of the metric tables: every metric the harness
prints exists in BENCHMARK.json with the same unit, and the reverse.

Run: python3 perfbench/run.py --selftest   (builds the harness first)
"""

import json
import os
import subprocess
import tempfile
import unittest

import run


def harness_listing():
    binary = os.path.join(run.build_dir(), "pipelsm_perfbench")
    if not os.path.isfile(binary):
        raise unittest.SkipTest("harness not built; use run.py --selftest")
    return json.loads(subprocess.run([binary, "--list-metrics"],
                                     capture_output=True, text=True,
                                     check=True).stdout)


def fake_doc(listing, trace):
    metrics = {m["name"]: {"value": 1.5, "unit": m["unit"]}
               for m in listing["end_to_end"]}
    layers = {m["name"]: {"value": 2.5, "unit": m["unit"]}
              for m in listing["per_layer"]} if trace else {}
    return {"workload": "ingest", "seed": 1, "seconds": 1, "trace": trace,
            "correct": True, "attempted": 10, "failed": 0,
            "mismatches": [], "metrics": metrics, "detail": {},
            "layers": layers, "not_exercised": [], "info": {}}


class MetricTableTest(unittest.TestCase):
    def setUp(self):
        self.spec = run.load_spec()
        self.listing = harness_listing()

    def check_same(self, kind):
        def shape(ms):
            return [(m["name"], m["unit"], m["better"]) for m in ms]
        self.assertEqual(shape(self.spec[kind]), shape(self.listing[kind]))

    def test_end_to_end_matches_harness(self):
        self.check_same("end_to_end")

    def test_per_layer_matches_harness(self):
        self.check_same("per_layer")

    def test_result_line_carries_exactly_the_spec_metrics(self):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            line = run.result_line(fake_doc(self.listing, trace), self.spec,
                                   trace)
            self.assertEqual(set(line), {"correct", "attempted", "failed",
                                         "metrics"})
            want = {m["name"]: m["unit"] for m in self.spec[kind]}
            got = {n: m["unit"] for n, m in line["metrics"].items()}
            self.assertEqual(got, want)


class SpecTest(unittest.TestCase):
    def test_bounds_and_workloads(self):
        spec = run.load_spec()
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        for w in spec["workloads"]:
            self.assertIn(w["name"], run.WORKLOADS)


class CompareTest(unittest.TestCase):
    def test_flags_only_metrics_outside_their_bound(self):
        spec = {"end_to_end": [
            {"name": "ops_s", "better": "higher", "bound": 0.1},
            {"name": "op_p50_us", "better": "lower", "bound": 0.1}]}
        old = {"ingest": {"ops_s": 100.0, "op_p50_us": 10.0}}
        new = {"ingest": {"ops_s": 85.0, "op_p50_us": 10.5}}
        rows = {r[1]: r for r in run.compare(old, new, spec)}
        self.assertTrue(rows["ops_s"][6])        # 15% fewer ops
        self.assertFalse(rows["op_p50_us"][6])   # 5% slower, inside


class LoadRecordsTest(unittest.TestCase):
    def test_skips_traced_incorrect_and_failed_records(self):
        cases = {"ok": (0, True, 0), "traced": (1, True, 0),
                 "wrong": (0, False, 0), "failed": (0, True, 3)}
        with tempfile.TemporaryDirectory() as d:
            for name, (trace, correct, failed) in cases.items():
                with open(os.path.join(d, name + ".json"), "w") as f:
                    json.dump({"workload": "ingest", "trace": trace,
                               "result": {"correct": correct,
                                          "failed": failed,
                                          "metrics": {}}}, f)
            recs, skipped = run.load_records(d)
        self.assertEqual(len(recs), 1)
        self.assertEqual(skipped, 2)


if __name__ == "__main__":
    unittest.main()
