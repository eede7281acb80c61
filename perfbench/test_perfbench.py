#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Builds the binary like perfbench/run.py does, then checks that
  - the output checkers flag one flipped bit in their own copy of a
    correlation or of an output share (`perfbench --selftest`);
  - every metric name and unit stays inside the result format;
  - BENCHMARK.json declares exactly the metrics the binary declares;
  - every declared metric is emitted, with its unit, on every workload
    (short runs of each workload, untraced and traced).
"""

import json
import os
import re
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
# Workloads the binary runs; BENCHMARK.json gates a subset of them.
WORKLOADS = ("ote-2p20", "cot-tiny-churn", "infer-lan-d8")


def setUpModule():
    run.build()


def benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def binary(*args):
    out = subprocess.run([run.BINARY, *args], stdout=subprocess.PIPE,
                         text=True, timeout=170)
    return out.returncode, out.stdout


class Checkers(unittest.TestCase):
    def test_selftest_flags_flipped_bits(self):
        code, out = binary("--selftest")
        self.assertEqual(code, 0, out)
        self.assertIn("one flipped bit of t is flagged", out)
        self.assertIn("one flipped bit of an output share is flagged", out)


class Declarations(unittest.TestCase):
    def test_names_and_units(self):
        bench = benchmark_json()
        names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for m in bench["end_to_end"] + bench["per_layer"]:
            self.assertRegex(m["name"], r"^[A-Za-z0-9_.-]+$")
            self.assertTrue(NAME_RE.fullmatch(m["name"]), m["name"])
            self.assertTrue(UNIT_RE.fullmatch(m["unit"]), m["unit"])
        for w in bench["workloads"]:
            self.assertIn(w["name"], WORKLOADS)

    def test_binary_and_benchmark_json_agree(self):
        code, out = binary("--list-metrics")
        self.assertEqual(code, 0)
        declared = json.loads(out)
        bench = benchmark_json()
        for kind in ("end_to_end", "per_layer"):
            want = {m["name"]: (m["unit"], m["better"]) for m in bench[kind]}
            got = {m["name"]: (m["unit"], m["better"])
                   for m in declared if m["kind"] == kind}
            self.assertEqual(want, got, kind)


class Emission(unittest.TestCase):
    def run_workload(self, workload, trace):
        code, out = binary("--workload", workload, "--seed", "7",
                           "--seconds", "1", "--trace", str(trace))
        self.assertEqual(code, 0, out)
        lines = out.strip().splitlines()
        self.assertIn("host", json.loads(lines[-2]))
        result = json.loads(lines[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], result)
        self.assertGreater(result["attempted"], 0)
        self.assertEqual(result["failed"], 0)
        return result["metrics"]

    def test_every_metric_on_every_workload(self):
        code, out = binary("--list-metrics")
        declared = json.loads(out)
        for workload in WORKLOADS:
            for trace in (0, 1):
                kind = "per_layer" if trace else "end_to_end"
                with self.subTest(workload=workload, trace=trace):
                    metrics = self.run_workload(workload, trace)
                    want = {m["name"]: m["unit"] for m in declared
                            if m["kind"] == kind}
                    got = {k: v["unit"] for k, v in metrics.items()}
                    self.assertEqual(want, got)
                    # Every value is a number; end-to-end ones are never
                    # zero (per-layer ones may be: a wait that did not
                    # happen, a ratio with nothing to count).
                    for m in declared:
                        if m["kind"] != kind or workload not in m["workloads"]:
                            continue
                        v = metrics[m["name"]]["value"]
                        self.assertEqual(v, v, m["name"])  # not NaN
                        if kind == "end_to_end":
                            self.assertGreater(v, 0, m["name"])


if __name__ == "__main__":
    unittest.main()
