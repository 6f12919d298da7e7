#!/usr/bin/env python3
"""Self-tests of the benchmark, on short runs.

    python3 perfbench/tests/test_vpbench.py

Builds vpbench through perfbench/run.py on first use (a few minutes cold).
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(PERFBENCH)
RUN = os.path.join(PERFBENCH, "run.py")
SECONDS = "1"

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", SECONDS, "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError("%s seed %d trace %d exited %d" %
                             (workload, seed, trace, proc.returncode))
    lines = proc.stdout.strip().splitlines()
    host = [l for l in lines if l.startswith("host ")]
    return json.loads(lines[-1]), json.loads(host[-1][len("host "):])


class ShortRuns(unittest.TestCase):
    def test_every_metric_is_printed_with_its_unit(self):
        for w in SPEC["workloads"]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w["name"], trace=trace):
                    result, host = run(w["name"], 1, trace)
                    self.assertEqual(
                        set(result), {"correct", "attempted", "failed",
                                      "metrics"})
                    self.assertIs(result["correct"], True)
                    self.assertGreaterEqual(result["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in SPEC[key]}
                    got = {n: m["unit"] for n, m in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for stamp in ("hardware_threads", "runtime_workers",
                                  "build_type", "seed"):
                        self.assertIn(stamp, host)
                    if trace == 0:
                        for name, m in result["metrics"].items():
                            self.assertGreater(m["value"], 0, name)

    def test_partition_heal_counts_repeat_on_one_seed(self):
        a, _ = run("partition-heal", 5, 0)
        b, _ = run("partition-heal", 5, 0)
        for name in ("msgs_per_commit", "outage_ms", "avail_frac"):
            self.assertEqual(a["metrics"][name]["value"],
                             b["metrics"][name]["value"], name)
        self.assertEqual((a["attempted"], a["failed"]),
                         (b["attempted"], b["failed"]))
        ta, _ = run("partition-heal", 5, 1)
        tb, _ = run("partition-heal", 5, 1)
        self.assertEqual(ta["metrics"]["wal.fsyncs_per_commit"]["value"],
                         tb["metrics"]["wal.fsyncs_per_commit"]["value"])

    def test_a_second_seed_also_certifies(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                result, host = run(w["name"], 2, 0)
                self.assertIs(result["correct"], True)
                self.assertEqual(host["seed"], 2)


if __name__ == "__main__":
    unittest.main()
