#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_perfbench.py

Each workload runs with one seed untraced and traced: both must pass
every output check and print the same simulated digest.  A second seed
must also pass every check, with a different digest (the seed reaches
the simulation).  Bad arguments must fail without a result line.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
ROOT = os.path.dirname(HERE)
WORKLOADS = ("echo_small", "echo_bulk", "flight_storm")


def bench(workload, seed, trace, seconds=1):
    out = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    digest = [l.split()[1] for l in lines if l.startswith("sim_digest ")]
    return out.returncode, json.loads(lines[-1]), digest[0], out.stdout


class PerfbenchTest(unittest.TestCase):
    def test_seed_gives_same_digest_traced_and_untraced(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                rc0, res0, dig0, log0 = bench(w, 7, 0)
                rc1, res1, dig1, log1 = bench(w, 7, 1)
                self.assertEqual(rc0, 0, log0)
                self.assertEqual(rc1, 0, log1)
                self.assertTrue(res0["correct"] and res1["correct"])
                self.assertEqual(res0["failed"], 0)
                self.assertEqual(dig0, dig1)
                self.assertIn("trace_overhead", res1["metrics"])
                self.assertIn("host_req_per_s", res0["metrics"])

    def test_second_seed_passes_every_check(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                rc, res, dig, log = bench(w, 8, 0)
                self.assertEqual(rc, 0, log)
                self.assertTrue(res["correct"])
                self.assertIn("0 distinct failures", log)
                _, _, dig7, _ = bench(w, 7, 0)
                self.assertNotEqual(dig, dig7)

    def test_bad_arguments_fail_without_result(self):
        out = subprocess.run(
            [sys.executable, RUN, "--workload", "nope", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True)
        self.assertNotEqual(out.returncode, 0)
        self.assertNotIn('"correct"', out.stdout)


if __name__ == "__main__":
    unittest.main()
