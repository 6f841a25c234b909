#!/usr/bin/env python3
"""The benchmark's own tests: determinism and failure behaviour.

    python3 kvbench/test_kvbench.py

Builds kvbench like run.py does, then checks on short (1 s) windows that
  - two runs of one seed give identical modelled-plane metrics;
  - a traced run passes its own traced-equals-untraced check;
  - another seed gives other inputs (other modelled metrics);
  - run.py fails without a result line when the store's sources are absent.
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

# Metrics that measure the host, not the model; everything else must repeat.
HOST_METRICS = {"host_us_per_op", "host_cpu_us_per_op", "setup_s",
                "peak_rss_mb"}


def run_kvbench(binary, workload, seed, trace=0):
    proc = subprocess.run(
        [binary, f"--workload={workload}", f"--seed={seed}", "--seconds=1",
         f"--trace={trace}"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=300)
    result = json.loads(proc.stdout.strip().split("\n")[-1])
    return proc.returncode, result


def modelled(result):
    return {k: v["value"] for k, v in result["metrics"].items()
            if k not in HOST_METRICS}


class KvbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build(run.build_dir())

    def test_same_seed_same_modelled_metrics(self):
        for wl in run.WORKLOADS:
            with self.subTest(workload=wl):
                rc1, a = run_kvbench(self.binary, wl, 7)
                rc2, b = run_kvbench(self.binary, wl, 7)
                self.assertEqual((rc1, rc2), (0, 0))
                self.assertTrue(a["correct"] and b["correct"])
                self.assertEqual(modelled(a), modelled(b))

    def test_traced_run_matches_untraced(self):
        # kvbench fails the run (correct=false, exit 1) when the traced
        # window's modelled metrics differ from the untraced window's.
        for wl in run.WORKLOADS:
            with self.subTest(workload=wl):
                rc, r = run_kvbench(self.binary, wl, 7, trace=1)
                self.assertEqual(rc, 0)
                self.assertTrue(r["correct"])
                self.assertGreater(r["metrics"]["trace.spans"]["value"], 0)

    def test_seed_changes_inputs(self):
        _, a = run_kvbench(self.binary, "fillrandom", 7)
        _, b = run_kvbench(self.binary, "fillrandom", 8)
        self.assertNotEqual(modelled(a), modelled(b))

    def test_fails_without_sources(self):
        scratch = os.path.join(run.build_dir(), "test-nosrc")
        shutil.rmtree(scratch, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(scratch, "kvbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), scratch)
        env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(scratch, "b"))
        proc = subprocess.run(
            [sys.executable, "kvbench/run.py", "--workload", "fillrandom",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=scratch, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, timeout=120)
        shutil.rmtree(scratch, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
