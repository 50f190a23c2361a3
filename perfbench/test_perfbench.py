#!/usr/bin/env python3
"""The benchmark's own tests (about a minute; they build the driver):

    python3 perfbench/test_perfbench.py

- the generator gives byte-identical inputs for a seed, other inputs for
  another seed;
- every workload, metric and unit name in BENCHMARK.json, and every metric
  the driver reports, uses only letters, digits, '_', '.' and '-';
- every workload reports every declared end-to-end metric, and the traced
  run every declared per-layer metric.
"""

import json
import os
import re
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def gen(workload, seed, count=60):
    return subprocess.run(
        [run.DRIVER, "gen", "--workload", workload, "--seed", str(seed),
         "--count", str(count)],
        check=True, stdout=subprocess.PIPE).stdout


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        cls.spec = run.load_spec()
        cls.workloads = [w["name"] for w in cls.spec["workloads"]] + run.UNGATED

    def test_generator_is_deterministic_per_seed(self):
        for w in self.workloads:
            with self.subTest(workload=w):
                a, b, other = gen(w, 7), gen(w, 7), gen(w, 8)
                self.assertGreater(len(a), 0)
                self.assertEqual(a, b)
                self.assertNotEqual(a, other)

    def test_generated_lines_are_distinct_where_declared(self):
        # cold_tune and vcycle_plan promise distinct computations.
        for w in ("cold_tune", "vcycle_plan"):
            lines = gen(w, 3, 200).decode().splitlines()
            bodies = [re.sub(r'"id":"[^"]*",', "", l) for l in lines]
            self.assertEqual(len(set(bodies)), len(bodies), w)

    def test_names_and_units(self):
        names = self.workloads + [m["name"] for key in ("end_to_end", "per_layer")
                                  for m in self.spec[key]]
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertRegex(n, NAME)
        for key in ("end_to_end", "per_layer"):
            for m in self.spec[key]:
                self.assertRegex(m["unit"], UNIT)

    def run_one(self, workload, trace):
        result, rc = run.run_driver(workload, 5, 2, trace)
        self.assertEqual(rc, 0)
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        for n, m in result["metrics"].items():
            self.assertRegex(n, NAME)
            self.assertRegex(m["unit"], UNIT)
        return result

    def test_every_workload_emits_its_declared_metrics(self):
        declared = [m["name"] for m in self.spec["end_to_end"]]
        for w in self.workloads:
            with self.subTest(workload=w):
                out = run.select(self.run_one(w, False), declared)
                for n in declared:
                    self.assertGreater(out["metrics"][n]["value"], 0, n)

    def test_traced_run_emits_every_per_layer_metric(self):
        declared = [m["name"] for m in self.spec["per_layer"]]
        run.select(self.run_one(self.workloads[0], True), declared)


if __name__ == "__main__":
    unittest.main()
