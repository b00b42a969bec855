"""The benchmark's own tests.

    python3 perfbench/selftest.py

- BENCHMARK.json names exactly the metrics run.py emits, with their units;
- the reference checks pass on reference outputs and fire on perturbed ones;
- the independent variance-curve reference agrees with condlab's dense one;
- smoke mode (tiny inputs): every workload emits every metric, with
  --trace 0 and --trace 1, self times are non-negative and sum to the
  traced wall;
- without condlab sources the benchmark exits nonzero and prints no result.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import unittest

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import workloads  # noqa: E402


def _bench(*args, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    return subprocess.run([sys.executable, script, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=400)


class Declaration(unittest.TestCase):
    def test_benchmark_json_matches_run(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            decl = json.load(fh)
        self.assertEqual({m["name"]: m["unit"] for m in decl["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in decl["per_layer"]},
                         {k: unit for k, (unit, _) in run.PER_LAYER.items()})
        self.assertEqual([w["name"] for w in decl["workloads"]], list(run.WORKLOADS))
        self.assertEqual(sorted(run.WORKLOADS), sorted(workloads.WORKLOADS))


class Checks(unittest.TestCase):
    def test_reference_curve_matches_dense_spectral(self):
        from condlab.environment import Lattice, parse_law, sample_field
        from condlab.functionals import evaluate_all, functional_by_name
        from condlab.operators import build_generator
        from condlab.spectral import spectral_measure, variance_curve

        law = parse_law(workloads.LAW)
        times = np.geomspace(0.1, 20.0, 25)
        field = sample_field(law, Lattice(2, 10), 3)
        g = evaluate_all(functional_by_name("edge", 2, law), field)
        dense = variance_curve(spectral_measure(build_generator(field), g, center=False), times).values
        ref = workloads.reference_variance_curve([field.omega], 2, 10, law.mean(), times)
        self.assertLess(float(np.max(np.abs(dense - ref) / ref)), 1e-10)

    def test_spectral_check_fires(self):
        fields = [np.ones((2, 9)), 2 * np.ones((2, 9))]
        ref = np.array([1.0, 0.5, 0.25])
        ok = {"values": ref.copy(), "fields": [f.copy() for f in fields]}
        self.assertEqual(workloads.Spectral.check_one(ok, fields, ref, None), [])
        off = dict(ok, values=ref * (1 + 1e-5))
        self.assertTrue(workloads.Spectral.check_one(off, fields, ref, None))
        other = dict(ok, fields=[fields[1], fields[0]])
        self.assertTrue(workloads.Spectral.check_one(other, fields, ref, None))
        self.assertTrue(workloads.Spectral.check_one(ok, fields, ref, "measure mass off"))

    def test_corrector_check_fires(self):
        ref = workloads.load_reference()["corrector"]
        targets = [(name, True) for name in workloads.Corrector.required]
        ok = {"targets": targets, "sigma2": ref["sigma2"], "sigma2_se": ref["sigma2_se"]}
        self.assertEqual(workloads.Corrector.check_one(ok, ref), [])
        shift = 3.5 * math.hypot(ref["sigma2_se"], ref["sigma2_se"])
        self.assertTrue(workloads.Corrector.check_one(dict(ok, sigma2=ref["sigma2"] + shift), ref))
        failing = [(targets[0][0], False)] + targets[1:]
        self.assertTrue(workloads.Corrector.check_one(dict(ok, targets=failing), ref))
        self.assertTrue(workloads.Corrector.check_one(dict(ok, targets=targets[1:]), ref))

    def test_walk_check_fires(self):
        ref = workloads.load_reference()["walk"]
        targets = [(name, True) for name in workloads.Walk.required]
        ok = {"targets": targets, "msd_over_t": list(ref["msd_over_t"]), "stderr": list(ref["stderr"])}
        self.assertEqual(workloads.Walk.check_one(ok, ref), [])
        msd = list(ref["msd_over_t"])
        msd[3] += 6.0 * ref["stderr"][3]
        self.assertTrue(workloads.Walk.check_one(dict(ok, msd_over_t=msd), ref))
        self.assertTrue(workloads.Walk.check_one(dict(ok, targets=[(targets[0][0], False)]), ref))

    def test_readme_check_fires(self):
        first = [{"command": "msd", "code": 0, "result": "result: pass", "hashes": {"msd.csv": "a"}}]
        self.assertEqual(workloads.Readme.check_one(first, first), [])
        for change in ({"code": 1}, {"result": "result: fail"}, {"hashes": {"msd.csv": "b"}},
                       {"hashes": {}}):
            self.assertTrue(workloads.Readme.check_one([dict(first[0], **change)], first), change)


class Smoke(unittest.TestCase):
    def _result(self, proc):
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        lines = proc.stdout.strip().splitlines()
        result, record = json.loads(lines[-1]), json.loads(lines[-2])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertGreaterEqual(result["attempted"], 1)
        return result, record

    def test_every_workload_emits_every_metric(self):
        for name in run.WORKLOADS:
            for trace, expected in ((0, run.END_TO_END),
                                    (1, {k: u for k, (u, _) in run.PER_LAYER.items()})):
                with self.subTest(workload=name, trace=trace):
                    result, record = self._result(_bench(
                        "--workload", name, "--seed", "1", "--seconds", "1",
                        "--trace", str(trace), "--smoke"))
                    self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, expected)
                    for key, metric in result["metrics"].items():
                        self.assertTrue(math.isfinite(metric["value"]), key)
                    if trace == 0:
                        for key in expected:
                            self.assertGreater(result["metrics"][key]["value"], 0, key)
                        continue
                    check = record["detail"]["trace_check"]
                    self.assertGreaterEqual(check["min_self_s"], 0.0)
                    self.assertAlmostEqual(check["self_sum_s"], check["root_s"], delta=1e-6)
                    traced = sum(record["detail"]["traced_samples_s"])
                    self.assertAlmostEqual(check["root_s"], traced, delta=0.01 * traced + 0.005)

    def test_refuses_without_sources(self):
        bare = os.path.join(HERE, ".work", "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns(".work", ".results", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            proc = _bench("--workload", "walk", "--seed", "0", "--seconds", "1", "--trace", "0",
                          cwd=bare, script=os.path.join(bare, "perfbench", "run.py"))
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn("correct", proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
