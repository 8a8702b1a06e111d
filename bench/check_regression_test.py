#!/usr/bin/env python3
"""Self-test for bench/check_regression.py.

Runs the gate as a subprocess against mutated copies of bench/baselines/
written to a temporary directory: every mutation must fail with a FAIL
row naming the field or with a schema violation naming the file and JSON
path, and never with a traceback.

    python3 bench/check_regression_test.py
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
GATE = os.path.join(HERE, "check_regression.py")
BASELINES = os.path.join(HERE, "baselines")


def gated_files():
    """The files the gate reads: bench/baselines/ minus its stdout/ goldens."""
    return [name for name in os.listdir(BASELINES)
            if os.path.isfile(os.path.join(BASELINES, name))]


class CheckRegressionTest(unittest.TestCase):
    def setUp(self):
        self.copy_baselines()

    def copy_baselines(self):
        """Fresh current and baseline copies of bench/baselines/."""
        tmp = tempfile.TemporaryDirectory()
        self.addCleanup(tmp.cleanup)
        self.current = os.path.join(tmp.name, "current")
        self.baselines = os.path.join(tmp.name, "baselines")
        shutil.copytree(BASELINES, self.current)
        shutil.copytree(BASELINES, self.baselines)

    def mutate(self, name, edit, directory=None):
        """Apply ``edit`` to the JSON document ``name``; return the doc."""
        path = os.path.join(directory or self.current, name)
        with open(path) as f:
            doc = json.load(f)
        edit(doc)
        with open(path, "w") as f:
            json.dump(doc, f)
        return doc

    def gate(self, *extra):
        env = dict(os.environ)
        env.pop("GITHUB_STEP_SUMMARY", None)
        result = subprocess.run(
            [sys.executable, GATE, "--baselines", self.baselines,
             "--current", self.current, *extra],
            capture_output=True, text=True, env=env)
        self.assertNotIn("Traceback", result.stderr)
        return result

    def assertFailRow(self, result, bench, metric):
        self.assertEqual(result.returncode, 1, result.stderr)
        rows = [line.split() for line in result.stdout.splitlines()]
        self.assertIn([bench, metric, "FAIL"],
                      [[r[0], r[1], r[-1]] for r in rows if len(r) > 2],
                      result.stdout)

    def assertViolation(self, result, name, where, what=""):
        self.assertNotEqual(result.returncode, 0)
        prefix = "error: %s: %s: expected %s" % (
            os.path.join(self.current, name), where, what)
        self.assertTrue(
            any(line.startswith(prefix)
                for line in result.stderr.splitlines()),
            "no %r in:\n%s" % (prefix, result.stderr))

    def test_baselines_pass_against_themselves(self):
        result = self.gate()
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        self.assertEqual(result.stderr, "")
        self.assertIn("perf gate: ok", result.stdout)

    def test_exact_count_drift_fails(self):
        def edit(doc):
            doc["results"][0]["batches"] += 1

        doc = self.mutate("BENCH_serving.json", edit)
        cell = doc["results"][0]
        self.assertFailRow(self.gate(), "serving", "rps=%g/%s.batches"
                           % (cell["arrival_rps"], cell["policy"]))

    def test_dropped_cell_fails(self):
        doc = self.mutate("BENCH_cluster.json",
                          lambda d: d["results"].pop())
        with open(os.path.join(BASELINES, "BENCH_cluster.json")) as f:
            dropped = json.load(f)["results"][len(doc["results"])]
        self.assertFailRow(self.gate(), "cluster", "rps=%g/x%d/%s" % (
            dropped["arrival_rps"], dropped["replicas"], dropped["policy"]))

    def test_gated_ratio_below_tolerance_fails(self):
        def edit(doc):
            doc["min_speedup"] *= 0.7

        self.mutate("BENCH_kernels.json", edit)
        self.assertFailRow(self.gate(), "kernels", "min_speedup")

    def test_atsel_mismatch_and_slowdown_fail(self):
        def edit(doc):
            doc["atsel_shapes"][1]["bit_exact"] = False
            doc["atsel_min_speedup"] *= 0.7

        self.mutate("BENCH_kernels.json", edit)
        result = self.gate()
        self.assertViolation(result, "BENCH_kernels.json",
                             ".atsel_shapes[1].bit_exact", "== true")
        self.assertFailRow(result, "kernels", "atsel_min_speedup")

    def test_gelu_error_and_slowdown_fail(self):
        def edit(doc):
            doc["gelu_max_abs_err"] = 2e-6
            doc["gelu_speedup"] *= 0.7

        self.mutate("BENCH_kernels.json", edit)
        result = self.gate()
        self.assertViolation(result, "BENCH_kernels.json",
                             ".gelu_max_abs_err", "<= 1e-06")
        self.assertFailRow(result, "kernels", "gelu_speedup")

    def test_elementwise_body_mismatch_fails(self):
        def edit(doc):
            doc["gelu_isas"][0]["bit_exact"] = False
            doc["quantize_shapes"][1]["isas"][0]["bit_exact"] = False
            doc["normal_isas"][0]["bit_exact"] = False

        self.mutate("BENCH_kernels.json", edit)
        result = self.gate()
        self.assertViolation(result, "BENCH_kernels.json",
                             ".gelu_isas[0].bit_exact", "== true")
        self.assertViolation(result, "BENCH_kernels.json",
                             ".quantize_shapes[1].isas[0].bit_exact",
                             "== true")
        self.assertViolation(result, "BENCH_kernels.json",
                             ".normal_isas[0].bit_exact", "== true")

    def test_float_gemm_body_mismatch_fails(self):
        def edit(doc):
            doc["shapes"][2]["isas"][-1]["bit_exact"] = False

        doc = self.mutate("BENCH_kernels.json", edit)
        last = len(doc["shapes"][2]["isas"]) - 1
        result = self.gate()
        self.assertViolation(result, "BENCH_kernels.json",
                             ".shapes[2].isas[%d].bit_exact" % last,
                             "== true")

    def test_kernel_isa_stamp_is_reported_not_gated(self):
        self.mutate("BENCH_kernels.json",
                    lambda d: d["host"].update(kernel_arch="avx512vnni"))
        result = self.gate()
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        rows = [line.split() for line in result.stdout.splitlines()]
        self.assertIn(["kernels", "kernel_arch", "portable", "avx512vnni",
                       "info", "info"], rows)

    def test_headline_flip_fails(self):
        def edit(doc):
            doc["bucketed_beats_round_robin"] = False

        self.mutate("BENCH_cluster.json", edit)
        result = self.gate()
        self.assertFailRow(result, "cluster", "bucketed_beats_round_robin")
        self.assertViolation(result, "BENCH_cluster.json",
                             ".bucketed_beats_round_robin", "== true")

    def test_every_file_has_a_failing_schema_predicate(self):
        def set_key(path, value):
            def edit(doc):
                *parents, last = path
                for key in parents:
                    doc = doc[key]
                doc[last] = value
            return edit

        def miscount(doc):
            doc["results"][2]["misses"] += 1

        def extra_replica(doc):
            replicas = doc["winner"]["design"]["replicas"]
            replicas.append(replicas[0])

        cases = [
            ("BENCH_kernels.json", set_key(["arch"], 5), ".arch",
             "a string"),
            ("BENCH_runtime.json",
             set_key(["workspace", "alloc_ms"], "fast"),
             ".workspace.alloc_ms", "a number"),
            ("BENCH_serving.json",
             set_key(["results", 0, "busy_frac"], 1.5),
             ".results[0].busy_frac", "<= 1.000001"),
            ("BENCH_cluster.json",
             set_key(["results", 1, "request_imbalance"], 0.5),
             ".results[1].request_imbalance", ">= 1"),
            ("BENCH_cache.json", miscount, ".results[2]",
             "hits + coalesced + misses == requests"),
            ("BENCH_shard.json",
             set_key(["results", 0, "comm_fraction"], -0.1),
             ".results[0].comm_fraction", ">= 0"),
            ("BENCH_search.json", extra_replica, ".winner",
             "design.replicas|length == replicas"),
            ("BENCH_adaptive.json",
             set_key(["ladder", 0, "escalate"], "no"),
             ".ladder[0].escalate", "a boolean"),
            ("BENCH_obs.json", set_key(["manifest", "name"], "other"),
             ".manifest.name", '== "bench_obs/serving_sweep"'),
            ("BREAKDOWN_obs.json", set_key(["critical_path"], ""),
             ".critical_path", "length >= 1"),
        ]
        self.assertEqual(len(cases), len(gated_files()))
        for name, edit, where, what in cases:
            with self.subTest(name):
                self.copy_baselines()
                self.mutate(name, edit)
                self.assertViolation(self.gate(), name, where, what)

    def test_schema_runs_on_the_baseline_too(self):
        self.mutate("BENCH_obs.json",
                    lambda d: d["overflow"].update(accounted_ok=False),
                    directory=self.baselines)
        result = self.gate()
        self.assertEqual(result.returncode, 1)
        self.assertIn("error: %s: .overflow.accounted_ok: expected == true"
                      % os.path.join(self.baselines, "BENCH_obs.json"),
                      result.stderr)

    def test_missing_tier_is_a_named_row(self):
        doc = self.mutate("BENCH_adaptive.json",
                          lambda d: d["results"][0]["tiers"].pop())
        self.assertFailRow(self.gate(), "adaptive", "%s.tiers[%d]" % (
            doc["results"][0]["config"], len(doc["results"][0]["tiers"])))

    def test_extra_tier_is_a_named_row(self):
        def edit(doc):
            tiers = doc["results"][0]["tiers"]
            tiers.append(dict(tiers[-1]))

        doc = self.mutate("BENCH_adaptive.json", edit)
        tiers = doc["results"][0]["tiers"]
        result = self.gate()
        self.assertFailRow(result, "adaptive", "%s.tiers[%d]" % (
            doc["results"][0]["config"], len(tiers) - 1))
        self.assertIn("(new, not in baseline)", result.stdout)

    def test_wrong_type_is_a_named_violation(self):
        self.mutate("BENCH_kernels.json",
                    lambda d: d.update(min_speedup=None))
        result = self.gate()
        self.assertViolation(result, "BENCH_kernels.json", ".min_speedup",
                             "a number, got null")
        self.assertFailRow(result, "kernels", "min_speedup")

    def test_update_refuses_a_file_that_breaks_its_schema(self):
        self.mutate("BENCH_cache.json",
                    lambda d: d.update(cache_beats_uncached_at_dup_gate=False))
        result = self.gate("--update")
        self.assertEqual(result.returncode, 2)
        self.assertIn("refusing to re-record", result.stderr)
        for name in gated_files():
            with open(os.path.join(BASELINES, name), "rb") as want, \
                    open(os.path.join(self.baselines, name), "rb") as got:
                self.assertEqual(got.read(), want.read(), name)


if __name__ == "__main__":
    unittest.main()
