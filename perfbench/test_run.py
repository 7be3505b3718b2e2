"""Tests of run.py's own logic and of BENCHMARK.json.

From the checkout root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'

RealRuns builds the benchmark and runs every workload, traced and not
(about a minute and a half); the other tests are instant.
"""

import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
import unittest
from unittest import mock

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

# Per-layer metrics run.py derives rather than reads from the traced
# record's "layers".
DERIVED = {"core.host_ns_per_elem", "api.prepared.hits",
           "api.prepared.misses", "api.prepared.evictions",
           "trace_overhead_pct", "serve.server_ms_p50",
           "serve.transport_ms_p50"}


def fake_record(**fields):
    """A workload process's record with every field run.py reads."""
    record = {"attempted": 1, "passed": 1, "failures": [], "lat_ms": [1.0],
              "setup_s": 1.0, "wall_s": 2.0, "cpu_s": 3.0,
              "peak_rss_mb": 100.0, "sim_digest": "0123456789abcdef",
              "headlines": {}, "fidelity": {}, "layers": {}, "samples": {},
              "info": {}}
    record.update(fields)
    return record


class Percentile(unittest.TestCase):
    def test_matches_inclusive_quantiles(self):
        values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0, 2.5]
        cuts = statistics.quantiles(values, n=10, method="inclusive")
        for i, cut in enumerate(cuts, start=1):
            self.assertAlmostEqual(run.percentile(values, 10 * i), cut)

    def test_median_and_extremes(self):
        values = [4.0, 1.0, 3.0, 2.0]
        self.assertEqual(run.percentile(values, 50),
                         statistics.median(values))
        self.assertEqual(run.percentile(values, 0), 1.0)
        self.assertEqual(run.percentile(values, 100), 4.0)
        self.assertEqual(run.percentile([7.5], 90), 7.5)

    def test_rejects_no_values(self):
        with self.assertRaises(ValueError):
            run.percentile([], 50)


class CheckNames(unittest.TestCase):
    SPEC = {"end_to_end": [{"name": "wall_s"}, {"name": "lat_p90_ms"}]}

    def test_exact_set_passes(self):
        self.assertEqual(
            run.check_names({"wall_s": 1, "lat_p90_ms": 2}, self.SPEC,
                            "end_to_end"), [])

    def test_missing_extra_and_malformed_names_are_reported(self):
        problems = run.check_names({"wall_s": 1, "extra": 3}, self.SPEC,
                                   "end_to_end")
        self.assertEqual(len(problems), 2)
        self.assertIn("extra", problems[0])
        self.assertIn("lat_p90_ms", problems[1])
        bad = {"end_to_end": [{"name": "wall s"}]}
        self.assertIn("malformed",
                      run.check_names({"wall s": 1}, bad, "end_to_end")[0])


class Tally(unittest.TestCase):
    def test_consistency_checks_count_as_operations(self):
        tally = run.Tally()
        tally.add_record({"attempted": 3, "passed": 3, "failures": []})
        tally.require(True, "unused")
        self.assertTrue(tally.correct)
        tally.require(False, "digest differs")
        self.assertFalse(tally.correct)
        self.assertEqual((tally.attempted, tally.passed), (5, 4))
        self.assertEqual(tally.problems, ["digest differs"])


class BenchmarkJson(unittest.TestCase):
    def setUp(self):
        self.spec = run.load_spec()

    def test_shape(self):
        self.assertEqual(set(self.spec), {"command", "paths", "run_seconds",
                                          "workloads", "end_to_end",
                                          "per_layer"})
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         list(run.WORKLOADS))
        for w in self.spec["workloads"]:
            self.assertLessEqual(len(w["why"]), 200)
        self.assertEqual(len(self.spec["end_to_end"]), 13)
        self.assertEqual(len(self.spec["per_layer"]), 32)

    def test_names_units_and_bounds(self):
        names = []
        for key in ("end_to_end", "per_layer"):
            for m in self.spec[key]:
                names.append(m["name"])
                self.assertRegex(m["name"], run.NAME_RE)
                self.assertLessEqual(len(m["name"]), 64)
                self.assertRegex(m["unit"], r"^[A-Za-z0-9_/%.-]{1,16}$")
                self.assertIn(m["better"], ("lower", "higher"))
                if key == "end_to_end":
                    self.assertLessEqual(m["bound"], 0.25)
        self.assertEqual(len(names), len(set(names)))
        setup = [m for m in self.spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in self.spec["end_to_end"]))

    def test_every_per_layer_metric_is_reached_by_a_workload(self):
        declared = {m["name"] for m in self.spec["per_layer"]}
        self.assertEqual(set(run.REACHED), set(run.WORKLOADS))
        reached = set()
        for names in run.REACHED.values():
            self.assertLessEqual(set(names), declared)
            reached |= set(names)
        self.assertEqual(reached, declared)


class LayerValues(unittest.TestCase):
    def setUp(self):
        self.spec = run.load_spec()
        untraced = fake_record(info={"api.prepared.hits": 1.0,
                                     "api.prepared.misses": 99.0,
                                     "api.prepared.evictions": 0.0})
        layers = {name: 1.0 for name in run.REACHED["grid_cold"]
                  if name not in DERIVED}
        traced = fake_record(wall_s=2.2, layers=layers,
                             info={"core.elems": 4e6})
        self.untraced_runs, self.traced = [untraced], traced

    def values(self):
        return run.fill_unreached(
            run.layer_values(self.untraced_runs, self.traced), "grid_cold",
            self.spec)

    def test_complete_record_emits_every_name(self):
        values = self.values()
        self.assertEqual(run.check_names(values, self.spec, "per_layer"), [])
        self.assertEqual(values["serve.sim_runs"], 0.0)
        self.assertAlmostEqual(values["trace_overhead_pct"], 10.0)
        self.assertAlmostEqual(values["core.host_ns_per_elem"], 0.25)
        self.assertEqual(values["api.prepared.misses"], 99.0)

    def test_a_dropped_span_fails_the_name_check(self):
        del self.traced["layers"]["prep.blocked_ms"]
        self.assertEqual(run.check_names(self.values(), self.spec,
                                         "per_layer"),
                         ["BENCHMARK.json per_layer prep.blocked_ms was not "
                          "emitted"])

    def test_a_missing_derivation_source_fails_the_name_check(self):
        self.traced["info"] = {}
        self.untraced_runs[0]["info"] = {}
        problems = run.check_names(self.values(), self.spec, "per_layer")
        self.assertEqual(len(problems), 4)
        self.assertTrue(all("not emitted" in p for p in problems))


class FailedChecksStillPrintTheResult(unittest.TestCase):
    """A failed grid case leaves no fid_* values; the run must still log
    the failure and print its result line with "correct": false."""

    def test_missing_fidelity(self):
        good = fake_record()
        broken_grid = fake_record(passed=0,
                                  failures=["pr-wi: internal: boom"])

        def fake_run(workload, seed, traced=False, jobs=None):
            return broken_grid if workload == "grid_cold" else good

        out, err = io.StringIO(), io.StringIO()
        with mock.patch.object(run, "build"), \
                mock.patch.object(run, "run_process", fake_run), \
                contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            code = run.main(["--workload", "sweep_warm", "--seed", "1",
                             "--seconds", "1", "--trace", "0"])
        self.assertEqual(code, 1)
        result = json.loads(out.getvalue().strip().splitlines()[-1])
        self.assertFalse(result["correct"])
        # The grid case, and the six fid_* values it left out.
        self.assertEqual(result["failed"], 7)
        self.assertNotIn("fid_fig16_err_pct", result["metrics"])
        self.assertIn("wall_s", result["metrics"])
        self.assertIn("CHECK FAILED: pr-wi: internal: boom", err.getvalue())
        self.assertIn("fid_fig16_err_pct was not emitted", err.getvalue())


class RealRuns(unittest.TestCase):
    """Builds the benchmark and runs it."""

    @classmethod
    def setUpClass(cls):
        run.build()
        cls.spec = run.load_spec()

    def test_traced_records_report_every_reached_layer(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                untraced = run.run_process(workload, 3)
                traced = run.run_process(workload, 3, traced=True)
                self.assertEqual(traced["attempted"], traced["passed"],
                                 traced["failures"])
                self.assertEqual(set(traced["layers"]),
                                 set(run.REACHED[workload]) - DERIVED)
                self.assertEqual(
                    set(run.layer_values([untraced], traced)),
                    set(run.REACHED[workload]))

    def test_untraced_run_emits_exactly_the_declared_names(self):
        proc = subprocess.run(
            [sys.executable, os.path.join(run.HERE, "run.py"), "--workload",
             "sweep_warm", "--seed", "3", "--seconds", "1", "--trace", "0"],
            cwd=run.ROOT, stdout=subprocess.PIPE, text=True)
        self.assertEqual(proc.returncode, 0)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertTrue(result["correct"])
        self.assertEqual(set(result["metrics"]),
                         {m["name"] for m in self.spec["end_to_end"]})
        for name, metric in result["metrics"].items():
            self.assertRegex(name, run.NAME_RE)
            self.assertIsInstance(metric["value"], (int, float))


if __name__ == "__main__":
    unittest.main()
