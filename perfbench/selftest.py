"""Tests of the benchmark itself.

    python3 perfbench/selftest.py

They check that the planar generator reproduces the test suite's models,
that the seed only orders the ops, that tracing puts every wrapped function
back, that a missing wrap target makes its metrics absent instead of
failing, that a changed output fails its check, that times are scaled by the
yardstick runs around them, and that BENCHMARK.json names exactly the
metrics run.py prints.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import checks  # noqa: E402
import conftest  # noqa: E402
import models  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SIERPINSKI = os.path.join(ROOT, "models", "sierpinski.json")


def _fractions(rows):
    return tuple(tuple(Fraction(v) for v in row) for row in rows)


def _analyze(cli_main, out):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli_main(["analyze", SIERPINSKI, "--json", out])


class GeneratorTest(unittest.TestCase):
    def test_planar_set_is_the_suite_set(self):
        suite = conftest.suite5_models()
        items = models.workload_models("planar-exact")
        self.assertEqual(len(items), len(suite))
        for (model_id, doc), model in zip(items, suite):
            with self.subTest(model=model_id):
                self.assertEqual(_fractions(doc["matrix"]), model.matrix)
                self.assertEqual(_fractions(doc["digits"]), model.digits)

    def test_float_mirror_differs_only_in_arithmetic(self):
        exact = models.workload_models("planar-exact")
        floats = models.workload_models("planar-float")
        for (id_a, doc_a), (id_b, doc_b) in zip(exact, floats):
            self.assertEqual(id_a, id_b)
            self.assertEqual(doc_b["arithmetic"], "float")
            self.assertEqual(dict(doc_a, arithmetic="float"), doc_b)

    def test_seed_orders_the_same_ops(self):
        with tempfile.TemporaryDirectory() as work:
            for workload in ("spatial-exact", "cli-files"):
                a = workloads.build_ops(workload, 11, ROOT, work)
                self.assertEqual(a, workloads.build_ops(workload, 11, ROOT, work))
                b = workloads.build_ops(workload, 12, ROOT, work)
                self.assertNotEqual(a, b)
                self.assertEqual(sorted(a, key=repr), sorted(b, key=repr))


class TraceTest(unittest.TestCase):
    def setUp(self):
        self.cli_main = run.fresh_import()
        self.tmp = tempfile.TemporaryDirectory()
        self.out = os.path.join(self.tmp.name, "report.json")

    def tearDown(self):
        self.tmp.cleanup()

    def _originals(self):
        return {
            (module, attr): getattr(sys.modules[module], attr)
            for module, attr, _ in tracing.TARGETS
        }

    def test_untraced_runs_see_the_original_functions(self):
        before = self._originals()
        with tracing.Tracer() as tracer:
            tracer.begin_op("sierpinski")
            self.assertEqual(_analyze(self.cli_main, self.out), 0)
            tracer.end_op()
            for key, original in before.items():
                self.assertIsNot(getattr(sys.modules[key[0]], key[1]), original)
        self.assertGreater(len(tracer.spans), 1)
        after = self._originals()
        for key, original in before.items():
            self.assertIs(after[key], original, key)
        count = len(tracer.spans)
        self.assertEqual(_analyze(self.cli_main, self.out), 0)
        self.assertEqual(len(tracer.spans), count)
        with tracer:  # entered again, as run.py does for every traced op
            self.assertEqual(_analyze(self.cli_main, self.out), 0)
        self.assertEqual(len(tracer.spans), 2 * count - 1)  # no root span this time
        self.assertEqual(self._originals(), before)

    def test_missing_target_makes_its_metrics_absent(self):
        targets = tuple(
            (module, "_no_such_step" if attr == "_step" and module.endswith("decide") else attr, name)
            for module, attr, name in tracing.TARGETS
        ) + (("fractalhull.no_such_module", "render_svg", "render.render"),)
        with tracing.Tracer(targets) as tracer:
            tracer.begin_op("sierpinski")
            self.assertEqual(_analyze(self.cli_main, self.out), 0)
            tracer.end_op()
        selfs = tracing.self_times(tracer.spans)
        values, absent = tracing.layer_values(tracer, [tracing.aggregate(tracer.spans, selfs)])
        for name in ("ifs.steps", "ifs.step_ms", "ifs.step_useful_ratio"):
            self.assertIn("_no_such_step not found", absent[name])
            self.assertNotIn(name, values)
        self.assertIn("no_such_module not found", absent["render.svg_bytes"])
        self.assertGreater(values["hull.convex_hull_calls"], 0)
        self.assertEqual(values["decide.certify_calls"], 1)

    def test_self_time_excludes_children(self):
        with tracing.Tracer() as tracer:
            tracer.begin_op("sierpinski")
            _analyze(self.cli_main, self.out)
            tracer.end_op()
        selfs = tracing.self_times(tracer.spans)
        root = tracer.spans[0]
        self.assertLess(selfs[0], root[tracing.END] - root[tracing.START])
        self.assertTrue(all(s >= -1e-6 for s in selfs))


class CheckTest(unittest.TestCase):
    def test_changed_report_fails_its_check(self):
        with tempfile.TemporaryDirectory() as work:
            cli_main = run.fresh_import()
            op = workloads.build_ops("cli-files", models.DEFAULT_SEED, ROOT, work)[0]
            with open(run.REFERENCE, encoding="utf-8") as handle:
                reference = json.load(handle)["cli-files"][op.op_id]
            _elapsed, code, error = workloads.run_op(cli_main, op)
            self.assertEqual(workloads.check_op(op, code, error, reference), [])
            with open(op.out_path, "a", encoding="utf-8") as handle:
                handle.write(" ")
            problems = workloads.check_op(op, code, error, reference)
            self.assertTrue(any("sha256" in p for p in problems))

    def test_uncertified_rational_polytope_is_a_problem(self):
        report = {"decision": {"verdict": "POLYTOPE", "certified": False},
                  "sw_check": {"status": "agree"}}
        self.assertEqual(checks.rule_problems(report, exact=True),
                         ["rational POLYTOPE is not certified"])
        self.assertEqual(checks.rule_problems(report, exact=False), [])


class ScaleTest(unittest.TestCase):
    def test_time_is_scaled_by_the_yardstick_runs_around_it(self):
        bench = run.Run.__new__(run.Run)
        bench.yardsticks = [2 * run.YARDSTICK_S]
        original = run.yardstick
        run.yardstick = lambda: 4 * run.YARDSTICK_S
        try:
            self.assertAlmostEqual(bench.scaled(0.9), 0.3)
            self.assertAlmostEqual(bench.scaled(0.8), 0.2)
        finally:
            run.yardstick = original
        self.assertEqual(len(bench.yardsticks), 3)


class BenchmarkFileTest(unittest.TestCase):
    def test_benchmark_json_names_the_printed_metrics(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
            spec = json.load(handle)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        printed = run.end_to_end([0.1, 0.2, 0.3], [0.5])
        self.assertEqual([m["name"] for m in spec["end_to_end"]], list(printed))
        layer = list(tracing.LAYER_METRICS) + ["trace.overhead_ratio"]
        self.assertEqual([m["name"] for m in spec["per_layer"]], layer)


if __name__ == "__main__":
    unittest.main()
