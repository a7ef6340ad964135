"""Shows that each output check of the benchmark rejects a corrupted output.

    python3 perfbench/selftest.py

Runs small margauss sweeps in-process, checks that their real outputs pass,
then corrupts them one way at a time and checks that the matching check
fails. Also checks the quadrature references against known values and the
self-time arithmetic of the trace on a hand-made span tree.
"""

import contextlib
import copy
import dataclasses
import io
import math
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
from run import WORKLOADS, Sweep  # noqa: E402

import margauss.cli  # noqa: E402

SEED = 7
OUT = os.path.join(ROOT, ".perfbench_out", "selftest")


def _sweep_rows(name: str, workload: Sweep) -> list[dict]:
    """Run `workload` at a small N through the CLI and parse its CSV."""
    os.makedirs(OUT, exist_ok=True)
    (config,) = workload.prepare(OUT, SEED)
    csv_path = os.path.join(OUT, f"{name}.csv")
    with contextlib.redirect_stdout(io.StringIO()):
        assert margauss.cli.main(["experiment", "--config", config, "--out", csv_path]) == 0
    with open(csv_path) as fh:
        return checks.parse_csv(fh.read())


class SweepChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.uniform = dataclasses.replace(WORKLOADS["sweep-uniform"], samples=20_000)
        cls.sliced = dataclasses.replace(WORKLOADS["sliced-lowdim"], samples=20_000)
        cls.uniform_rows = _sweep_rows("uniform", cls.uniform)
        cls.sliced_rows = _sweep_rows("sliced", cls.sliced)

    def sweep_problems(self, workload, rows):
        return checks.check_sweep(rows, workload.keys(SEED), workload.samples, workload.metrics)

    def test_real_outputs_pass(self):
        self.assertEqual(self.sweep_problems(self.uniform, self.uniform_rows), [])
        self.assertEqual(checks.check_irwin_hall_rows(self.uniform_rows), [])
        self.assertEqual(self.sweep_problems(self.sliced, self.sliced_rows), [])
        self.assertEqual(checks.check_gaussian_rows(self.sliced_rows), [])

    def test_dropped_row_is_rejected(self):
        self.assertTrue(self.sweep_problems(self.uniform, self.uniform_rows[1:]))

    def test_wrong_sample_count_is_rejected(self):
        rows = copy.deepcopy(self.uniform_rows)
        rows[0]["N"] = str(self.uniform.samples - 1)
        self.assertTrue(self.sweep_problems(self.uniform, rows))

    def test_emp_w1_past_the_bound_is_rejected(self):
        rows = copy.deepcopy(self.uniform_rows)
        rows[-1]["emp_w1"] = repr(float(rows[-1]["bound_d1_thm"]) * 1.01)
        self.assertTrue(self.sweep_problems(self.uniform, rows))

    def test_corollary_above_theorem_is_rejected(self):
        rows = copy.deepcopy(self.uniform_rows)
        rows[0]["bound_d1_cor"] = repr(float(rows[0]["bound_d1_thm"]) * 1.01)
        self.assertTrue(self.sweep_problems(self.uniform, rows))

    def test_negative_or_non_finite_values_are_rejected(self):
        for column, value in (("emp_w1_se", "-1e-3"), ("bound_dtv_cor", "nan"),
                              ("l4_sum", "inf"), ("emp_tv", "")):
            rows = copy.deepcopy(self.sliced_rows)
            rows[0][column] = value
            self.assertTrue(self.sweep_problems(self.sliced, rows), column)

    def test_gaussian_row_shifted_by_0_05_is_rejected(self):
        for column in ("emp_w1", "emp_ks"):
            rows = copy.deepcopy(self.sliced_rows)
            row = next(r for r in rows if r["body"] == "product-gaussian" and r["k"] == "1")
            row[column] = repr(float(row[column]) + 0.05)
            self.assertTrue(checks.check_gaussian_rows(rows), column)

    def test_sliced_gaussian_row_shifted_by_0_05_is_rejected(self):
        rows = copy.deepcopy(self.sliced_rows)
        row = next(r for r in rows if r["body"] == "product-gaussian" and r["k"] == "2")
        row["emp_w1"] = repr(float(row["emp_w1"]) + 0.05)
        self.assertTrue(checks.check_gaussian_rows(rows))

    def test_uniform_row_off_the_irwin_hall_law_is_rejected(self):
        rows = copy.deepcopy(self.uniform_rows)
        rows[0]["emp_w1"] = repr(float(rows[0]["emp_w1"]) + 0.05)
        self.assertTrue(checks.check_irwin_hall_rows(rows))


class VerifyChecks(unittest.TestCase):
    def test_real_output_passes_and_residual_1e_9_is_rejected(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = margauss.cli.main(["verify", "pair", "--body", "simplex", "--n", "16",
                                      "--k", "3", "--frame", "haar", "--samples", "20",
                                      "--seed", str(SEED)])
        text = out.getvalue()
        self.assertEqual(checks.check_verify_output(text, code), [])
        for name in ("linearity_residual", "second_moment_residual"):
            corrupted = "\n".join(f"{name}=1.000e-09" if line.startswith(name) else line
                                  for line in text.splitlines())
            self.assertTrue(checks.check_verify_output(corrupted, code), name)
        self.assertTrue(checks.check_verify_output(text.replace("second_moment", "x"), code))
        self.assertTrue(checks.check_verify_output(text, 1))


class References(unittest.TestCase):
    def test_irwin_hall_w1_matches_a_finer_quadrature(self):
        # Values from a 4001 x 3201 Gil-Pelaez grid on t <= 24, |x| <= 10.
        for m, exact in ((16, 4.8104146e-3), (64, 1.1853131e-3), (256, 2.9527407e-4),
                         (1024, 7.3753033e-5)):
            self.assertAlmostEqual(checks.w1_irwin_hall(m), exact, delta=2e-8)

    def test_floor_matches_the_closed_form_constant(self):
        mean, sd = checks.w1_floor_and_sd()
        self.assertAlmostEqual(mean, 1.2883792, places=6)
        self.assertTrue(0.3 < sd < 0.6)


class TraceArithmetic(unittest.TestCase):
    def test_self_times_counts_and_raises(self):
        span = lambda name, start, end, parent, rss0, rss1, count=0: [  # noqa: E731
            name, start, end, parent, None, rss0, rss1, count]
        spans = [
            span("cli.main", 0.0, 10.0, -1, 100, 1124),
            span("stein.pair_terms", 1.0, 6.0, 0, 100, 612),
            span("bodies.sample", 2.0, 4.0, 1, 100, 356, count=300),
            span("bodies.sample", 7.0, 8.0, 0, 612, 612, count=300),
            span("metrics.w1_1d", 8.0, 9.5, 0, 612, 1124),
        ]
        dump = {"spans": spans, "edge_matrix_elements": 5, "ppf_elements": 6}
        got = tracing.layer_metrics(dump, wall_s=10.0, useful_elements=300)
        self.assertAlmostEqual(got["cli.self_s"], 10.0 - 5.0 - 1.0 - 1.5)
        self.assertAlmostEqual(got["stein.pair_terms_self_s"], 3.0)
        self.assertAlmostEqual(got["bodies.sample_for_pairs_s"], 2.0)
        self.assertAlmostEqual(got["bodies.sample_for_metrics_s"], 1.0)
        self.assertEqual(got["bodies.elements_drawn"], 600)
        self.assertAlmostEqual(got["bodies.useful_draw_ratio"], 0.5)
        self.assertAlmostEqual(got["bodies.peak_raise_mb"], 0.25)
        self.assertAlmostEqual(got["stein.peak_raise_mb"], 0.25)
        self.assertAlmostEqual(got["metrics.peak_raise_mb"], 0.5)
        self.assertAlmostEqual(got["trace.layer_share"], (3.0 + 2.0 + 1.0 + 1.5) / 10.0)
        self.assertEqual(got["stein.edge_matrix_elements"], 5)
        self.assertEqual(set(got) | {"trace.overhead_s"}, set(tracing.UNITS))
        self.assertTrue(all(math.isfinite(v) for v in got.values()))


if __name__ == "__main__":
    unittest.main()
