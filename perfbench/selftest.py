"""Self-tests of the benchmark: the correctness gate, the tracer, the parsers,
and one short run of every workload.

    python3 perfbench/selftest.py

Temporary files go to a directory inside the checkout and are removed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import check
import run
import workloads
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

GOLDEN = ROOT / "tests" / "golden"


def _en_col(header: list[str], rows: list[list[str]]) -> tuple[int, int]:
    """(row, column) of the first non-empty E_N cell."""
    k = header.index("en_mr_oc")
    i = next(i for i, r in enumerate(rows) if r[k])
    return i, k


class GateTest(unittest.TestCase):
    def setUp(self):
        self.header, self.golden = check.read_csv(GOLDEN / "fig6a.csv")
        self.pairs = ("mr_oc", "mr_mc", "oc_mc")
        self.rows = [list(r) for r in self.golden]

    def failed(self, rows, stride=1):
        return check.failed_points(rows, self.golden, self.header,
                                   self.pairs, stride)

    def test_golden_itself_passes(self):
        self.assertEqual(self.failed(self.rows), 0)

    def test_perturbed_en_cell_is_rejected(self):
        i, k = _en_col(self.header, self.rows)
        self.rows[i][k] = repr(float(self.rows[i][k]) * (1 + 1e-6) + 1e-6)
        self.assertEqual(self.failed(self.rows), 1)

    def test_roundoff_below_tolerance_passes(self):
        i, k = _en_col(self.header, self.rows)
        self.rows[i][k] = repr(float(self.rows[i][k]) * (1 + 1e-12))
        self.assertEqual(self.failed(self.rows), 0)

    def test_missing_row_is_rejected(self):
        del self.rows[200]
        self.assertGreater(self.failed(self.rows), 0)

    def test_missing_last_row_is_rejected(self):
        self.assertEqual(self.failed(self.rows[:-1]), 1)

    def test_surplus_row_is_rejected(self):
        self.assertEqual(self.failed(self.rows + [self.rows[-1]]), 1)

    def test_stability_flip_is_rejected(self):
        k = self.header.index("stable")
        stable = next(i for i, r in enumerate(self.rows) if r[k] == "true")
        unstable = next(i for i, r in enumerate(self.rows) if r[k] == "false")
        self.rows[stable][k] = "false"
        self.rows[unstable][k] = "true"
        self.assertEqual(self.failed(self.rows), 2)

    def test_error_record_is_rejected(self):
        k = self.header.index("stable")
        self.rows[5][k] = ""
        self.rows[5][k + 1] = ""
        self.assertEqual(self.failed(self.rows), 1)

    def test_dense_grid_checks_coincident_and_other_rows(self):
        dense = []
        for row in self.rows:
            dense += [row, list(row)]
        dense = dense[:-1]  # (401 - 1) * 2 + 1 rows
        self.assertEqual(self.failed(dense, stride=2), 0)
        i, k = _en_col(self.header, self.rows)
        dense[2 * i][k] = "0.5"              # a golden-coincident row
        self.assertEqual(self.failed(dense, stride=2), 1)
        dense[2 * i + 1][k] = "-0.5"         # between goldens: negative E_N
        self.assertEqual(self.failed(dense, stride=2), 2)

    def test_meta_counts_must_match_rows(self):
        k = self.header.index("stable")
        counts = {"points": len(self.rows),
                  "stable": sum(r[k] == "true" for r in self.rows),
                  "errors": 0}
        with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
            meta = Path(tmp) / "sweep.csv.meta.json"
            meta.write_text(json.dumps({"counts": counts}))
            self.assertTrue(check.meta_matches(meta, self.rows, self.header))
            self.assertFalse(check.meta_matches(meta, self.rows[:-1],
                                                self.header))


class TracerTest(unittest.TestCase):
    def setUp(self):
        self.oemsim = workloads.import_oemsim(ROOT)

    def traced_fig3(self):
        tracer = Tracer()
        tracer.install()
        try:
            result = self.oemsim.sweep.run_sweep(self.oemsim.sweep.preset("fig3"))
        finally:
            tracer.uninstall()
        return result, *tracer.reduce()

    def test_counts_repeat_and_wrappers_are_removed(self):
        sweep = self.oemsim.sweep
        before = (sweep.run_sweep, self.oemsim.dynamics.is_stable,
                  self.oemsim.model.SystemParameters.__dict__["replace"])
        result, layers, counters = self.traced_fig3()
        _, layers2, counters2 = self.traced_fig3()
        after = (sweep.run_sweep, self.oemsim.dynamics.is_stable,
                 self.oemsim.model.SystemParameters.__dict__["replace"])
        self.assertEqual(before, after)
        self.assertEqual(counters, counters2)
        self.assertEqual({k: v["calls"] for k, v in layers.items()},
                         {k: v["calls"] for k, v in layers2.items()})
        points, stable = len(result.records), result.stable_count()
        self.assertEqual(layers["sweep.evaluate_point"]["calls"], points)
        self.assertEqual(layers["dynamics.is_stable"]["calls"], points + stable)
        # one is_stable per point, two more per stable point (solve_lyapunov
        # and its condition estimate), one baseline eigvals per point
        self.assertEqual(counters["numpy.eig"], 2 * points + 2 * stable)

    def test_self_time_excludes_children(self):
        _, layers, _ = self.traced_fig3()
        top = layers["sweep.run_sweep"]
        self.assertLess(top["self_ms"], top["total_ms"])
        self.assertGreater(top["self_ms"], 0.0)

    def test_covered_merges_overlapping_children(self):
        from tracer import _covered
        self.assertEqual(_covered([(0, 5), (3, 8), (20, 30)], 0, 25), 13)


class ParserTest(unittest.TestCase):
    def test_import_tree(self):
        text = "\n".join([
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 |       numpy.core",
            "import time:        50 |        150 |     numpy",
            "import time:        10 |         10 |         numpy.linalg",
            "import time:        40 |         50 |       scipy.linalg",
            "import time:        20 |        220 |   oemsim.dynamics",
            "import time:         5 |        225 | oemsim",
        ])
        ms = run.import_ms(text)
        self.assertAlmostEqual(ms["numpy"], 0.16)
        self.assertAlmostEqual(ms["scipy"], 0.04)
        self.assertAlmostEqual(ms["oemsim"], 0.225)

    def test_tail_percentile(self):
        self.assertEqual(run.tail([3.0, 1.0, 2.0]), (3.0, 100.0))
        value, pct = run.tail([float(i) for i in range(1, 21)])
        self.assertEqual((value, pct), (10.0, 50.0))


def _bench(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          capture_output=True, text=True, cwd=cwd, timeout=300)


class WorkloadTest(unittest.TestCase):
    def test_every_workload_is_correct_on_this_tree(self):
        for name in workloads.WORKLOADS:
            for trace in ("0", "1"):
                with self.subTest(workload=name, trace=trace):
                    proc = _bench(["--workload", name, "--seed", "1",
                                   "--seconds", "1", "--trace", trace], ROOT)
                    self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)

    def test_bare_directory_fails_without_result(self):
        with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            proc = _bench(["--workload", "presets", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], Path(tmp))
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
