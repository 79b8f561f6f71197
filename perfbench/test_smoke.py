"""Smoke test of the benchmark itself (about half a minute):

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Runs each workload on its cheapest op, untraced and traced, and checks the
emitted metric names and units against BENCHMARK.json; checks that a
corrupted or missing golden output counts as a failed op; checks that an
op's max-RSS is its own, not the harness's; and checks that the benchmark
refuses to run where the sources are missing.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402

CHEAPEST = {
    "stable_cells": workloads.cli("stable-cohomology 2 4"),
    "verify_maps": workloads.cli("--json verify rw-prop 2 1 1"),
    "explicit_modules": workloads.api("character_table", "14"),
}


def load_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = load_json(run.ROOT / "BENCHMARK.json")
        cls.golden = load_json(run.HERE / "golden.json")

    def expected(self, section: str) -> dict:
        return {m["name"]: m["unit"] for m in self.spec[section]}

    def test_metric_names_match_benchmark_json(self):
        self.assertEqual(sorted(CHEAPEST), sorted(w["name"] for w in self.spec["workloads"]))
        for workload, op in CHEAPEST.items():
            self.assertIn(op, workloads.all_ops(workload))
            for trace, section in ((False, "end_to_end"), (True, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    metrics, checker, _ = run.run_ops([op], 0, trace, self.golden)
                    out = run.result(metrics, checker)
                    self.assertTrue(out["correct"])
                    self.assertEqual(out["failed"], 0)
                    got = {n: m["unit"] for n, m in out["metrics"].items()}
                    self.assertEqual(got, self.expected(section))
                    json.dumps(out)  # the result line must serialize

    def test_corrupted_golden_is_a_failure(self):
        op = CHEAPEST["stable_cells"]
        for corrupt in ("sha256", "exit", "missing"):
            with self.subTest(corrupt=corrupt):
                golden = {k: dict(v) for k, v in self.golden.items()}
                if corrupt == "sha256":
                    golden[op.key]["sha256"] = hashlib.sha256(b"wrong").hexdigest()
                elif corrupt == "exit":
                    golden[op.key]["exit"] = 1
                else:
                    del golden[op.key]
                metrics, checker, _ = run.run_ops([op], 0, False, golden)
                out = run.result(metrics, checker)
                self.assertFalse(out["correct"])
                self.assertEqual(out["failed"], 1)
                self.assertLess(out["metrics"]["ok_frac"]["value"], 1.0)

    def test_formula_checks_reject_a_wrong_api_summary(self):
        op = workloads.api("schur_gl", "2,2", "4")
        summary = {"decomposition": {"2,2": 1}, "dimension": 21}  # true dim is 20
        stdout = json.dumps(summary, sort_keys=True, separators=(",", ":")).encode()
        golden = {op.key: {"exit": 0, "sha256": hashlib.sha256(stdout).hexdigest()}}
        checker = run.Checker(golden)
        self.assertFalse(checker.check(op, 0, stdout))
        self.assertEqual(checker.failed, 1)

    def test_ops_are_seeded_and_golden_covers_every_pool_op(self):
        for workload in workloads.POOLS:
            self.assertEqual(
                workloads.build_ops(workload, 7), workloads.build_ops(workload, 7)
            )
            for op in workloads.all_ops(workload):
                self.assertIn(op.key, self.golden)
                self.assertFalse(any(a.startswith(workloads.FORBIDDEN_FLAGS) for a in op.args))

    def test_op_reports_its_own_max_rss(self):
        # The harness holds the probe's list, so its peak RSS is far above a
        # bare interpreter's; an op forked straight from it would report it.
        run._become_subreaper()
        res = run.run_sliced([sys.executable, "-c", "import time; time.sleep(0.5)"],
                             run.op_env())
        self.assertEqual(res["code"], 0)
        self.assertGreater(res["wall_ref"], 0)
        with open("/proc/self/status", encoding="ascii") as fh:
            hwm_kb = next(int(ln.split()[1]) for ln in fh if ln.startswith("VmHWM:"))
        self.assertLess(res["rss_mb"], hwm_kb / 1024.0 / 2)

    def test_refuses_to_run_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(run.HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                self.spec["command"] + ["--workload", "stable_cells", "--seed", "1",
                                        "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn(b'"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
