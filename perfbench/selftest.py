"""Self-test of the benchmark: every workload at reduced size, and proof
that each output check rejects a corrupted result.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import tempfile
import unittest
from pathlib import Path

import run

run.ensure_program()

import workloads  # noqa: E402


class ReducedWorkloads(unittest.TestCase):
    """Each workload, untraced and traced, passes its own checks."""

    def _run(self, name: str, traced: bool) -> dict:
        bench = run.Run(name, seed=7, seconds=0.5, small=True)
        try:
            if traced:
                metrics = bench.measure_traced()
                self.assertGreater(metrics["trace.spans"], 1)
            else:
                metrics = bench.measure()
            result = bench.result(metrics, {k: "" for k in metrics})
        finally:
            bench.close()
        self.assertEqual(result["failed"], 0, result)
        self.assertGreaterEqual(result["attempted"], 2)
        return metrics

    def test_end_to_end_metrics(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                metrics = self._run(name, traced=False)
                self.assertEqual(set(metrics), set(run.END_TO_END_UNITS))
                self.assertTrue(all(v > 0 for v in metrics.values()), metrics)

    def test_per_layer_metrics(self):
        units = run.layer_units()
        stressed = {"cli-samples": "cli.import_share",
                    "check-board": "circuit.share",
                    "render-coils": "simulator.rasterize_s"}
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                metrics = self._run(name, traced=True)
                self.assertLessEqual(set(units), set(metrics))
                self.assertGreater(metrics[stressed[name]], 0)


class ChecksRejectCorruption(unittest.TestCase):
    """A correct pass is accepted; each corruption of it is rejected."""

    @classmethod
    def setUpClass(cls):
        run.WORK.mkdir(exist_ok=True)
        cls.work = Path(tempfile.mkdtemp(dir=run.WORK, prefix="selftest-"))
        cls.worker = run.Worker()

    @classmethod
    def tearDownClass(cls):
        cls.worker.close()
        shutil.rmtree(cls.work, ignore_errors=True)

    def _passed(self, make_workload):
        (cmd,) = make_workload(seed=3, root=run.ROOT, work=self.work,
                               small=True).commands
        outcome = run.worker_pass(self.worker, cmd)
        self.assertEqual(outcome.problems, [])
        return cmd

    def _corrupt_report(self, cmd, edit):
        path = cmd.outputs[0]
        report = json.loads(path.read_bytes())
        edit(report)
        path.write_text(json.dumps(report))
        return cmd.check()

    def test_merged_net_is_rejected(self):
        cmd = self._passed(workloads.check_board)

        def merge(report):
            nets = report["checks"]["nets"]
            nets[0]["segments"] += nets.pop(1)["segments"]
        self.assertTrue(self._corrupt_report(cmd, merge))

    def test_wrong_connectivity_is_rejected(self):
        cmd = self._passed(workloads.check_board)

        def flip(report):
            entry = report["checks"]["connectivity"][0]
            entry["connected"] = not entry["connected"]
        self.assertTrue(self._corrupt_report(cmd, flip))

    def test_wrong_ohms_are_rejected(self):
        cmd = self._passed(workloads.check_board)

        def skew(report):
            for entry in report["checks"]["resistance"]:
                if entry["pads"] == ["Cin", "Cout"]:
                    entry["ohms"] *= 1.0 + 1e-6
        self.assertTrue(self._corrupt_report(cmd, skew))

    def test_missing_drc_violation_is_rejected(self):
        cmd = self._passed(workloads.check_board)
        self.assertTrue(self._corrupt_report(
            cmd, lambda r: r["checks"]["drc"]["violations"].pop()))

    def test_volume_mismatch_is_rejected(self):
        cmd = self._passed(workloads.render_coils)

        def skew(report):
            report["totals"]["ink_volume_mm3"] *= 1.0 + 1e-9
        self.assertTrue(self._corrupt_report(cmd, skew))

    def test_truncated_pgm_is_rejected(self):
        cmd = self._passed(workloads.render_coils)
        pgm = next(p for p in cmd.outputs if p.suffix == ".pgm")
        pgm.write_bytes(pgm.read_bytes()[:-1])
        self.assertTrue(cmd.check())

    def test_failed_exit_code_is_rejected(self):
        cmd = self._passed(workloads.check_board)
        cmd.argv = cmd.argv + ["--min-width", "-1"]
        outcome = run.worker_pass(self.worker, cmd)
        self.assertTrue(outcome.problems)


if __name__ == "__main__":
    unittest.main()
