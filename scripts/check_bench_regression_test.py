#!/usr/bin/env python3
"""Unit tests for check_bench_regression.py, driven through the real CLI
(subprocess), so exit codes and messages are pinned exactly as CI sees
them. Registered with CTest as check_bench_regression_py."""

import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "check_bench_regression.py")


def run_object(timings):
    return {"label": "after", "timings_us": timings, "config": {}}


class CheckBenchRegressionTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def write(self, name, doc):
        path = os.path.join(self.tmp.name, name)
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f)
        return path

    def check(self, *argv):
        return subprocess.run(
            [sys.executable, SCRIPT, *argv],
            capture_output=True,
            text=True,
        )

    def load_pair(self, baseline_timings, fresh_timings):
        baseline = self.write("baseline.json", run_object(baseline_timings))
        fresh = self.write("fresh.json", run_object(fresh_timings))
        return self.check(
            "--baseline-load", baseline, "--fresh-load", fresh
        )

    def test_within_threshold_passes(self):
        timings = {
            "text_parse_load": 1000.0,
            "opimg_mmap_cold": 50.0,
            "opimg_mmap_warm": 10.0,
            "opimg_heap_load": 100.0,
        }
        r = self.load_pair(timings, dict(timings))
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("ok", r.stdout)

    def test_regression_fails(self):
        base = {
            "text_parse_load": 1000.0,
            "opimg_mmap_cold": 50.0,
            "opimg_mmap_warm": 10.0,
            "opimg_heap_load": 100.0,
        }
        fresh = dict(base, opimg_mmap_cold=100.0)  # 2x slower
        r = self.load_pair(base, fresh)
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("load.opimg_mmap_cold", r.stderr)

    def test_missing_gated_key_fails_with_clear_message(self):
        # A baseline predating a gated metric must FAIL loudly — not
        # raise KeyError, not silently skip.
        base = {
            "text_parse_load": 1000.0,
            "opimg_mmap_warm": 10.0,
            "opimg_heap_load": 100.0,
        }
        fresh = dict(base, opimg_mmap_cold=50.0)
        r = self.load_pair(base, fresh)
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertNotIn("KeyError", r.stdout + r.stderr)
        self.assertNotIn("Traceback", r.stdout + r.stderr)
        self.assertIn("opimg_mmap_cold", r.stdout)
        self.assertIn("run_perf_baseline.sh", r.stdout)
        self.assertIn("baseline", r.stdout)

    def test_metric_missing_from_fresh_run_fails(self):
        base = {
            "text_parse_load": 1000.0,
            "opimg_mmap_cold": 50.0,
            "opimg_mmap_warm": 10.0,
            "opimg_heap_load": 100.0,
        }
        fresh = dict(base)
        del fresh["opimg_mmap_warm"]
        r = self.load_pair(base, fresh)
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("missing from fresh run", r.stdout)

    def test_unpaired_flags_are_usage_error(self):
        baseline = self.write("baseline.json", run_object({}))
        r = self.check("--baseline-load", baseline)
        self.assertEqual(r.returncode, 2, r.stdout + r.stderr)

    def snapshot_pair(self, baseline_timings, fresh_timings):
        baseline = self.write("snap_base.json", run_object(baseline_timings))
        fresh = self.write("snap_fresh.json", run_object(fresh_timings))
        return self.check(
            "--baseline-snapshot", baseline, "--fresh-snapshot", fresh
        )

    def test_snapshot_pair_within_threshold_passes(self):
        timings = {"checkpoint_write": 3000.0, "resume_load": 1200.0}
        r = self.snapshot_pair(timings, dict(timings))
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("snapshot.checkpoint_write", r.stdout)
        self.assertIn("snapshot.resume_load", r.stdout)

    def test_snapshot_regression_fails(self):
        base = {"checkpoint_write": 3000.0, "resume_load": 1200.0}
        fresh = dict(base, resume_load=2400.0)  # 2x slower
        r = self.snapshot_pair(base, fresh)
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("snapshot.resume_load", r.stderr)

    def test_snapshot_missing_gated_key_fails(self):
        # A baseline predating the snapshot metrics must FAIL loudly.
        base = {"checkpoint_write": 3000.0}
        fresh = {"checkpoint_write": 3000.0, "resume_load": 1200.0}
        r = self.snapshot_pair(base, fresh)
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertNotIn("KeyError", r.stdout + r.stderr)
        self.assertNotIn("Traceback", r.stdout + r.stderr)
        self.assertIn("resume_load", r.stdout)

    def test_snapshot_unpaired_flags_are_usage_error(self):
        baseline = self.write("snap_base.json", run_object({}))
        r = self.check("--baseline-snapshot", baseline)
        self.assertEqual(r.returncode, 2, r.stdout + r.stderr)

    SELECT_TIMINGS = {
        "ingest": 500.0,
        "select_celf_trace": 2000.0,
        "generate_ingest": 3000.0,
        "select_doubling_incremental": 12000.0,
    }

    def select_pair(self, baseline_doc, fresh_doc):
        baseline = self.write("sel_base.json", baseline_doc)
        fresh = self.write("sel_fresh.json", fresh_doc)
        return self.check(
            "--baseline-select", baseline, "--fresh-select", fresh
        )

    def test_select_doubling_within_threshold_passes(self):
        doc = run_object(self.SELECT_TIMINGS)
        r = self.select_pair(doc, dict(doc))
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("select.select_doubling_incremental", r.stdout)

    def test_select_doubling_timing_regression_fails(self):
        base = run_object(self.SELECT_TIMINGS)
        fresh_t = dict(self.SELECT_TIMINGS,
                       select_doubling_incremental=24000.0)  # 2x slower
        fresh = run_object(fresh_t)
        r = self.select_pair(base, fresh)
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("select.select_doubling_incremental", r.stderr)

    def test_artifact_shape_selects_labeled_run(self):
        timings = {
            "text_parse_load": 1000.0,
            "opimg_mmap_cold": 50.0,
            "opimg_mmap_warm": 10.0,
            "opimg_heap_load": 100.0,
        }
        artifact = {
            "benchmark": "bench_load",
            "runs": [
                {"label": "before", "timings_us": {}, "config": {}},
                run_object(timings),
            ],
        }
        baseline = self.write("artifact.json", artifact)
        fresh = self.write("fresh.json", run_object(timings))
        r = self.check("--baseline-load", baseline, "--fresh-load", fresh)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)


if __name__ == "__main__":
    unittest.main()
