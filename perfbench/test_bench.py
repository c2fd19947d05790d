"""Tests of the benchmark itself (stdlib unittest).

Run from the checkout root:

    python3 -m unittest discover -s perfbench
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import child  # noqa: E402
import run  # noqa: E402

ROOT = run.BENCH.parent


def _census_dir(base: Path, n: int, m: int, rep_text: str) -> Path:
    d = base / f"census-{n}-{m}"
    (d / "reps").mkdir(parents=True)
    (d / "reps" / "00000.xmod").write_text(rep_text)
    (d / "families").write_text("families v1\n0: 0\n")
    (d / "report").write_text("report v1\n")
    (d / "meta").write_text("census v1\n")
    return d


class OutputChecks(unittest.TestCase):
    def setUp(self):
        self.tmp = Path(tempfile.mkdtemp())
        self.addCleanup(shutil.rmtree, self.tmp)
        d = _census_dir(self.tmp, 4, 4, "xmod v1\n")
        self.goldens = {"census": {"4,4": {"counts": [1, 1, 1],
                                           "sha256": run.census_digest(d)}}}

    def test_matching_census_passes(self):
        self.assertEqual(run.check_census(self.goldens, self.tmp, 4, 4, [1, 1, 1]), "")

    def test_wrong_count_fails(self):
        self.assertIn("counts", run.check_census(self.goldens, self.tmp, 4, 4, [1, 2, 1]))

    def test_wrong_cache_bytes_fail_but_meta_is_ignored(self):
        d = self.tmp / "census-4-4"
        (d / "meta").write_text("census v2\n")
        self.assertEqual(run.check_census(self.goldens, self.tmp, 4, 4, [1, 1, 1]), "")
        (d / "reps" / "00000.xmod").write_text("xmod v1\nchanged\n")
        self.assertIn("digest", run.check_census(self.goldens, self.tmp, 4, 4, [1, 1, 1]))

    def test_wrong_cli_stdout_or_exit_code_fails(self):
        call = ("xmods", "census", "4", "4")
        goldens = {"cli": {"xmods census 4 4": hashlib.sha256(b"ok\n").hexdigest()}}
        self.assertEqual(run.check_cli(goldens, call, b"ok\n", 0), "")
        self.assertIn("differs", run.check_cli(goldens, call, b"ok \n", 0))
        self.assertIn("exited", run.check_cli(goldens, call, b"ok\n", 1))

    def test_wrong_query_answers_fail(self):
        goldens = {"queries": {"8,4": {"answers": ["a", "b", "c"],
                                       "families": [[0, 2], [1]]}}}
        ok = {"answer": "c", "iso": [True, False]}
        self.assertEqual(run.check_query(goldens, (8, 4), 2, [0, 1], ok), "")
        self.assertTrue(run.check_query(goldens, (8, 4), 2, [0, 1],
                                        {"answer": "x", "iso": [True, False]}))
        self.assertTrue(run.check_query(goldens, (8, 4), 2, [0, 1],
                                        {"answer": "c", "iso": [False, False]}))
        self.assertTrue(run.check_query(goldens, (8, 4), 2, [0], {"error": "boom"}))


class FailedOperationsAreCounted(unittest.TestCase):
    """A wrong golden count shows up in `failed`, end to end."""

    def test_census_cold_with_tampered_goldens(self):
        goldens = json.loads(run.GOLDENS.read_text())
        goldens["census"]["8,4"]["counts"] = [687, 63, 8]
        with tempfile.TemporaryDirectory() as tmp:
            fake = Path(tmp) / "goldens.json"
            fake.write_text(json.dumps(goldens))
            saved, cwd = run.GOLDENS, os.getcwd()
            run.GOLDENS = fake
            out = io.StringIO()
            try:
                os.chdir(ROOT)
                with contextlib.redirect_stdout(out):
                    rc = run.main(["--workload", "census-cold", "--seed", "3",
                                   "--seconds", "0.1"])
            finally:
                run.GOLDENS = saved
                os.chdir(cwd)
        result = json.loads(out.getvalue().splitlines()[-1])
        self.assertEqual(rc, 0)
        self.assertFalse(result["correct"])
        # 3 set-ups with a wrong [8,4] count, one pass with a wrong [8,4] count
        self.assertEqual(result["failed"], 3 + 1)
        pairs = run.WORKLOADS["census-cold"]["pairs"]
        self.assertEqual(result["attempted"], 3 * len(run.SETUP_PAIRS) + len(pairs))


class ConfigCheck(unittest.TestCase):
    def test_default_config_is_accepted(self):
        run.check_config()

    def test_order_16_level_is_refused(self):
        bad = dict(run.WORKLOADS, **{"census-cold": {"pairs": ((16, 2),)}})
        with self.assertRaisesRegex(run.ConfigError, "order-16"):
            run.check_config(bad)

    def test_queries_on_large_aut_pairs_are_refused(self):
        for pair in ((8, 8), (18, 18)):
            bad = dict(run.WORKLOADS, **{"xmod-queries": {"pairs": (pair,), "sample": 3}})
            with self.assertRaises(run.ConfigError):
                run.check_config(bad, run.SETUP_PAIRS + (pair,))

    def test_reading_a_cache_setup_does_not_build_is_refused(self):
        bad = dict(run.WORKLOADS, **{"xmod-queries": {"pairs": ((20, 20),), "sample": 3}})
        with self.assertRaisesRegex(run.ConfigError, "set-up"):
            run.check_config(bad)


class Statistics(unittest.TestCase):
    def test_p90_needs_ten_samples_beyond(self):
        p50, p90, q = run.op_percentiles(range(1, 101))
        self.assertEqual((p50, p90, q), (50, 90, 0.9))
        p50, high, q = run.op_percentiles(range(1, 11))
        self.assertEqual((p50, high, q), (5, 5, 0.5))
        _, high, q = run.op_percentiles(range(1, 41))
        self.assertEqual((high, q), (30, 0.75))

    def test_self_time_subtracts_child_spans(self):
        spans = [
            [0, "census.census", -1, 0, 10_000_000_000, None],
            [0, "census.reduce_by_isomorphism", 0, 1_000_000_000, 9_000_000_000, 5],
            [0, "xmods.is_isomorphic_xmod", 1, 2_000_000_000, 6_000_000_000, 1],
            [0, "xmods.is_isomorphic_xmod", 2, 3_000_000_000, 4_000_000_000, 0],
        ]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "spans.json"
            path.write_text(json.dumps({"spans": spans, "absent": ["x.gone"],
                                        "skipped": []}))
            agg = run.aggregate([(path, {0: 11.0})])
        self.assertAlmostEqual(agg["self"]["census"], 2 + 4)
        self.assertAlmostEqual(agg["self"]["xmods"], 4)
        self.assertAlmostEqual(agg["incl"]["xmods.is_isomorphic_xmod"], 4)
        self.assertEqual(agg["calls"]["xmods.is_isomorphic_xmod"], 2)
        self.assertEqual(agg["vsum"]["xmods.is_isomorphic_xmod"], 1)
        self.assertAlmostEqual(agg["unwrapped"], 1)
        self.assertEqual(agg["absent"], ["x.gone"])
        metrics = run.layer_metrics(agg)
        self.assertAlmostEqual(metrics["census.reduce_share"][0], 0.8)
        self.assertAlmostEqual(metrics["xmods.is_isomorphic_hit_ratio"][0], 0.5)


class BenchmarkFile(unittest.TestCase):
    def test_metric_names_and_units_match_the_output(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         list(run.END_TO_END))
        empty = {"calls": {}, "incl": {}, "vsum": {}, "layer_calls": {},
                 "layer_incl": {}, "self": {}, "unwrapped": 0.0}
        rows = run.layer_metrics(empty)
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
                         [(k, unit, better) for k, (_, unit, better) in rows.items()])
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]), sorted(run.WORKLOADS))


class TracerToleratesRefactors(unittest.TestCase):
    def test_missing_name_is_absent_not_a_crash(self):
        sys.path.insert(0, str(ROOT / "src"))
        import xmodkit

        saved = child.SPANS
        child.SPANS = saved + (("census", "no_such_function", "census.gone"),
                               ("xmods", "all_xmod_isos", "xmods.all_xmod_isos"))
        try:
            tracer = child.Tracer()
            tracer.install()
        finally:
            child.SPANS = saved
        self.assertIn("census.gone", tracer.absent)
        self.assertIn("xmods.all_xmod_isos", tracer.skipped)
        tracer.op = 7
        xmodkit.census(2, 2)
        names = {s[1] for s in tracer.spans}
        self.assertIn("census.census", names)
        self.assertIn("census.reduce_by_isomorphism", names)
        self.assertTrue(all(s[0] == 7 and s[4] >= s[3] for s in tracer.spans))


if __name__ == "__main__":
    unittest.main()
