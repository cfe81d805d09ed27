"""Self-checks of the campaign benchmark.

    python3 -m unittest discover -s campaign_bench -p 'test_*.py'

The statistics, digest-gate and schema tests are instant. The miniature
runs build the benchmark (first time only) and run each workload on
time-capped campaigns, a few seconds each.
"""

import json
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import stats  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
END_TO_END_NAMES = [m["name"] for m in BENCHMARK["end_to_end"]]


class StatsTest(unittest.TestCase):
    def test_median(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)
        with self.assertRaises(ValueError):
            stats.median([])

    def test_quartiles_match_statistics_quantiles(self):
        values = [9.1, 9.8, 10.4, 9.5, 11.0, 9.9, 10.1]
        self.assertEqual(stats.quartiles(values),
                         tuple(statistics.quantiles(values, n=4)))
        self.assertEqual(stats.quartiles([5.0]), (5.0, 5.0, 5.0))

    def test_percentile_is_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(stats.percentile(values, 50), 50)
        self.assertEqual(stats.percentile(values, 99), 99)
        self.assertEqual(stats.percentile(values, 100), 100)
        self.assertEqual(stats.percentile([7], 99), 7)

    def test_highest_percentile_keeps_ten_samples_beyond(self):
        self.assertIsNone(stats.highest_percentile(list(range(19))))
        self.assertEqual(stats.highest_percentile(list(range(1, 21))), (50.0, 10))
        self.assertEqual(stats.highest_percentile(list(range(1, 101)))[0], 90.0)
        self.assertEqual(stats.highest_percentile(list(range(1, 1001))), (99.0, 990))
        self.assertEqual(stats.highest_percentile(list(range(1, 10001)))[0], 99.9)
        for n in (20, 100, 999, 1000, 5000):
            p, value = stats.highest_percentile(list(range(n)))
            self.assertGreaterEqual(sum(v > value for v in range(n)), 10, (n, p))

    def test_summary_counts_samples(self):
        s = stats.summarize([2.0, 1.0, 3.0])
        self.assertEqual((s["n"], s["median"], s["min"], s["max"]), (3, 2.0, 1.0, 3.0))
        self.assertNotIn("tail", s)
        self.assertIn("n=3", stats.describe([2.0, 1.0, 3.0], "s"))
        self.assertIn("p50", stats.describe(list(range(40)), "s"))


def sample(digest="eaddc6da559ac7ff", without_faults=0, threw=False):
    return {"campaign_s": 9.5, "cpu_s": 34.0, "sim_s": 6768.6, "hash": digest,
            "violations": 0, "runs": 24, "faulty_without_faults": without_faults,
            "threw": threw}


class DigestGateTest(unittest.TestCase):
    def test_pinned_and_repeated_digest_passes(self):
        failed, problems = run.digest_gate("paper", 14, 0, [sample(), sample()])
        self.assertEqual((failed, problems), ([0, 0], []))

    def test_repetitions_that_disagree_fail_every_run(self):
        failed, problems = run.digest_gate("paper", 3, 0, [sample("a"), sample("b")])
        self.assertEqual(failed, [24, 24])
        self.assertTrue(problems)

    def test_wrong_pinned_digest_fails(self):
        failed, _ = run.digest_gate("datagram", 14, 0, [sample("eaddc6da559ac7ff")])
        self.assertEqual(failed, [24])

    def test_capped_campaign_is_not_held_to_the_pin(self):
        failed, _ = run.digest_gate("paper", 14, 40.0, [sample("0123"), sample("0123")])
        self.assertEqual(failed, [0, 0])

    def test_faulty_run_without_faults_fails(self):
        failed, problems = run.digest_gate("paper", 5, 0, [sample("x", without_faults=3)])
        self.assertEqual(failed, [3])
        self.assertIn("injected no fault", problems[0])

    def test_campaign_that_threw_fails_all_runs(self):
        failed, _ = run.digest_gate("paper", 5, 0, [sample("x"), sample("", threw=True)])
        self.assertEqual(failed, [0, 24])


class SchemaTest(unittest.TestCase):
    def test_benchmark_json_follows_the_contract(self):
        self.assertEqual(set(BENCHMARK), {"command", "paths", "run_seconds", "workloads",
                                          "end_to_end", "per_layer"})
        self.assertEqual(BENCHMARK["paths"], ["campaign_bench"])
        self.assertTrue(1 <= BENCHMARK["run_seconds"] <= 60)
        self.assertEqual([w["name"] for w in BENCHMARK["workloads"]], list(run.WORKLOADS))
        names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
        names += [w["name"] for w in BENCHMARK["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for m in BENCHMARK["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in BENCHMARK["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
        setup = [m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in BENCHMARK["end_to_end"]))

    def assert_result(self, result, declared):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertIsInstance(result["attempted"], int)
        self.assertIsInstance(result["failed"], int)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()},
                         {m["name"]: m["unit"] for m in declared})
        for v in result["metrics"].values():
            self.assertIsInstance(v["value"], (int, float))
        json.dumps(result)

    def test_timing_result_reports_every_end_to_end_metric(self):
        doc = {"workload": "paper", "seed": 14, "workers": 4, "run_cap_s": 0,
               "peak_rss_mib": 160.5, "setup_s": [1e-4, 2e-4, 1.5e-4],
               "samples": [sample(), sample()]}
        result, report = run.timing_result(doc)
        self.assert_result(result, BENCHMARK["end_to_end"])
        self.assertTrue(result["correct"])
        text = "\n".join(report)
        for name in ("contract_violations", "error_rate", *END_TO_END_NAMES):
            self.assertIn(name, text)

    def test_layer_result_reports_every_per_layer_metric(self):
        layers = ["net.send", "net.router_poll", "net.stream_step", "net.qdisc",
                  "sim.physics", "sim.frame_encode", "sim.frame_decode", "core.driver",
                  "core.tick.none", "core.tick.delay", "core.tick.loss", "core.subject",
                  "core.campaign", "core.io", "trace.record", "metrics.tables",
                  "check.hash", "mitigate.update", "obs.plain", "obs.attached", "empty"]
        with tempfile.TemporaryDirectory() as tmp:
            span_file = Path(tmp) / "spans.bin"
            records = b"".join(run.SPAN.pack(i, r, 0, 1000, 1000 + 100 * (i + 1) * (r + 1))
                               for i in range(len(layers)) for r in range(5))
            span_file.write_bytes(records)
            doc = {"workload": "paper", "seed": 3, "workers": 4, "run_cap_s": 0,
                   "hash": "ab", "pooled_hash": "ab", "runs": 24,
                   "faulty_without_faults": 0, "violations": 0, "serial_cpu_s": 30.0,
                   "mitigation": False,
                   "counts": {"physics_steps": 670000, "ticks": 2680000,
                              "commands": 201000.0, "frames_encoded": 175000,
                              "frames_displayed": 169000, "segments": 15900000,
                              "retransmits": 850000, "acks": 16600000,
                              "data_packets": 16750000.0},
                   "replay": {"runs": 4, "mismatched_runs": 0, "ticks": 455000,
                              "packets": 5690000, "data_packets": 2857000},
                   "sim_loop_commands": 8400, "layers": layers, "span_file": str(span_file), "spans": 5 * len(layers),
                   "failures": []}
            result, _ = run.layer_result(doc)
        self.assert_result(result, BENCHMARK["per_layer"])
        self.assertTrue(result["correct"])


class MiniatureRunTest(unittest.TestCase):
    """Each workload end to end on capped runs, through the digest gate and
    the fault-injection check."""

    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()

    def test_each_workload_repeats_its_digest_and_injects_faults(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                doc = run.run_binary(self.binary, "time", workload, 14, 0, run_cap_s=40.0)
                result, report = run.timing_result(doc)
                self.assertTrue(result["correct"], report)
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(len(doc["samples"]), 2)
                self.assertEqual(len({s["hash"] for s in doc["samples"]}), 1)
                self.assertEqual(result["attempted"], 24 * len(doc["samples"]))

    def test_a_cap_that_skips_every_point_of_interest_fails(self):
        doc = run.run_binary(self.binary, "time", "datagram", 14, 0, run_cap_s=1.0)
        result, report = run.timing_result(doc)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 12 * len(doc["samples"]))
        self.assertTrue(any("injected no fault" in line for line in report))

    def test_without_the_library_sources_it_fails_without_a_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(HERE.parent / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / HERE.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = subprocess.run([sys.executable, *BENCHMARK["command"][1:],
                                   "--workload", "paper", "--seed", "1", "--seconds", "1",
                                   "--trace", "0"],
                                  cwd=tmp, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
