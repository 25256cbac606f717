"""Self-tests of the benchmark: a reduced-size pass of every workload.

    python3 perfbench/selftest.py        (under a minute; verify runs at full size)

Each workload runs once untraced and once traced with ``--small``.  The tests
check that every metric of BENCHMARK.json prints by name and unit, that the
traced outputs are byte-identical to the untraced ones, and that span self
times are non-negative and sum to no more than the traced wall time.
"""

import json
import math
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 7


def run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--small"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def run_and_load(workload, trace):
    proc = run(workload, trace)
    if proc.returncode != 0:
        raise AssertionError(proc.stderr)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    stem = f"{workload}-seed{SEED}-trace{trace}"
    results = ROOT / ".perfbench_out" / "results"
    record = json.loads((results / f"{stem}.json").read_text())
    return result, record, results / f"{stem}-spans.jsonl"


class ReducedPass(unittest.TestCase):
    def check_workload(self, workload):
        plain, plain_record, _ = run_and_load(workload, 0)
        traced, traced_record, spans_path = run_and_load(workload, 1)

        for result, section in ((plain, "end_to_end"), (traced, "per_layer")):
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"], plain_record["failures"])
            self.assertEqual(result["failed"], 0)
            self.assertGreaterEqual(result["attempted"], 1)
            self.assertEqual({name: m["unit"] for name, m in result["metrics"].items()},
                             {m["name"]: m["unit"] for m in BENCH[section]})
            for name, m in result["metrics"].items():
                self.assertTrue(math.isfinite(m["value"]), name)

        self.assertEqual(plain_record["input_sha256"], traced_record["input_sha256"])
        self.assertEqual(plain_record["digests"], traced_record["traced_digests"])

        stats = traced_record["span_stats"]
        for name, st in stats.items():
            if st["calls"]:
                self.assertGreaterEqual(st["min_self_s"], -1e-9, name)
        traced_wall = sum(r["seconds"] for r in traced_record["rounds"] if r["traced"])
        self.assertLessEqual(sum(st["self_s"] for st in stats.values()), traced_wall)
        with open(spans_path) as fh:
            for line in fh:
                _, name, start, end, _, _ = json.loads(line)
                self.assertLessEqual(start, end, name)

    def test_shipped_scenarios(self):
        self.check_workload("shipped_scenarios")

    def test_verify(self):
        self.check_workload("verify")


class Definition(unittest.TestCase):
    def test_per_layer_metrics_match_the_tracer(self):
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]],
                         tracer.LAYER_METRICS)


class Inputs(unittest.TestCase):
    def test_seed_alone_fixes_the_inputs(self):
        for workload in workloads.WORKLOADS:
            jobs_a, sha_a = workloads.generate(workload, 5, ROOT)
            jobs_b, sha_b = workloads.generate(workload, 5, ROOT)
            _, sha_c = workloads.generate(workload, 6, ROOT)
            self.assertEqual(sha_a, sha_b)
            self.assertNotEqual(sha_a, sha_c)
            self.assertEqual(jobs_a, jobs_b)

    def test_refuses_to_run_without_the_program(self):
        with tempfile.TemporaryDirectory() as bare:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, Path(bare) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run("shipped_scenarios", 0, cwd=bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
