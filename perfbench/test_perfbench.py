"""Self-test of the benchmark: python3 -m unittest discover -s perfbench -v

Runs every workload with a tiny --seconds in both modes (an untraced run
still goes on until its tail percentile has its batches, about 25 s
each) and checks that every metric prints with its unit and that a
traced run writes its spans file, that a one-byte change trips the digest
gate, that the tracer restores every binding it replaced, and that a
directory without the afkit sources makes the benchmark fail.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import child  # noqa: E402
import tracer  # noqa: E402
import verify  # noqa: E402
from layers import metric_units  # noqa: E402
from run import E2E_UNITS  # noqa: E402
from workloads import GOLDEN_BATCHES, GOLDEN_SEED, SPANS_FILE, WORKLOADS  # noqa: E402

SCRATCH = ROOT / ".perfbench-out" / "selftest"


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def afkit_bindings():
    """(module, attr) -> object for every entry of every afkit namespace."""
    return {
        (name, attr): value
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "afkit" or name.startswith("afkit."))
        for attr, value in vars(mod).items()
    }


class BenchmarkSpecTest(unittest.TestCase):
    def test_benchmark_json_matches_the_code(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, E2E_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, metric_units())
        self.assertEqual(set(json.loads(verify.DIGESTS_FILE.read_text())["sha256"]), set(WORKLOADS))


class TinyRunTest(unittest.TestCase):
    def check_result(self, proc, units):
        self.assertEqual(proc.returncode, 0, proc.stderr)
        lines = proc.stdout.strip().splitlines()
        self.assertIn("info", json.loads(lines[-2]))
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(
            {name: m["unit"] for name, m in result["metrics"].items()}, units
        )
        for m in result["metrics"].values():
            self.assertIsInstance(m["value"], (int, float))

    def test_every_workload_prints_every_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload, trace=0):
                proc = bench("--workload", workload, "--seed", "7", "--seconds", "0.1", "--trace", "0")
                self.check_result(proc, E2E_UNITS)
            with self.subTest(workload=workload, trace=1):
                spans = ROOT / SPANS_FILE.format(workload=workload)
                spans.unlink(missing_ok=True)
                proc = bench("--workload", workload, "--seed", "7", "--seconds", "0.1", "--trace", "1")
                self.check_result(proc, metric_units())
                self.assertTrue(spans.is_file())

    def test_missing_sources_fail_without_a_result(self):
        bare = SCRATCH / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        try:
            proc = bench("--workload", "torus-n5", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


class DigestGateTest(unittest.TestCase):
    def test_one_altered_byte_trips_the_gate(self):
        from afkit import harness

        stream = b"".join(
            child.run_batch(harness, "torus-n5", GOLDEN_SEED, k)[1] for k in range(GOLDEN_BATCHES)
        )
        verify.check_digest("torus-n5", stream)
        for pos in (0, len(stream) // 2, len(stream) - 1):
            altered = bytearray(stream)
            altered[pos] ^= 0x01
            with self.assertRaises(verify.CheckError):
                verify.check_digest("torus-n5", bytes(altered))

    def test_stream_checks_reject_a_wrong_gap(self):
        from afkit import harness

        params = {"mode": "torus", "n": 5, "m": 2, "trials": 3}
        text = child.run_batch(harness, "torus-n5", GOLDEN_SEED, 0)[1].decode()
        verify.check_batch(text, params, "ok")
        first = json.loads(text.split("\n")[0])
        first["report"]["gap"] = "-1"
        bad = "\n".join([json.dumps(first)] + text.split("\n")[1:])
        with self.assertRaises(verify.CheckError):
            verify.check_batch(bad, params, "bad")


    def test_a_tolerance_miss_is_a_verdict_not_an_error(self):
        # Batch 2 of golden seed 0 is a bm batch whose proportional
        # instance misses the library's 1e-9 root tolerance.
        from afkit import harness

        params = {"mode": "bm", "n": 6, "m": 2, "trials": 3}
        text = child.run_batch(harness, "matrix-mix-n6", GOLDEN_SEED, 2)[1].decode()
        self.assertEqual(verify.check_batch(text, params, "bm"), (3, [2], []))


class TracerTest(unittest.TestCase):
    def test_restores_every_binding(self):
        from afkit import harness, mixdisc
        from afkit._kernels import mixed_perm_sum

        tracer.afkit_modules()  # install imports every submodule; snapshot them all
        before = afkit_bindings()
        tr = tracer.Tracer()
        replaced = tr.install()
        self.assertGreater(replaced, 0)
        try:
            self.assertIsNot(mixdisc.mixed_perm_sum, mixed_perm_sum)
            self.assertIsNot(sys.modules["afkit._kernels"].mixed_perm_sum, mixed_perm_sum)
            harness.run_suite(harness.RunConfig(seed=3, trials=1, n=3, mode="torus"))
        finally:
            tr.restore()
        after = afkit_bindings()
        self.assertEqual(before.keys(), after.keys())
        changed = [key for key, value in before.items() if after[key] is not value]
        self.assertEqual(changed, [])
        self.assertEqual(tr.leftover_bindings(), [])
        stats = tr.summary()
        self.assertGreater(stats["kernels.mixed_perm_sum"]["calls"], 0)
        self.assertGreater(stats["mixdisc.mixed_adjugate"]["calls"], 0)

    def test_self_time_subtracts_direct_children(self):
        # root [0, 100] > a [10, 50] > b [20, 30]; root > a [60, 90]
        arrays = {
            "start": array("q", [0, 10, 20, 60]),
            "end": array("q", [100, 50, 30, 90]),
            "name": array("i", [0, 1, 2, 1]),
            "parent": array("i", [-1, 0, 1, 0]),
            "batch": array("i", [0, 0, 0, 0]),
        }
        stats = tracer.summarize(arrays, ["root", "a", "b"])
        self.assertEqual(stats["root"]["self_ns"], 100 - 40 - 30)
        self.assertEqual(stats["a"], {"calls": 2, "self_ns": 30 + 30, "max_bits": 0, "distinct": None})
        self.assertEqual(stats["b"]["self_ns"], 10)


if __name__ == "__main__":
    unittest.main()
