"""Self-test of the benchmark on tiny seeded inputs.

    python3 perfbench/selftest.py

Runs from the repository root in a minute or two.  It checks that inputs
are a function of the seed, that the tracer restores every binding it
replaced, that every metric of BENCHMARK.json is printed with its unit,
that traced and untraced runs reach the same decisions, that per-layer
counts repeat exactly, that the speed kernel is fixed and allocates little,
and that the benchmark fails without the sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# inputs per round: small, and on edges4/affine free of the slowest algebras
LIMITS = {"sweep3": 12, "edges4": 3, "affine": 3}
SEED = 7


def bench(workload, trace, cwd=ROOT, script=HERE / "run.py"):
    argv = [sys.executable, str(script), "--workload", workload, "--seed", str(SEED)]
    argv += ["--seconds", "1", "--trace", str(trace), "--limit", str(LIMITS[workload])]
    proc = subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Inputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for w in workloads.WORKLOADS:
            first = workloads.inputs_digest(workloads.round_inputs(w, SEED, 0))
            self.assertEqual(first, workloads.inputs_digest(workloads.round_inputs(w, SEED, 0)))
            self.assertNotEqual(first, workloads.inputs_digest(workloads.round_inputs(w, SEED + 1, 0)))
            self.assertNotEqual(first, workloads.inputs_digest(workloads.round_inputs(w, SEED, 1)))

    def test_populations(self):
        specs, orbit_sizes = workloads.sweep3_population()
        self.assertEqual(sum(orbit_sizes), 729)
        self.assertEqual(len(orbit_sizes), 138)
        everything = [workloads.free_binary(3, f, "") for f in workloads.grid(3, 6)]
        self.assertEqual(sum(map(oracle.omits_type1, everything)), 331)
        self.assertTrue(all(map(oracle.omits_type1, workloads.affine_population())))
        self.assertEqual(len(workloads.edges4_population()), workloads.EDGES4_DRAWS)

    def test_relabel_is_isomorphic(self):
        spec = workloads.free_binary(3, (1, 2, 0, 2, 1, 0), "t")
        back = workloads.relabel(workloads.relabel(spec, (2, 0, 1)), (1, 2, 0))
        self.assertEqual(back[2], spec[2])


class Calibration(unittest.TestCase):
    def test_kernel_is_fixed_and_allocates_little(self):
        import tracemalloc

        import calibrate

        calibrate.stream()  # allocates the buffers once
        tracemalloc.start()
        try:
            self.assertEqual(calibrate.closure(), 45)
            calibrate.stream()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        self.assertLess(peak, 64 * 1024)  # far below glibc's mmap threshold

    def test_speeds_follow_the_kernel(self):
        from calibrate import REF_S
        from run import speeds

        self.assertEqual(speeds([REF_S, REF_S, 3 * REF_S]), [1.0, 0.5])


class TracerBindings(unittest.TestCase):
    def test_no_wrapper_left_bound(self):
        import algraph  # noqa: F401
        import algraph.cli  # noqa: F401
        from tracer import Tracer
        from worker import _verdict, to_algebra

        def bindings():
            out = {}
            for name, mod in list(sys.modules.items()):
                if mod is None or not name.startswith("algraph"):
                    continue
                for attr, val in vars(mod).items():
                    out[(name, attr)] = id(val)
                    if isinstance(val, dict):
                        for key, item in val.items():
                            out[(name, attr, key)] = id(item)
            return out

        before = bindings()
        alg = to_algebra(workloads.round_inputs("sweep3", SEED, 0)[0])
        with Tracer() as tracer:
            self.assertNotEqual(bindings(), before)
            _verdict("sweep3", alg)
        self.assertTrue(tracer.spans)
        self.assertEqual(bindings(), before)


class EndToEnd(unittest.TestCase):
    def test_every_metric_with_unit(self):
        for w in workloads.WORKLOADS:
            with self.subTest(workload=w):
                res = result(bench(w, 0))
                self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(res["correct"])
                self.assertEqual(res["failed"], 0)
                self.assertGreaterEqual(res["attempted"], 1)
                want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
                self.assertEqual({k: v["unit"] for k, v in res["metrics"].items()}, want)
                self.assertTrue(all(v["value"] > 0 for v in res["metrics"].values()))

    def test_traced_runs_agree_and_repeat(self):
        counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "share")]
        for w in workloads.WORKLOADS:
            with self.subTest(workload=w):
                # correct is false when traced and untraced digests differ
                first, second = result(bench(w, 1)), result(bench(w, 1))
                self.assertTrue(first["correct"] and second["correct"])
                self.assertEqual(
                    {m["name"] for m in SPEC["per_layer"]}, set(first["metrics"])
                )
                for name in counts:
                    self.assertEqual(first["metrics"][name], second["metrics"][name], name)

    def test_fails_without_sources(self):
        bare = HERE / "out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            proc = bench("sweep3", 0, cwd=bare, script=bare / "perfbench" / "run.py")
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
