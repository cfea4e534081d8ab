"""Self-checks of the benchmark harness.

    python3 -m unittest discover -s perfbench -p "test_*.py"

They cover the generators and oracles in ``maps``, the determinism of
the generated inputs, and the output contract of ``run.py`` (every metric
that ``BENCHMARK.json`` declares is printed with its unit, the mix of
outcomes is reported, and a tree without the library is refused).
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import balancedgraphs as bg  # noqa: E402

import calibrate  # noqa: E402
import maps  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd: Path = ROOT, seconds: str = "1"):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


class Generators(unittest.TestCase):
    def test_glued_map_with_equal_pairings_is_the_mirror_graph(self):
        rng = random.Random(0)
        for _ in range(40):
            d = rng.randint(3, 9)
            a = maps.random_composition(rng, d, rng.randint(2, 2 * d - 2))
            arcs = maps.random_pairing(rng, a)
            alpha, sigma = maps.glued_map(a, arcs, arcs)
            mirror, _, _ = bg.mirror_graph(
                bg.NonCrossingPairing(bg.WeightComposition(d, a), arcs)
            )
            self.assertEqual((tuple(alpha), tuple(sigma)), (mirror.alpha, mirror.sigma))

    def test_pairing_count_matches_kostka(self):
        rng = random.Random(1)
        for _ in range(40):
            d = rng.randint(2, 9)
            a = maps.random_composition(rng, d, rng.randint(2, 2 * d - 2))
            self.assertEqual(maps.pairing_count(a), bg.kostka(bg.WeightComposition(d, a)))

    def test_region_oracle_on_the_committed_certificate(self):
        fixtures = ROOT / "tests" / "fixtures"
        doc = json.loads((fixtures / "counterexample_gb_not_lb.json").read_text())
        cert = json.loads((fixtures / "counterexample_certificate.json").read_text())
        view = maps.MapView(doc["alpha"], doc["sigma"])
        self.assertTrue(view.globally_balanced())
        counts = view.region_balance(doc["colors"], cert["certificate_faces"])
        self.assertEqual(list(counts), cert["certificate_counts"])
        self.assertIsNone(view.region_balance(doc["colors"], range(len(view.faces))))

    def test_random_constellation_is_valid(self):
        rng = random.Random(2)
        for d, m in ((5, 3), (9, 4), (33, 5)):
            perms = maps.random_constellation(rng, d, m)
            c = bg.deserialize_constellation(maps.constellation_document(d, perms))
            self.assertTrue(bg.verify_constellation(c).ok)


class Inputs(unittest.TestCase):
    def test_same_seed_same_digest(self):
        for name in workloads.WORKLOADS:
            first = workloads.digest(workloads.build(name, 7, bg))
            self.assertEqual(first, workloads.digest(workloads.build(name, 7, bg)), name)
            self.assertNotEqual(first, workloads.digest(workloads.build(name, 8, bg)), name)

    def test_check_glued_has_each_verdict_in_equal_share(self):
        kinds = [op.kind.split("/")[1] for op in workloads.build("check-glued", 3, bg)]
        self.assertEqual(kinds.count("not_gb"), kinds.count("lb"))
        self.assertEqual(kinds.count("lb"), kinds.count("not_lb"))


class Figures(unittest.TestCase):
    def test_quantile_estimates_match_a_uniform_sample(self):
        values = list(range(1, 101))
        self.assertAlmostEqual(run._quantile(values, 0.5), 50.5, places=6)
        self.assertAlmostEqual(run._quantile(values, 0.9), 90.5, places=3)
        self.assertEqual(run._quantile([7.0], 0.9), 7.0)

    def test_quantile_moves_little_when_neighbours_swap_classes(self):
        # 20 size classes of 3; the 90th percentile sits on a class boundary
        low = [c + 0.1 * (i - 1) for c in range(20) for i in range(3)]
        high = list(low)
        high[53], high[54] = high[54], high[53] + 0.9  # one op of class 17 slows past class 18
        self.assertLess(abs(run._quantile(high, 0.9) - run._quantile(low, 0.9)), 0.2)

    def test_scaling_follows_the_reference(self):
        times = [0.01, 0.02, 0.03]
        same = calibrate.scaled(times, [calibrate.NOMINAL_S] * 3)
        self.assertEqual([round(t, 12) for t in same], times)
        slow = calibrate.scaled(times, [2 * calibrate.NOMINAL_S] * 3)
        self.assertEqual([round(t, 12) for t in slow], [t / 2 for t in times])

    def test_reference_does_not_call_the_library(self):
        source = (HERE / "calibrate.py").read_text()
        self.assertNotIn("balancedgraphs", source)
        self.assertGreater(calibrate.reference(), 0)


class Contract(unittest.TestCase):
    def _result(self, proc):
        self.assertEqual(proc.returncode, 0, proc.stderr)
        return json.loads(proc.stdout.splitlines()[-1])

    def test_end_to_end_metrics_are_emitted_with_units(self):
        want = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
        for workload in (w["name"] for w in BENCHMARK["workloads"]):
            proc = _run(workload, 0)
            result = self._result(proc)
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            # counts are per operation of the pool, so they do not depend on the run length
            self.assertEqual(result["attempted"], len(workloads.build(workload, 5, bg)))
            self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, want)
            self.assertIn("# mix ", proc.stdout)
            self.assertIn("# outcomes: ", proc.stdout)
            self.assertIn("sha256 ", proc.stdout)

    def test_per_layer_metrics_are_emitted_with_units(self):
        want = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
        result = self._result(_run("real-census", 1))
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, want)
        self.assertGreater(result["metrics"]["real_combinatorics.enumerate_ssyt.self_s"]["value"], 0)

    def test_refuses_a_tree_without_the_library(self):
        bare = HERE / "out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            proc = _run("check-glued", 0, cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertFalse(proc.stdout.strip().endswith("}"))


if __name__ == "__main__":
    unittest.main()
