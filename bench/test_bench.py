"""Tests of the benchmark itself: seeded inputs, independent checkers, tracer.

Run from the root of a checkout:

    python3 -m unittest discover -s bench -p 'test_*.py'
"""

import collections
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import items  # noqa: E402
import workloads  # noqa: E402
from qgen.qcore import rat_str  # noqa: E402
from tracer import DRIVEN, PER_LAYER_METRICS  # noqa: E402

SIZE_KEYS = ("cls", "k", "m", "n", "N", "M", "p", "mode", "expect", "kind")


def _size_mix(item_list):
    return collections.Counter(tuple(it.get(key) for key in SIZE_KEYS) for it in item_list)


def _cheapest_per_class(item_list):
    """One item per (class, expected outcome): the smallest of its class."""
    picked = {}
    for it in item_list:
        key = (it["cls"], it.get("expect"), it.get("known_mismatch"),
               it["argv"][0] if it["cls"] == "cli" else None)
        size = (it.get("k", 0), it.get("N", 0), it.get("M", 0), it.get("m", 0), it.get("n", 0))
        if key not in picked or size < picked[key][0]:
            picked[key] = (size, it)
    return [it for _, it in picked.values()]


class SeedTests(unittest.TestCase):
    def test_same_seed_gives_byte_identical_items(self):
        for wl in workloads.WORKLOADS:
            self.assertEqual(workloads.dump_items(workloads.make_items(wl, 7)),
                             workloads.dump_items(workloads.make_items(wl, 7)), wl)

    def test_seeds_change_parameters_not_the_size_mix(self):
        for wl in workloads.WORKLOADS:
            lists = [workloads.make_items(wl, seed) for seed in range(6)]
            self.assertGreaterEqual(len(lists[0]), 100, wl)
            for other in lists[1:]:
                self.assertEqual(_size_mix(other), _size_mix(lists[0]), wl)
            dumps = {workloads.dump_items(x) for x in lists}
            self.assertEqual(len(dumps), len(lists), f"{wl}: seeds gave equal item lists")


class CheckerTests(unittest.TestCase):
    """Each checker rejects a deliberately wrong output of every item class,
    and the pass-level failure count includes it."""

    def _run(self, item_list):
        with tempfile.TemporaryDirectory() as workdir:
            return [items.execute(it, workdir) for it in item_list]

    def _assert_checker_catches(self, wl):
        sample = _cheapest_per_class(workloads.make_items(wl, 11))
        outputs = self._run(sample)
        failed, only_known = items.evaluate_outputs(sample, outputs)
        known = [it["id"] for it in sample if it.get("known_mismatch")]
        self.assertEqual(failed, known, f"{wl}: correct outputs judged wrong")
        self.assertTrue(only_known)
        for it, out in zip(sample, outputs):
            if it.get("known_mismatch"):
                continue
            bad = list(outputs)
            bad[sample.index(it)] = items.corrupt(it, out)
            failed, only_known = items.evaluate_outputs(sample, bad)
            self.assertIn(it["id"], failed, f"{wl}: corrupted {it} passed its check")
            self.assertFalse(only_known)
            self.assertEqual(len(failed), len(known) + 1)

    def test_symbolic_checker(self):
        self._assert_checker_catches("symbolic")

    def test_padic_checker(self):
        self._assert_checker_catches("padic")

    def test_series_checker(self):
        self._assert_checker_catches("series")

    def test_cli_checker(self):
        self._assert_checker_catches("cli")

    def test_cli_checker_rejects_a_perturbed_printed_value(self):
        queries = [it for it in workloads.make_items("cli", 11)
                   if it["expect"] == 0 and it["argv"][0] not in ("table", "verify")]
        outputs = self._run(queries)
        for it, out in zip(queries, outputs):
            self.assertTrue(items.check(it, out), it)
            doc = json.loads(out["stdout"])
            value = items._parse_value(doc["value"]) + 1  # beyond every tolerance
            doc["value"] = rat_str(value) if isinstance(value, items.F) else value.to_obj()
            bad = dict(out, stdout=json.dumps(doc))
            self.assertFalse(items.check(it, bad), it)

    def test_unexpected_exception_counts_as_failed(self):
        it = workloads.make_items("padic", 0)[0]
        failed, only_known = items.evaluate_outputs([it], [ValueError("boom")])
        self.assertEqual(failed, [it["id"]])
        self.assertFalse(only_known)

    def test_known_mismatches_fail_and_nothing_else_on_cli(self):
        cli_items = workloads.make_items("cli", 3)
        failed, only_known = items.evaluate_outputs(cli_items, self._run(cli_items))
        self.assertEqual(failed, [it["id"] for it in cli_items if it["known_mismatch"]])
        self.assertEqual(len(failed), len(workloads.KNOWN_MISMATCH_LITERALS))
        self.assertTrue(only_known)


class RunTests(unittest.TestCase):
    def _bench(self, *args, cwd=ROOT, root=ROOT):
        return subprocess.run([sys.executable, str(root / "bench" / "run.py"), *args], cwd=cwd,
                              capture_output=True, text=True, timeout=170)

    def test_traced_run_reports_every_layer_metric(self):
        res = self._bench("--workload", "cli", "--seed", "5", "--seconds", "1", "--trace", "1")
        self.assertEqual(res.returncode, 0, res.stderr)
        lines = res.stdout.strip().splitlines()
        info, result = json.loads(lines[-2]), json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(list(result["metrics"]), [name for name, _ in PER_LAYER_METRICS])
        for name in DRIVEN["cli"] + ("bench.trace_overhead_ratio",):
            self.assertGreater(result["metrics"][name]["value"], 0, name)
        self.assertTrue(result["correct"])
        self.assertEqual(info["provenance"]["seed"], 5)
        self.assertTrue(Path(info["provenance"]["qgen_file"]).is_relative_to(ROOT / "src"))

    def test_seed_is_required(self):
        res = self._bench("--workload", "cli")
        self.assertEqual(res.returncode, 2)
        self.assertEqual(res.stdout, "")

    def test_fails_without_program_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(BENCH, Path(tmp) / "bench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            res = self._bench("--workload", "cli", "--seed", "1", cwd=tmp, root=Path(tmp))
        self.assertNotEqual(res.returncode, 0)
        self.assertEqual(res.stdout, "")


if __name__ == "__main__":
    unittest.main()
