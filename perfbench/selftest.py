"""Self-tests of the benchmark itself (not of locbound).

    python3 perfbench/selftest.py

Checks that a seed fixes the inputs and the outcomes, and the counts of a
traced run; that a wrong reference is counted as a failed task instead of
raising; that every emitted metric name and unit is well formed and
matches BENCHMARK.json; and that the benchmark refuses to run outside a
checkout. Takes about two minutes.
"""

from __future__ import annotations

import copy
import json
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads as w  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
REFS = json.loads((HERE / "references.json").read_text())


class OneTask:
    """A workload whose only cycle is the given task."""

    def __init__(self, task):
        self.task = task

    def cycle(self, i):
        return [self.task]


def first_task(workload, kind):
    return next(t for t in workload.cycle(0) if t.kind == kind)


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


class SeedDeterminism(unittest.TestCase):
    def test_same_seed_same_task_lists(self):
        for cls in w.WORKLOADS.values():
            keys = [[t.key for i in range(2) for t in cls(seed, REFS).cycle(i)]
                    for seed in (7, 7, 8)]
            self.assertEqual(keys[0], keys[1], cls.name)
            self.assertNotEqual(keys[0], keys[2], cls.name)

    def test_same_seed_same_failures_and_gap(self):
        outcomes = []
        for _ in range(2):
            records, _, _ = worker.run_pass(w.ReeSearch(7, REFS), 0.0, w.GAP_CYCLES)
            outcomes.append((sum(r[3] is not None for r in records),
                             w.ree_counters(records)))
        self.assertEqual(outcomes[0], outcomes[1])
        self.assertGreater(outcomes[0][1]["separability.ree_gap_mean_bits"], 0.0)


class TracedCounts(unittest.TestCase):
    """A traced run does a seed-fixed amount of work, so its counts are the
    same on every run; only times (`*_s`) and the trace's own figures vary."""

    def exact_layers(self, cls, seed, cycles):
        tracer = Tracer()
        workload = worker.set_up(cls, seed, REFS, tracer)
        *_, layers = worker.run_traced_pass(workload, tracer, cycles)
        return {k: v for k, v in layers.items()
                if not k.endswith("_s") and not k.startswith("trace.")}

    def test_same_seed_same_counts(self):
        for cls, cycles, used in ((w.ReeSearch, 2, "entropy.relative_entropy.calls"),
                                  (w.ModuleBranching, 1, "circuit.noise_apply.calls")):
            runs = [self.exact_layers(cls, 11, cycles) for _ in range(2)]
            self.assertEqual(runs[0], runs[1], cls.name)
            self.assertGreater(runs[0][used], 0, cls.name)


class CorruptedReferences(unittest.TestCase):
    def failures_with(self, refs, cls, kind):
        records = []
        worker.run_cycle(OneTask(first_task(cls(3, refs), kind)), 0, records)
        return [r[3] for r in records if r[3] is not None]

    def test_pinned_references_pass(self):
        self.assertEqual(self.failures_with(REFS, w.ModuleBranching, "J3"), [])
        self.assertEqual(self.failures_with(REFS, w.CodeGeometry, "code"), [])

    def test_wrong_delta_is_a_failure(self):
        refs = copy.deepcopy(REFS)
        pins = refs["module-branching"]
        for key in pins:
            pins[key] += 1e-6
        self.assertEqual(len(self.failures_with(refs, w.ModuleBranching, "J3")), 1)

    def test_missing_reference_is_a_failure(self):
        refs = copy.deepcopy(REFS)
        refs["module-branching"].clear()
        self.assertEqual(len(self.failures_with(refs, w.ModuleBranching, "J3")), 1)

    def test_wrong_code_pin_is_a_failure(self):
        refs = copy.deepcopy(REFS)
        for key, pin in refs["code-geometry"].items():
            if key.startswith("code:"):
                pin["ree_lower_sum"] += 1.0
        self.assertEqual(len(self.failures_with(refs, w.CodeGeometry, "code")), 1)


class EmittedNames(unittest.TestCase):
    def test_declared_names_and_units(self):
        declared = SPEC["end_to_end"] + SPEC["per_layer"]
        names = [m["name"] for m in declared] + [x["name"] for x in SPEC["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for m in declared:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
        self.assertEqual({x["name"] for x in SPEC["workloads"]}, set(w.WORKLOADS))

    def test_result_line(self):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench("--workload", "ree-search", "--seed", "5", "--seconds", "1",
                             "--trace", str(trace))
            self.assertEqual(proc.returncode, 0, proc.stderr)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            self.assertEqual(list(result["metrics"]), [m["name"] for m in SPEC[group]])
            for name, metric in result["metrics"].items():
                self.assertTrue(NAME.fullmatch(name), name)
                self.assertIsInstance(metric["value"], (int, float))


class OutsideCheckout(unittest.TestCase):
    def test_refuses_without_sources(self):
        bare = ROOT / ".bench_out" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            proc = run_bench("--workload", "ree-search", "--seed", "1", "--seconds", "1",
                             "--trace", "0", cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
