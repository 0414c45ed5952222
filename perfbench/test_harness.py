"""Tests of the benchmark harness itself (stdlib unittest).

    python3 -m unittest discover -s perfbench -p "test_*.py"
"""

import copy
import json
import os
import shutil
import signal
import sys
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gate  # noqa: E402
import inputs  # noqa: E402
import yardstick  # noqa: E402
from spans import outermost, self_times  # noqa: E402


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


class GeneratorTest(unittest.TestCase):

    def test_same_seed_gives_identical_files(self):
        base = os.path.join(HERE, "_work", "test-determinism")
        try:
            for w in ("generic", "lines", "lattice"):
                blobs = []
                for sub in ("a", "b"):
                    d = os.path.join(base, sub)
                    names = inputs.write_inputs(w, 7, d)
                    blobs.append([_read(inputs.input_spec(d, n))
                                  for n in names])
                self.assertEqual(blobs[0], blobs[1], w)
                self.assertNotEqual(inputs.arrangements(w, 7),
                                    inputs.arrangements(w, 8), w)
        finally:
            shutil.rmtree(base, ignore_errors=True)

    def test_generated_properties(self):
        # seeds 6 and 10 draw a lattice input that needs a restart
        for seed in (0, 1, 2, 6, 10):
            generic = inputs.arrangements("generic", seed)
            self.assertEqual(generic.pop("generic6_l4")[1], inputs.GENERIC6_L4)
            for _l, rows, _g in generic.values():
                self.assertEqual(len(rows), 6)
                self.assertTrue(inputs.is_generic(rows))
                self.assertTrue(all(-3 <= c <= 3 for r in rows for c in r))
            for _l, rows, _g in inputs.arrangements("lattice", seed).values():
                if len(rows[0]) == 4:
                    self.assertTrue(inputs.is_generic(rows))
                    self.assertTrue(all(-3 <= c <= 3 for r in rows for c in r))
            for _l, rows, _g in inputs.arrangements("lines", seed).values():
                self.assertTrue(all(any(r) for r in rows))
                self.assertTrue(all(-9 <= c <= 9 for r in rows for c in r))
                for i, a in enumerate(rows):
                    for b in rows[i + 1:]:
                        self.assertFalse(inputs.proportional(a, b))

    def test_det(self):
        self.assertEqual(inputs.det([[2, 1], [1, 3]]), 5)
        self.assertEqual(inputs.det([[0, 1, 0], [1, 0, 0], [0, 0, 4]]), -4)
        self.assertEqual(inputs.det([[1, 2], [2, 4]]), 0)


class GateTest(unittest.TestCase):

    def setUp(self):
        with open(os.path.join(HERE, "reference", "octic.json"),
                  encoding="utf-8") as fh:
            self.refs = json.load(fh)
        self.job = ("verify:nonfree_octic", "verify", "nonfree_octic")
        self.report = copy.deepcopy(self.refs[self.job[0]])
        self.report["engine"] = {"s_pairs": 1, "zero_reductions": 0,
                                 "basis_elements": 1, "max_degree": 1}

    def test_reference_passes_whatever_the_engine_counters(self):
        self.assertEqual(gate.problems(self.job, self.report, 0, {},
                                       self.refs), [])

    def test_one_perturbed_coefficient_is_rejected(self):
        self.report["result"]["lhs"][1] += 1
        why = gate.problems(self.job, self.report, 0, {}, self.refs)
        self.assertIn("report differs from the reference", why)

    def test_invariants_without_reference(self):
        self.report["result"]["residual"][-1] = 1
        why = gate.problems(self.job, self.report, 0, {}, {})
        self.assertTrue(any("residual" in w for w in why), why)

    def test_nonzero_exit_is_rejected(self):
        self.assertIn("exit code 2",
                      gate.problems(self.job, self.report, 2, {}, self.refs))


class SpanTest(unittest.TestCase):
    # (id, name, start, end, parent, job)
    SPANS = [
        (0, "cli.run", 0.0, 10.0, -1, 1),
        (1, "modules.a", 1.0, 4.0, 0, 1),
        (2, "groebner.b", 2.0, 3.0, 1, 1),
        (3, "modules.a", 3.0, 6.0, 0, 1),   # overlaps span 1
        (4, "rings.c", 8.0, 12.0, 0, 1),    # runs past its parent
        (5, "modules.a", 20.0, 21.5, -1, 2),
    ]

    def test_self_time_subtracts_the_union_of_children(self):
        own = self_times(self.SPANS)
        self.assertAlmostEqual(own[0], 10.0 - (5.0 + 2.0))
        self.assertAlmostEqual(own[1], 3.0 - 1.0)
        self.assertAlmostEqual(own[2], 1.0)
        self.assertAlmostEqual(own[3], 3.0)
        self.assertAlmostEqual(own[4], 4.0)
        self.assertAlmostEqual(own[5], 1.5)

    def test_outermost(self):
        ids = [s[0] for s in outermost(self.SPANS, ("modules.a",))]
        self.assertEqual(ids, [1, 3, 5])
        nested = [(0, "x", 0, 4, -1, 1), (1, "x", 1, 2, 0, 1)]
        self.assertEqual([s[0] for s in outermost(nested, ("x",))], [0])


class YardstickTest(unittest.TestCase):

    def test_samples_cover_the_budget(self):
        self.assertEqual(len(yardstick.samples(0.0)), 1)
        passes = yardstick.samples(0.05)
        self.assertGreaterEqual(sum(passes), 0.05)
        self.assertTrue(all(p > 0 for p in passes))

    def test_the_mix_is_fixed(self):
        self.assertEqual(yardstick.run_once(), yardstick.run_once())

    def test_sampler_samples_during_work_and_restores_the_handler(self):
        before = signal.getsignal(signal.SIGPROF)
        with yardstick.Sampler(interval=0.01) as sampler:
            start = time.process_time()
            while time.process_time() - start < 0.1:
                sum(i * i for i in range(1000))
        self.assertGreaterEqual(len(sampler.samples), 1)
        self.assertIs(signal.getsignal(signal.SIGPROF), before)


if __name__ == "__main__":
    unittest.main()
