"""The benchmark's own tests.

    python3 perfbench/selftest.py          (about half a minute)

They show that each workload's check can fail (a corrupted expected value
makes failed operations, so fail_frac > 0), that traced counts repeat
exactly for a seed, that another seed gives the same verdicts, that the
probes' time is taken off the calls they interrupt, and that the tracer
leaves the program as it found it.
"""

from __future__ import annotations

import random
import shutil
import tempfile
import time
import unittest
from pathlib import Path

import spans
import worker
import workloads as w

lp = worker.import_program()
WORK = Path(__file__).resolve().parent / "_work"
CRITERION_07 = {  # tests/test_acceptance.py, criterion 07
    "chain2": [1, 4, 11, 22, 40, 64, 98],
    "chain3": [1, 6, 22, 61, 141, 288, 537],
}


def scratch_dir():
    WORK.mkdir(exist_ok=True)
    return tempfile.mkdtemp(dir=WORK)


def fail_frac(name, seed, ref=None, keep=lambda item: True):
    """Failed operations over attempted ones for one pass over the items
    `keep` selects, checked against `ref`."""
    workdir = scratch_dir()
    try:
        items = [i for i in w.build(name, lp, seed, workdir, ref) if keep(i)]
        outputs = worker.run_pass(items)
        return sum(1 for i, o in zip(items, outputs) if worker.problems(i, o)) / len(items)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


class Shapes(unittest.TestCase):
    def test_invariants_match_the_program(self):
        for shape in lp.rooted_tree_shapes(5):
            tree = w.Labelled(shape, random.Random(7))
            poset = lp.as_rooted_tree(lp.parse_poset(tree.text))
            self.assertEqual(w.comparable_pairs(shape), len(lp.comparable_pairs(poset)))
            self.assertEqual(w.order_ideals(shape), poset.count_order_ideals())
            self.assertEqual(w.u_parameters(shape), len(lp.u_variables(poset)))
            self.assertEqual(tree.pairs, set(lp.comparable_pairs(poset)))

    def test_hilbert_reference_holds_criterion_07(self):
        ref = w.load_reference()["hilbert"]
        for name, shape, _ in w.HILBERT_CASES:
            if name in CRITERION_07:
                want = CRITERION_07[name]
                self.assertEqual(ref[w.shape_key(shape)][: len(want)], want)

    def test_monomial_count(self):
        weights = [1, 2, 2, 3]
        brute = sum(
            1
            for a in range(6)
            for b in range(3)
            for c in range(3)
            for d in range(2)
            if a + 2 * b + 2 * c + 3 * d <= 5
        )
        self.assertEqual(spans.monomials_up_to(weights, 5), brute)


class ChecksCanFail(unittest.TestCase):
    """A corrupted expected value raises fail_frac above 0."""

    def setUp(self):
        self.ref = w.load_reference()

    def test_cli_sweep(self):
        small = lambda item: item.label.endswith("(((),),)") or item.label.endswith("((), ())")
        self.assertEqual(fail_frac("cli-sweep", 3, self.ref, small), 0)
        self.ref["gen_terms"][w.shape_key((((),),))] += 1
        self.assertGreater(fail_frac("cli-sweep", 3, self.ref, small), 0)

    def test_hilbert(self):
        chain2 = lambda item: "chain2" in item.label
        self.assertEqual(fail_frac("hilbert", 3, self.ref, chain2), 0)
        self.ref["hilbert"][w.shape_key(((),))][16] += 1
        self.assertGreater(fail_frac("hilbert", 3, self.ref, chain2), 0)

    def test_mutants(self):
        small = lambda item: " ((),) " in item.label or " () " in item.label
        self.assertEqual(fail_frac("mutants", 3, self.ref, small), 0)
        self.ref["mutants"][f"{w.shape_key(())} 0 0"] = ["hilbert"]
        self.assertGreater(fail_frac("mutants", 3, self.ref, small), 0)

    def test_wide(self):
        one = lambda item: item.label == f"run_full {w.shape_key((((), (), (), (), ()),))}"
        key = w.shape_key((((), (), (), (), ()),))
        self.ref["hilbert"][key] = self.ref["hilbert"][key][:2] + [0]
        self.assertGreater(fail_frac("wide", 3, self.ref, one), 0)


class Measuring(unittest.TestCase):
    def test_probes_are_split_and_taken_off_calls(self):
        def sleeper(seconds):
            return lambda: time.sleep(seconds)

        items = [w.Item(str(s), sleeper(s), lambda out: []) for s in (0.01, 0.2)]
        outputs = []
        calls, inside, between, peak_mb = worker.measure(items, 2.0, lambda i, out: outputs.append(i))
        self.assertEqual(len(outputs), sum(len(reps) for reps in calls))
        self.assertGreater(len(inside), 5)
        self.assertGreater(len(between), 5)  # the lead-in and the tail
        for took, speed in calls[1]:
            self.assertAlmostEqual(took, 0.2, delta=0.02)
            self.assertGreater(speed, 0)
        self.assertGreater(peak_mb, 0)


class Tracing(unittest.TestCase):
    def traced_pass(self, seed):
        workdir = scratch_dir()
        try:
            items = w.build("mutants", lp, seed, workdir)
            tracer = spans.Tracer()
            tracer.install()
            try:
                outputs = worker.run_pass(items)
            finally:
                tracer.uninstall()
            self.assertEqual([worker.problems(i, o) for i, o in zip(items, outputs)], [[]] * len(items))
            return tracer, [sorted(r.name for r in o if not r.passed) for o in outputs]
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    def test_counts_repeat_and_verdicts_hold_across_seeds(self):
        first, verdicts = self.traced_pass(5)
        again, verdicts_again = self.traced_pass(5)
        other, verdicts_other = self.traced_pass(6)
        self.assertEqual(first.counts, again.counts)
        self.assertEqual(verdicts, verdicts_again)
        self.assertEqual(sorted(map(tuple, verdicts)), sorted(map(tuple, verdicts_other)))
        self.assertEqual(sum(1 for v in verdicts if v), 48)
        self.assertGreater(first.counts["groebner.basis_added"], 0)
        self.assertGreater(first.edges[("verifier.flat_basic", "groebner.basis")], 0)

    def test_uninstall_restores_the_program(self):
        def entry_points():
            return (
                lp.GroebnerBasis.normal_form,
                lp.MonomialOrder.key,
                lp.parse_poset,
                lp.posets.parse_poset,
                lp.verifier.buchberger,
                lp.cli.run,
            )

        before = entry_points()
        tracer = spans.Tracer()
        tracer.install()
        self.assertTrue(all(a is not b for a, b in zip(before, entry_points())))
        tracer.uninstall()
        self.assertTrue(all(a is b for a, b in zip(before, entry_points())))


if __name__ == "__main__":
    unittest.main()
