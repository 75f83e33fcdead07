"""Rebuild reference.json, the stored outputs the workloads check against.

    python3 perfbench/reference.py

The values do not depend on element names, so they are keyed by shape (and,
for mutants, by the preorder positions of the mutated pair), and each one is
computed under two labellings that must agree.  Rebuild only when a change
is meant to alter the program's outputs; a speed-up must leave the file
untouched.
"""

from __future__ import annotations

import json
import random
import sys

import worker
import workloads as w


def _labellings(shape):
    return [w.Labelled(shape, random.Random(f"reference:{k}")) for k in (0, 1)]


def _agree(values, what):
    if any(v != values[0] for v in values):
        raise SystemExit(f"{what} depends on the labelling: {values}")
    return values[0]


def build(lp):
    ref = {"hilbert": {}, "gen_terms": {}, "mutants": {}}
    degrees = {shape: degree for _, shape, degree in w.HILBERT_CASES}
    for shape in lp.rooted_tree_shapes(7):
        if w.max_siblings(shape) == 5:
            degrees[shape] = w.WIDE_DEGREE
    for n in range(1, w.SWEEP_MAX_NODES + 1):
        for shape in lp.rooted_tree_shapes(n):
            key = w.shape_key(shape)
            terms = []
            for tree in _labellings(shape):
                gens = lp.j_ideal_generators(lp.as_rooted_tree(lp.parse_poset(tree.text)))
                terms.append(sum(len(g.terms) for _, g in gens))
            ref["gen_terms"][key] = _agree(terms, f"generator terms of {key}")
    for shape, degree in degrees.items():
        key = w.shape_key(shape)
        series = []
        for tree in _labellings(shape):
            report = lp.Verifier(lp.parse_poset(tree.text)).compare_hilbert(degree)
            if not report.passed:
                raise SystemExit(f"hilbert FAIL on {key}")
            series.append(report.params["J"])
        ref["hilbert"][key] = _agree(series, f"Hilbert series of {key}")
    for n in range(1, w.MUTANT_MAX_NODES + 1):
        for shape in lp.rooted_tree_shapes(n):
            verdicts = {}
            for tree in _labellings(shape):
                for key, gens in w.mutant_generators(lp, tree):
                    reports = lp.Verifier(lp.parse_poset(tree.text), generators=gens).run_full(
                        max_degree=w.MUTANT_DEGREE
                    )
                    verdicts.setdefault(key, []).append(sorted(r.name for r in reports if not r.passed))
            for key, seen in verdicts.items():
                ref["mutants"][key] = _agree(seen, f"verdicts of mutant {key}")
    return ref


def main():
    ref = build(worker.import_program())
    with open(w.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    caught = sum(1 for v in ref["mutants"].values() if v)
    print(f"wrote {w.REFERENCE}: {len(ref['gen_terms'])} shapes, {caught}/{len(ref['mutants'])} mutants caught")
    return 0


if __name__ == "__main__":
    sys.exit(main())
