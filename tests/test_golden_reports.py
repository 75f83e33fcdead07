"""Every report of run_full, witnesses and instance counts included, pinned
against fixtures/reports.json.

The fixture holds, with `elapsed` removed, the to_json_dict() reports of
run_full(max_degree=3) on every tree fixture and of run_full(max_degree=2)
on each single sign flip of a generator's u-part over all rooted trees with
up to 4 nodes (49 mutants).  Regenerate it, only when a change to the
reports is intended, with

    PYTHONPATH=src python tests/test_golden_reports.py
"""

import json
import os

import pytest

from lpdeform import (
    NotATreeError,
    Polynomial,
    Verifier,
    j_ideal_generators,
    rooted_tree_shapes,
    shape_to_tree,
)

from conftest import FIXTURES, fixture_path, load_tree

GOLDEN = fixture_path("reports.json")
TREE_DEGREE = 3
MUTANT_DEGREE = 2
MUTANT_MAX_NODES = 4


def tree_fixture_names():
    names = []
    for fname in sorted(os.listdir(FIXTURES)):
        if fname.endswith(".poset"):
            try:
                load_tree(fname[: -len(".poset")])
            except NotATreeError:
                continue
            names.append(fname[: -len(".poset")])
    return names


def sign_flip(g):
    """g with the sign of its u-part flipped."""
    u_free = Polynomial({m: c for m, c in g.terms.items() if m.u_degree() == 0})
    return u_free - (g - u_free)


def tree_key(tree):
    if len(tree.elements) == 1:
        return tree.root
    return ",".join(f"{tree.parent(p)}<{p}" for p in tree.linear_extension() if p != tree.root)


def mutants():
    """(key, tree, generator list) for every single sign flip."""
    for n in range(1, MUTANT_MAX_NODES + 1):
        for shape in rooted_tree_shapes(n):
            tree = shape_to_tree(shape)
            gens = j_ideal_generators(tree)
            for k, ((p, q), g) in enumerate(gens):
                mutated = list(gens)
                mutated[k] = ((p, q), sign_flip(g))
                yield f"{tree_key(tree)} g({p},{q})", tree, mutated


def golden_dicts(reports):
    out = []
    for r in reports:
        d = r.to_json_dict()
        del d["elapsed"]
        out.append(d)
    return out


def tree_reports(name):
    return golden_dicts(Verifier(load_tree(name)).run_full(max_degree=TREE_DEGREE))


def mutant_reports():
    return {
        key: golden_dicts(Verifier(tree, generators=gens).run_full(max_degree=MUTANT_DEGREE))
        for key, tree, gens in mutants()
    }


def load_golden():
    with open(GOLDEN) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", tree_fixture_names())
def test_tree_fixture_reports(name):
    assert tree_reports(name) == load_golden()["trees"][name]


def test_mutant_reports():
    want = load_golden()["mutants"]
    got = mutant_reports()
    assert len(got) == 49
    assert set(got) == set(want)
    for key in want:
        assert got[key] == want[key], key


if __name__ == "__main__":
    golden = {
        "trees": {name: tree_reports(name) for name in tree_fixture_names()},
        "mutants": mutant_reports(),
    }
    with open(GOLDEN, "w") as fh:
        json.dump(golden, fh, separators=(",", ":"), sort_keys=True)
        fh.write("\n")
