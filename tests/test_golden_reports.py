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

from lpdeform import NotATreeError, Verifier

from conftest import FIXTURES, fixture_path, load_tree, sign_flip_mutants

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
        for key, tree, gens in sign_flip_mutants(MUTANT_MAX_NODES)
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
