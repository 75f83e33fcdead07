"""The four benchmark workloads: their inputs, their calls and their checks.

Every input is generated here from the seed.  A tree is built from an
unlabelled shape (a canonical nested tuple from `lp.rooted_tree_shapes`: a
node is the sorted tuple of its children) and the seed picks the element
names.
Names decide the canonical linear extension, so the seed also moves the
variable order, the reverse-lex tie-breaks and the reduction path.  The
program sees only the generated poset text (or files holding it).

A workload is a list of Items.  One pass calls every item once; the call is
the timed, verdict-producing call into the program, and the item's check
runs afterwards, outside the timed region, and returns a list of problems
(empty when the output is correct).
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import json
import os
import random
from pathlib import Path

REFERENCE = Path(__file__).resolve().with_name("reference.json")

BASIC_SUITE = ("specialization", "homogeneity", "deg-T", "deg-S", "deg-ST", "deg-D")
FULL_SUITE = BASIC_SUITE + (
    "flat-basic",
    "lemma-ts",
    "lemma-stt",
    "lemma-sum-dt1",
    "lemma-sum-dt2",
    "lemma-sum-dt3",
    "flat-p2",
    "relation-lift-x2",
    "relation-lift-x1",
    "hilbert",
)

# (fixture name, shape, degree) for the hilbert workload
HILBERT_CASES = (
    ("tree7", ((), (), (((), ()),)), 4),
    ("star3", ((), (), ()), 7),
    ("chain3", (((),),), 12),
    ("chain2", ((),), 16),
)
HILBERT_LABELLINGS = 3
WIDE_DEGREE = 2
MUTANT_DEGREE = 2
MUTANT_MAX_NODES = 4
SWEEP_MAX_NODES = 7
NAME_POOL = tuple(a + b for a in "abcdefghijklmnopqrstuvwxyz" for b in "abcdefghijklmnopqrstuvwxyz")


# -- invariants of shapes, computed without the program ----------------------


def size(shape):
    return 1 + sum(size(c) for c in shape)


def max_siblings(shape):
    return max([len(shape)] + [max_siblings(c) for c in shape])


def comparable_pairs(shape):
    """Number of pairs p <= q: every node is below its whole subtree."""
    return size(shape) + sum(comparable_pairs(c) for c in shape)


def order_ideals(shape):
    """Down-sets of a tree poset: empty, or the root plus a down-set of
    each child subtree."""
    prod = 1
    for c in shape:
        prod *= order_ideals(c)
    return 1 + prod


def u_parameters(shape):
    """One parameter for the root; for each child b of a node, one for the
    parent and one for each element of each sibling subtree of b."""

    def below(node):
        kids = [size(c) for c in node]
        here = sum(1 + sum(kids) - k for k in kids)
        return here + sum(below(c) for c in node)

    return 1 + below(shape)


def shape_key(shape):
    return repr(shape)


# -- labelling -------------------------------------------------------------


class Labelled:
    """A shape with seeded element names.  `names[i]` names the i-th node in
    preorder; `covers` are the (parent, child) pairs; `text` is the poset
    file content with the cover lines in seeded order."""

    def __init__(self, shape, rng):
        self.shape = shape
        self.names = rng.sample(NAME_POOL, size(shape))
        self.covers = []
        counter = iter(range(len(self.names)))

        def walk(node):
            me = self.names[next(counter)]
            for child in node:
                self.covers.append((me, walk(child)))
            return me

        walk(shape)
        self.preorder = {name: i for i, name in enumerate(self.names)}
        lines = [f"{p} < {q}" for p, q in self.covers]
        rng.shuffle(lines)
        self.text = "\n".join(lines) + "\n" if lines else f"elem {self.names[0]}\n"
        above = {p: {p} for p in self.names}
        for p, q in self.covers:  # a child's covers come before its own
            above[p] |= above[q]
        self.pairs = {(p, q) for p in self.names for q in above[p]}


def load_reference():
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


# -- items -------------------------------------------------------------------


class Item:
    __slots__ = ("label", "call", "check")

    def __init__(self, label, call, check):
        self.label = label
        self.call = call
        self.check = check


def _check_full_suite(reports):
    names = tuple(r.name for r in reports)
    problems = []
    if names != FULL_SUITE:
        problems.append(f"suite ran {names}")
    problems += [f"{r.name} FAIL: {r.witness}" for r in reports if not r.passed]
    return problems


def _hilbert_problems(report, want):
    problems = []
    if not report.passed:
        problems.append("hilbert FAIL")
    j, l = report.params.get("J"), report.params.get("L")
    if j != want or l != want:
        problems.append(f"series J={j} L={l}, reference {want}")
    return problems


def wide(lp, seed, workdir, ref):
    """run_full on the 7-node trees whose largest sibling class has 5
    children: the Groebner layers do almost all the work."""
    rng = random.Random(f"wide:{seed}")
    items = []
    for shape in lp.rooted_tree_shapes(7):
        if max_siblings(shape) != 5:
            continue
        tree = Labelled(shape, rng)
        want_series = ref["hilbert"][shape_key(shape)][: WIDE_DEGREE + 1]

        def call(text=tree.text):
            v = lp.Verifier(lp.parse_poset(text))
            return len(v.generators), v.run_full(max_degree=WIDE_DEGREE)

        def check(out, pairs=comparable_pairs(shape), want=want_series):
            count, reports = out
            problems = _check_full_suite(reports)
            if count != pairs:
                problems.append(f"{count} generators, {pairs} comparable pairs")
            if reports and reports[-1].name == "hilbert":
                problems += _hilbert_problems(reports[-1], want)
            return problems

        items.append(Item(f"run_full {shape_key(shape)}", call, check))
    return items


def _run_cli(lp, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lp.cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def _check_info(out, tree):
    code, stdout, _ = out
    info = json.loads(stdout)
    want = {
        "elements": size(tree.shape),
        "codimension": size(tree.shape),
        "multiplicity": order_ideals(tree.shape),
        "tree": True,
        "u_parameters": u_parameters(tree.shape),
        "t1_generators": u_parameters(tree.shape),
        "agree": True,
    }
    problems = [] if code == 0 else [f"exit {code}"]
    problems += [f"{k}={info.get(k)!r}, wanted {v!r}" for k, v in want.items() if info.get(k) != v]
    return problems


def _check_gens(out, tree, gen_terms):
    code, stdout, _ = out
    gens = json.loads(stdout)["generators"]
    problems = [] if code == 0 else [f"exit {code}"]
    pairs = [tuple(g["pair"]) for g in gens]
    if len(pairs) != len(tree.pairs) or set(pairs) != tree.pairs:
        problems.append(f"{len(pairs)} generators for {len(tree.pairs)} comparable pairs")
    terms = sum(len(g["terms"]) for g in gens)
    if terms != gen_terms:
        problems.append(f"{terms} generator terms, reference {gen_terms}")
    for g in gens:
        p, q = g["pair"]
        head = {"coeff": "1/1", "monomial": {f"{p}1": 1, f"{q}2": 1}}
        if head not in g["terms"]:
            problems.append(f"g({p},{q}) lacks the quadric {p}1*{q}2")
            break
    return problems


def _check_check(out, tree):
    code, stdout, _ = out
    payload = json.loads(stdout)
    reports = payload["reports"]
    problems = [] if code == 0 else [f"exit {code}"]
    names = tuple(r["name"] for r in reports)
    if names != BASIC_SUITE:
        problems.append(f"suite ran {names}")
    if payload["passed"] is not True:
        problems.append("suite did not pass")
    problems += [f"{r['name']} FAIL" for r in reports if r["passed"] is not True]
    gens = reports[0]["params"].get("generators") if reports else None
    if gens != len(tree.pairs):
        problems.append(f"specialization saw {gens} generators")
    return problems


def cli_sweep(lp, seed, workdir, ref):
    """info, gens and check through lp's entry point on every rooted tree
    with up to 7 nodes, read from poset files."""
    rng = random.Random(f"cli-sweep:{seed}")
    folder = Path(workdir) / "cli-sweep"
    folder.mkdir(parents=True, exist_ok=True)
    items = []
    index = 0
    for n in range(1, SWEEP_MAX_NODES + 1):
        for shape in lp.rooted_tree_shapes(n):
            tree = Labelled(shape, rng)
            path = str(folder / f"t{index:03d}.poset")
            index += 1
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(tree.text)
            gen_terms = ref["gen_terms"][shape_key(shape)]
            argvs = (
                (["info", path, "--json"], lambda out, t=tree: _check_info(out, t)),
                (
                    ["gens", path, "--ideal", "J", "--json"],
                    lambda out, t=tree, g=gen_terms: _check_gens(out, t, g),
                ),
                (["check", path, "--json"], lambda out, t=tree: _check_check(out, t)),
            )
            for argv, check in argvs:
                items.append(
                    Item(f"lp {argv[0]} {shape_key(shape)}", functools.partial(_run_cli, lp, argv), check)
                )
    return items


def hilbert(lp, seed, workdir, ref):
    """compare_hilbert on small trees at high degree: monomial enumeration
    dominates and the basis is tiny.

    The cost of one tree at one degree depends on its labelling, by up to
    60% (star3 @7), so each item cycles through HILBERT_LABELLINGS
    labellings, one per call."""
    rng = random.Random(f"hilbert:{seed}")
    items = []
    for name, shape, degree in HILBERT_CASES:
        texts = itertools.cycle([Labelled(shape, rng).text for _ in range(HILBERT_LABELLINGS)])
        want = ref["hilbert"][shape_key(shape)][: degree + 1]

        def call(texts=texts, degree=degree):
            return lp.Verifier(lp.parse_poset(next(texts))).compare_hilbert(degree)

        def check(report, want=want):
            return _hilbert_problems(report, want)

        items.append(Item(f"hilbert {name} @{degree}", call, check))
    return items


def sign_flip(lp, g):
    """g with the sign of its u-part flipped: p1*q2 - tail becomes p1*q2 + tail."""
    u_free = lp.Polynomial({m: c for m, c in g.terms.items() if m.u_degree() == 0})
    return u_free - (g - u_free)


def mutant_key(tree, pair):
    p, q = pair
    return f"{shape_key(tree.shape)} {tree.preorder[p]} {tree.preorder[q]}"


def mutant_generators(lp, tree):
    """(key, generator list) for every single sign flip of one generator."""
    gens = lp.j_ideal_generators(lp.as_rooted_tree(lp.parse_poset(tree.text)))
    out = []
    for k, (pair, g) in enumerate(gens):
        mutated = list(gens)
        mutated[k] = (pair, sign_flip(lp, g))
        out.append((mutant_key(tree, pair), mutated))
    return out


def mutants(lp, seed, workdir, ref):
    """run_full with one sign-flipped generator, for every generator of
    every rooted tree with up to 4 nodes: the checks take the FAIL path and
    Buchberger really grows the basis."""
    rng = random.Random(f"mutants:{seed}")
    items = []
    for n in range(1, MUTANT_MAX_NODES + 1):
        for shape in lp.rooted_tree_shapes(n):
            tree = Labelled(shape, rng)
            for key, gens in mutant_generators(lp, tree):

                def call(text=tree.text, gens=gens):
                    verifier = lp.Verifier(lp.parse_poset(text), generators=gens)
                    return verifier.run_full(max_degree=MUTANT_DEGREE)

                def check(reports, want=ref["mutants"][key]):
                    names = tuple(r.name for r in reports)
                    failed = sorted(r.name for r in reports if not r.passed)
                    problems = [] if names == FULL_SUITE else [f"suite ran {names}"]
                    if failed != want:
                        problems.append(f"failed checks {failed}, recorded {want}")
                    problems += [f"{r.name} FAIL without witness" for r in reports if not r.passed and not r.witness]
                    return problems

                items.append(Item(f"mutant {key}", call, check))
    return items


def caught(reports):
    """True when a mutant's run_full rejected it in at least one check."""
    return any(not r.passed for r in reports)


WORKLOADS = {"wide": wide, "cli-sweep": cli_sweep, "hilbert": hilbert, "mutants": mutants}


def build(name, lp, seed, workdir, ref=None):
    """Generate the inputs of workload `name` (files go under `workdir`)."""
    os.makedirs(workdir, exist_ok=True)
    return WORKLOADS[name](lp, seed, workdir, load_reference() if ref is None else ref)
