import json
import re
from copy import deepcopy
from itertools import combinations

import pytest

from lpdeform import (
    CheckReport,
    DeformationContext,
    DomainError,
    Polynomial,
    ResourceLimitError,
    UVar,
    Verifier,
    XVar,
    all_rooted_trees,
    j_ideal_generators,
    parse_polynomial,
    rooted_tree_shapes,
    shape_to_tree,
)
from lpdeform import verifier as verifier_module
from lpdeform.groebner import _iadd, _mul, _pack_terms
from lpdeform.polynomials import MAX_KEY_WEIGHT

from conftest import (
    chain_tree,
    fixture_path,
    load_tree,
    oracle_instances,
    sign_flip_mutants,
    star_tree,
    tree_from,
    u_free,
)

FULL_SUITE = [
    "specialization", "homogeneity",
    "deg-T", "deg-S", "deg-ST", "deg-D",
    "flat-basic",
    "lemma-ts", "lemma-stt", "lemma-sum-dt1", "lemma-sum-dt2", "lemma-sum-dt3",
    "flat-p2",
    "relation-lift-x2", "relation-lift-x1",
    "hilbert",
]


@pytest.mark.parametrize("tree_name", ["chain3", "star2", "vc2"])
def test_full_suite_passes(tree_name):
    tree = load_tree(tree_name)
    reports = Verifier(tree).run_full(max_degree=3)
    assert [r.name for r in reports] == FULL_SUITE
    assert all(r.passed for r in reports), \
        [r.line() for r in reports if not r.passed]


def test_basic_suite_is_a_prefix():
    tree = chain_tree(4)
    basic = Verifier(tree).run_basic()
    assert [r.name for r in basic] == FULL_SUITE[:6]
    assert all(r.passed for r in basic)


def test_report_line_and_json():
    tree = chain_tree(2)
    report = Verifier(tree).check_specialization()
    line = report.line()
    assert line.startswith("PASS specialization generators=3 (")
    assert line.rstrip().endswith("s)")
    d = report.to_json_dict()
    assert set(d) == {"name", "passed", "params", "witness", "elapsed"}
    assert d["passed"] is True and d["witness"] is None
    json.dumps(d)  # must be serializable as-is


def test_hilbert_report_carries_both_series():
    tree = star_tree(2)
    report = Verifier(tree).compare_hilbert(4)
    assert report.passed
    assert report.params["max_degree"] == 4
    assert report.params["J"] == report.params["L"] == [1, 9, 44, 157, 456]


@pytest.mark.parametrize("name, degree", [("tree7", 8), ("chain3", 40)])
def test_hilbert_functions_agree_at_high_degree(name, degree):
    # out of reach of monomial enumeration: tree7 @8 took minutes that way
    report = Verifier(load_tree(name)).compare_hilbert(degree)
    assert report.passed
    assert len(report.params["J"]) == degree + 1
    assert report.params["J"] == report.params["L"]


def mutate(tree, pair, twist):
    out = []
    for key, g in j_ideal_generators(tree):
        out.append((key, twist(g) if key == pair else g))
    return out


def split_u_free(g):
    u_free = Polynomial({m: c for m, c in g.terms.items() if m.u_degree() == 0})
    return u_free, g - u_free


def flip_u(g):
    u_free, rest = split_u_free(g)
    return u_free - rest


def test_sign_flip_breaks_flatness_but_not_grading():
    tree = chain_tree(3)
    v = Verifier(tree, generators=mutate(tree, ("b", "c"), flip_u))
    reports = v.run_full(max_degree=3)
    by_name = {r.name: r for r in reports}
    for name in FULL_SUITE[:6]:
        assert by_name[name].passed  # the flip is degree-preserving
    failed = {r.name for r in reports if not r.passed}
    assert "relation-lift-x1" in failed or "relation-lift-x2" in failed
    assert "flat-basic" in failed
    assert all(by_name[n].witness for n in failed)


def test_scaled_generator_breaks_specialization():
    tree = chain_tree(3)
    v = Verifier(tree, generators=mutate(tree, ("a", "b"), lambda g: 2 * g))
    report = v.check_specialization()
    assert not report.passed
    assert "g('a', 'b')" in report.witness
    assert "FAIL specialization" in report.line()
    assert "witness:" in report.line()


def test_wrong_length_list_breaks_specialization():
    tree = chain_tree(3)
    v = Verifier(tree, generators=j_ideal_generators(tree)[:-1])
    report = v.check_specialization()
    assert not report.passed and "5" in report.witness


def test_stray_term_breaks_homogeneity():
    tree = chain_tree(3)
    stray = Polynomial.variable(UVar("a", "b"))
    v = Verifier(tree, generators=mutate(tree, ("b", "b"), lambda g: g + stray))
    report = v.check_homogeneity()
    assert not report.passed
    assert report.witness and "g(b,b)" in report.witness


def test_missing_generator_breaks_hilbert():
    # leaving out g(b,b) makes the quotient strictly larger from the
    # weight of b1*b2 on, so the two series must split
    tree = chain_tree(2)
    v = Verifier(tree, generators=j_ideal_generators(tree)[:-1])
    hilbert = v.compare_hilbert(3)
    assert not hilbert.passed
    assert hilbert.params["J"][2] > hilbert.params["L"][2]
    assert "vs" in hilbert.witness


def test_missing_generator_fails_the_relation_lifts_it_feeds():
    # every single-generator drop answers the whole suite: specialization
    # fails on the count and a relation lift names the missing pair.  The
    # one-node tree's only drop leaves no generator: J is the zero ideal,
    # whose basis is empty, so hilbert fails too
    drops = 0
    for n in range(1, 5):
        for shape in rooted_tree_shapes(n):
            tree = shape_to_tree(shape)
            gens = j_ideal_generators(tree)
            for k, (pair, _) in enumerate(gens):
                v = Verifier(tree, generators=gens[:k] + gens[k + 1 :])
                reports = v.run_full(max_degree=2)
                if len(gens) == 1:
                    hilbert = reports[-1]
                    assert not hilbert.passed and hilbert.witness == "J: [1, 2, 4] vs L: [1, 2, 3]"
                assert [r.name for r in reports] == FULL_SUITE
                by_name = {r.name: r for r in reports}
                assert not by_name["specialization"].passed
                lifts = [by_name[name] for name in FULL_SUITE[13:15]]
                assert any(
                    not r.passed and r.witness.endswith(f": no generator g{pair} to lift") for r in lifts
                ), (pair, [r.witness for r in lifts])
                drops += 1
    assert drops == 49


def test_resource_limits_propagate():
    v = Verifier(chain_tree(3), max_pairs=0)
    with pytest.raises(ResourceLimitError):
        v.check_flat_basic()


def test_degree_above_the_key_bound_is_a_resource_limit():
    v = Verifier(chain_tree(1))
    assert v.compare_hilbert(MAX_KEY_WEIGHT).passed
    for call in (Verifier.compare_hilbert, Verifier.run_full):
        fresh = Verifier(chain_tree(2))
        with pytest.raises(ResourceLimitError, match="exceeds 32767"):
            call(fresh, MAX_KEY_WEIGHT + 1)
        # rejected before any check ran: not even the generators were built
        assert fresh._generators is None and fresh._basis is None


def test_negative_degree_is_a_domain_error():
    # so is any degree that is not an int: a float, a string, a bool
    for bad in (-1, 2.5, "3", True):
        v = Verifier(chain_tree(2))
        with pytest.raises(DomainError):
            v.compare_hilbert(bad)
        fresh = Verifier(chain_tree(2))
        with pytest.raises(DomainError):
            fresh.run_full(max_degree=bad)
        # rejected before any check ran: not even the generators were built
        assert fresh._generators is None and fresh._basis is None


# -- every check can FAIL ------------------------------------------------------
#
# Each corruption takes the verifier of the clean run and returns the
# verifier to run again: one over a mutated generator list, or the same one
# with the packed-block method that the check reads patched on its own ctx.
# The clean run has filled the context's memos, so a patch is seen only by
# the checks' direct calls.


def twisted(pair, twist):
    def corrupt(clean):
        return Verifier(clean.tree, generators=mutate(clean.tree, pair, twist))
    return corrupt


def drop_last_generator(clean):
    return Verifier(clean.tree, generators=j_ideal_generators(clean.tree)[:-1])


def patch_ctx(method, change):
    def corrupt(clean):
        ctx = clean.ctx
        orig = getattr(ctx, method)
        setattr(ctx, method, lambda *args: change(ctx, orig(*args)))
        return clean
    return corrupt


def times_root_x1(ctx, f):
    # still homogeneous, but of the wrong degree
    return _mul(f, ctx.x_packed(1, ctx.tree.root), ctx.order)


def plus_root_x2(ctx, f):
    return _iadd(dict(f), ctx.x_packed(2, ctx.tree.root))


DEG = r"= .+, wanted .+"
REM = r": remainder .+"
TRIPLE = r"\(\w+,\w+,\w+\)"
LIFT = r"\(a,b,c\)=" + TRIPLE + ": factorization mismatch"
STRAY = Polynomial.variable(UVar("a", "b"))

# check -> (tree, corruption, witness pattern)
CORRUPTIONS = {
    "specialization": (
        chain_tree(3),
        twisted(("a", "b"), lambda g: 2 * g),
        r"g\('a', 'b'\): u->0 gave .+; difference .+",
    ),
    "homogeneity": (
        chain_tree(3), twisted(("b", "b"), lambda g: g + STRAY), r"g\(b,b\): .+"
    ),
    "deg-T": (star_tree(2), patch_ctx("t_full_packed", times_root_x1), r"deg T\(\w+\) " + DEG),
    "deg-S": (star_tree(2), patch_ctx("s_op_packed", times_root_x1), r"deg S_\w+\(\w+2\) " + DEG),
    "deg-ST": (
        star_tree(2), patch_ctx("st_entry_packed", times_root_x1),
        r"deg S_(\w+)T_\1\(\w+\) " + DEG,
    ),
    "deg-D": (
        star_tree(2), patch_ctx("minor_d_packed", times_root_x1), r"deg D\(\w+\)\^\d+ " + DEG
    ),
    "flat-basic": (chain_tree(2), twisted(("b", "b"), flip_u), r"\(p,b,c\)=" + TRIPLE + REM),
    "lemma-ts": (chain_tree(2), twisted(("b", "b"), flip_u), r"\(p,q,b\)=" + TRIPLE + REM),
    "lemma-stt": (star_tree(2), twisted(("b", "b"), flip_u), r"\(p,q,r\)=" + TRIPLE + REM),
    "lemma-sum-dt1": (
        star_tree(3), twisted(("b", "b"), flip_u), r"a=\w+ cols=\([1-9],[1-9]\) T_\w+" + REM
    ),
    "lemma-sum-dt2": (
        star_tree(2), patch_ctx("generalized_minor_packed", plus_root_x2),
        r"a=(\w+) cols=\([1-9],[1-9]\) T_\1" + REM,
    ),
    "lemma-sum-dt3": (
        star_tree(2), twisted(("b", "b"), flip_u), r"a=\w+ cols=\(0,[1-9]\) T_\w+" + REM
    ),
    "flat-p2": (chain_tree(3), twisted(("a", "a"), flip_u), r"\(a,b\)=\(\w+,\w+\)" + REM),
    "relation-lift-x2": (chain_tree(2), twisted(("a", "a"), flip_u), LIFT),
    "relation-lift-x1": (chain_tree(2), twisted(("a", "b"), flip_u), LIFT),
    "hilbert": (chain_tree(2), drop_last_generator, r"J: \[.+\] vs L: \[.+\]"),
}


def named_report(verifier, name):
    """Run only the check method that produces report `name`."""
    if name == "hilbert":
        return verifier.compare_hilbert(3)
    prefix = {"deg": "degree_formulas", "lemma": "lemma_identities", "relation": "relation_lifts"}
    method = prefix.get(name.split("-")[0], name.replace("-", "_"))
    reports = getattr(verifier, "check_" + method)()
    if isinstance(reports, CheckReport):
        reports = [reports]
    return next(r for r in reports if r.name == name)


def test_corruptions_cover_the_full_suite():
    assert list(CORRUPTIONS) == FULL_SUITE


@pytest.mark.parametrize("name", FULL_SUITE)
def test_every_check_can_fail(name):
    tree, corrupt, pattern = CORRUPTIONS[name]
    clean = Verifier(tree)
    assert named_report(clean, name).passed
    report = named_report(corrupt(clean), name)
    assert not report.passed
    assert re.fullmatch(pattern, report.witness), report.witness


def test_a_non_homogeneous_block_fails_its_degree_check():
    # b1 added to T(b) mixes degrees: deg-T FAILs naming two monomials of
    # different degree, and the suite goes on
    v = Verifier(star_tree(2))
    assert all(r.passed for r in v.run_basic())
    ctx = v.ctx
    orig = ctx.t_full_packed
    ctx.t_full_packed = lambda p: _iadd(dict(orig(p)), ctx.x_packed(1, "b")) if p == "b" else orig(p)
    reports = v.run_basic()
    assert [r.name for r in reports] == FULL_SUITE[:6]
    assert [r.name for r in reports if not r.passed] == ["deg-T"]
    witness = reports[2].witness
    assert re.fullmatch(r"deg T\(b\): monomial .+ has degree .+ but b1 has b1", witness), witness


A1 = Polynomial.variable(XVar(1, "a"))


def plus_b1_to_t_b(clean):
    ctx = clean.ctx
    orig = ctx.t_full_packed
    ctx.t_full_packed = lambda p: _iadd(dict(orig(p)), ctx.x_packed(1, "b")) if p == "b" else orig(p)
    return clean


# check -> (tree, corruption, the exact witness); homogeneity and the four
# degree laws share one instance test, and each keeps its two witness forms
DEGREE_WITNESSES = [
    ("homogeneity", *CORRUPTIONS["homogeneity"][:2],
     "g(b,b): monomial b1*b2 has degree b1+b2 but u[a,b] has -a2+b1+b2-c1"),
    ("homogeneity", chain_tree(3), twisted(("b", "b"), lambda g: g * A1),
     "g(b,b) is homogeneous of a1+b1+b2, wanted b1+b2"),
    ("deg-T", *CORRUPTIONS["deg-T"][:2], "deg T(a) = 2*a1+a2-b1-c1, wanted a1+a2-b1-c1"),
    ("deg-T", star_tree(2), plus_b1_to_t_b,
     "deg T(b): monomial a2*u[a,b] has degree b1+b2 but b1 has b1"),
    ("deg-S", *CORRUPTIONS["deg-S"][:2], "deg S_a(a2) = a1+b1+c1, wanted b1+c1"),
    ("deg-ST", *CORRUPTIONS["deg-ST"][:2], "deg S_bT_b(c) = a1-b2+c1+c2, wanted -b2+c1+c2"),
    ("deg-D", *CORRUPTIONS["deg-D"][:2], "deg D(a)^0 = a1+b1+c1, wanted b1+c1"),
]


@pytest.mark.parametrize("name, tree, corrupt, witness", DEGREE_WITNESSES)
def test_degree_witnesses_are_exact(name, tree, corrupt, witness):
    # the clean run fills the memo, so only the check's own read is corrupted
    clean = Verifier(tree)
    assert named_report(clean, name).passed
    report = named_report(corrupt(clean), name)
    assert not report.passed
    assert report.witness == witness


# -- the packed instances against the Polynomial oracle -------------------------

WIDE_TREE = "a < b\na < c\na < d\na < e\na < f\nb < g\n"


@pytest.mark.parametrize("tree", [star_tree(6), tree_from(WIDE_TREE)], ids=["star6", "wide7"])
def test_packed_instances_equal_the_polynomial_oracle(tree):
    # the instance tests are replaced by comparisons with the oracle, drawn
    # in step, and every instance passes.  The comparison is on packed
    # dicts: packing is one-to-one, and a key is cheaper than a decode
    verifier = Verifier(tree)
    order, oracle = verifier.order, oracle_instances(Verifier(tree))
    drawn, current = {}, []
    run = verifier._run

    def comparing_run(name, faults, count="instances"):
        current[:] = [name]
        drawn[name] = 0
        return run(name, faults, count)

    def compare(label, *packed):
        name = current[0]
        drawn[name] += 1
        want, *polys = next(oracle[name])
        if name.startswith("relation-lift"):
            # a lift is decided from its residues: the lift minus its
            # factorization is m*left - n*right, its u-free part
            # m*left0 - n*right0
            m, left, left0, n, right, right0, lift, factored = polys
            assert lift - factored == m * left - n * right, (name, label)
            assert u_free(lift) == m * left0 - n * right0, (name, label)
            polys = polys[:-2]
        assert (label, *packed) == (want, *(_pack_terms(f, order) for f in polys)), (name, label)

    verifier._run = comparing_run
    verifier._member = verifier._lift_fault = compare
    reports = [verifier.check_flat_basic(), *verifier.check_lemma_identities(),
               verifier.check_flat_p2(), *verifier.check_relation_lifts()]
    assert [r.name for r in reports] == list(oracle) == list(drawn)
    for report in reports:
        assert report.passed
        assert report.params["instances"] == drawn[report.name] > 0, report.name
        assert next(oracle[report.name], None) is None, report.name


def test_relation_lift_membership_holds_by_construction():
    # a lift is a combination of the generators J is built from, so it lies
    # in J whatever they are: over the 49 golden mutants no relation-lift
    # witness is a remainder, though the checks FAIL on other grounds
    with open(fixture_path("reports.json")) as fh:
        golden = json.load(fh)["mutants"]
    lifts = [r for reports in golden.values() for r in reports
             if r["name"].startswith("relation-lift")]
    assert len(golden) == 49 and len(lifts) == 98
    assert not any(r["witness"] and "remainder" in r["witness"] for r in lifts)
    assert sum(not r["passed"] for r in lifts) > 0
    # and live: every lift of every mutant, built from its generators,
    # passes the membership test
    for key, tree, gens in sign_flip_mutants(4):
        v = Verifier(tree, generators=gens)
        g, x = dict(v._packed_generators()), v.ctx.x_packed
        lifts = [
            ((2, c), (a, b), (2, b), (a, c))
            for a in tree for b, c in combinations(tree.above(a), 2)
        ] + [
            ((1, b), (a, c), (1, a), (b, c))
            for a in tree for b in tree.above(a) for c in tree.above(b)
        ]
        assert lifts, key
        for m, p, n, q in lifts:
            lift = v._combination((1, x(*m), g[p]), (-1, x(*n), g[q]))
            assert v._member(f"{p} {q}", lift) is None, (key, p, q)


@pytest.mark.parametrize("tree, gens", [
    (star_tree(3), None),
    list(sign_flip_mutants(3))[-1][1:],
], ids=["star3", "mutant"])
def test_relation_lifts_reduce_nothing(monkeypatch, tree, gens):
    # membership is buchberger's S-pair reduction, so the lifts call no
    # division; the same spy sees flat-p2's reductions
    calls = []
    reduce = verifier_module._reduce
    monkeypatch.setattr(verifier_module, "_reduce", lambda *a: calls.append(a) or reduce(*a))
    v = Verifier(tree, generators=gens)
    reports = v.check_relation_lifts()
    assert all(r.params["instances"] > 0 for r in reports)
    assert calls == []
    v.check_flat_p2()
    assert calls


@pytest.mark.parametrize("override", [False, True], ids=["context", "override"])
def test_generators_are_a_read_only_sequence_read_item_by_item(monkeypatch, override):
    tree = star_tree(3)
    want = j_ideal_generators(tree)
    v = Verifier(tree, generators=list(want) if override else None)
    unpacked = []
    unpack = verifier_module._unpack
    monkeypatch.setattr(verifier_module, "_unpack", lambda g, order: unpacked.append(g) or unpack(g, order))
    gens = v.generators
    assert len(gens) == len(want) == 7 and unpacked == []
    assert gens[0] == want[0] and gens[-1] == want[-1] and gens[2:5] == want[2:5]
    # the context's items are unpacked as they are read; the override's are the caller's
    assert len(unpacked) == (0 if override else 5)
    assert gens == want == v.ctx.j_ideal_generators() and list(gens) == want
    assert dict(gens) == dict(want) and dict(gens)[("a", "b")] == dict(want)[("a", "b")]
    extra = (("b", "c"), Polynomial.variable(XVar(1, "b")))
    assert [*gens, extra] == [*want, extra] and gens != [*want, extra]
    if override:
        assert all(a[1] is b[1] for a, b in zip(gens, want))
    # nothing reaches the verifier's list
    with pytest.raises(AttributeError):
        gens.pop()
    with pytest.raises(AttributeError):
        gens.append(extra)
    with pytest.raises(TypeError):
        gens[0] = extra
    with pytest.raises(TypeError):
        del gens[0]
    assert v.generators == want and v.check_specialization().passed and len(v.generators) == 7


def test_lift_with_a_u_free_monomial_fails():
    # the lift b2*g(a,a) - a2*g(a,b) on the chain a < b, decided from its
    # residues h = g + T S, which are a1*a2 and a1*b2
    v = Verifier(chain_tree(2))
    g, x, order = dict(v._packed_generators()), v.ctx.x_packed, v.order
    h = {pair: _pack_terms(dict(v.generators)[pair] + v.ctx.t_full(pair[0]) * v.ctx.s_op(*pair), order)
         for pair in g}
    assert h == {pair: v._quadric(*pair) for pair in g}
    m, n = x(2, "b"), x(2, "a")
    # every monomial of the lift carries a u-parameter: its u-free part,
    # b2*a1a2 - a2*a1b2, cancels
    quadrics = [v._quadric("a", "a"), v._quadric("a", "b")]
    assert v._lift_fault("L", m, h["a", "a"], quadrics[0], n, h["a", "b"], quadrics[1]) is None
    # a u-free part left over fails the instance
    assert v._lift_fault("L", m, h["a", "a"], quadrics[0], n, h["a", "b"], {}) == (
        "L: lift has a u-free monomial"
    )
    # the factorization is tested first
    assert v._lift_fault("L", m, h["a", "a"], {}, m, h["a", "b"], {}) == "L: factorization mismatch"
    # with the generators' residues and u-free parts, the check passes
    assert all(r.passed for r in v.check_relation_lifts())


def test_packed_blocks_are_built_once_and_live_with_the_context():
    # the checks read the context's packed blocks: the blocks that the basic
    # suite built are the very dicts the rest of the suite reads, each was
    # charged to the term budget once, and they live until clear_memos
    v = Verifier(star_tree(3))
    ctx = v.ctx
    assert all(r.passed for r in v.run_basic())
    held = dict(ctx._memo)
    assert ("generator_packed", "a", "b") in held and ("_det", "a", (0, 1, 2), (0, 1, 2)) in held
    assert all(r.passed for r in v.run_full(max_degree=2))
    assert all(ctx._memo[key] is val for key, val in held.items())
    # R(a,b) = D(a)^b and S_a(b) = R(a,b) for a leaf b: one dict, charged once
    assert ctx.s_op_packed("a", "b") is ctx.cover_product_r_packed("a", "b") \
        is ctx.minor_d_child_packed("a", "b")
    blocks = {id(val): val for key, val in ctx._memo.items() if key[0] != "_matrix_rows"}
    assert ctx.terms == sum(len(val) for val in blocks.values()) > 0
    # the basis and the checks read the context's generators, not copies
    assert all(g is ctx.generator_packed(p, q) for (p, q), g in v._generators)
    assert not hasattr(v, "_memo")
    ctx.clear_memos()
    assert ctx.terms == 0 and ctx._memo == {}
    again = ctx.generator_packed("a", "b")
    assert again == held["generator_packed", "a", "b"] and again is not held["generator_packed", "a", "b"]


def remaining_checks(v):
    """The checks of run_full after run_basic, at degree 2."""
    return [v.check_flat_basic(), *v.check_lemma_identities(), v.check_flat_p2(),
            *v.check_relation_lifts(), v.compare_hilbert(2)]


@pytest.mark.parametrize("cases", ["trees", "mutants"])
def test_no_check_writes_into_a_context_block(cases):
    # each instance is accumulated in a new dict: the blocks it reads, held
    # in the context's memo and shared between checks, come out as they
    # went in, and every block the checks built equals a fresh context's
    if cases == "trees":
        runs = [(tree, None) for tree in all_rooted_trees(5)]
    else:
        runs = [(tree, gens) for _, tree, gens in sign_flip_mutants(4)]
    assert len(runs) == {"trees": 17, "mutants": 49}[cases]
    for tree, gens in runs:
        v = Verifier(tree, generators=gens)
        ctx = v.ctx
        v.run_basic()
        held = deepcopy(ctx._memo)
        generators = deepcopy(v._packed_generators())
        remaining_checks(v)
        assert all(ctx._memo[key] == val for key, val in held.items())
        assert v._packed_generators() == generators
        # a fresh context of the same digit width: an override list keeps 16 bits
        fresh = DeformationContext(tree, wide=gens is not None)
        for (name, *args), val in ctx._memo.items():
            assert getattr(fresh, name)(*args) == val, (name, args)


def test_a_lift_past_the_key_bound_raises_the_key_error():
    # the override generators enter only the lifts: x2(a) * (g(a,b) +
    # b2^32767) holds a monomial of weight 32768, past the packed-key bound
    tree = chain_tree(2)
    heavy = Polynomial.variable(XVar(2, "b")) ** MAX_KEY_WEIGHT
    gens = [(pair, g + heavy if pair == ("a", "b") else g) for pair, g in j_ideal_generators(tree)]
    v = Verifier(tree, generators=gens)
    message = "monomial weight 32768 exceeds 32767, the packed-key bound"
    with pytest.raises(ResourceLimitError, match=f"^{re.escape(message)}$"):
        v.check_relation_lifts()


def test_a_narrow_basis_past_the_key_bound_raises():
    # on chain-2 a1 weighs 2 and b1 1: the leads a1^63*b1 (127) and a1*b1^2
    # fit an 8-bit key, but their lcm weighs 128.  The basis keeps the
    # verifier's width and raises, so no membership test reads a basis
    # packed at another width with the 8-bit mask
    v = Verifier(chain_tree(2))
    order = v.order
    assert order.digit_bits == 8
    gens = [parse_polynomial(t, order.variables) for t in ("a1^63*b1 - b1", "a1*b1^2 - 1")]
    v._generators = [(("a", "b"), _pack_terms(g, order)) for g in gens]
    message = "^monomial weight 128 exceeds 127, the packed-key bound$"
    with pytest.raises(ResourceLimitError, match=message):
        v.basis
    with pytest.raises(ResourceLimitError, match=message):
        v._member("g", _pack_terms(gens[1], order))


def test_an_override_past_the_narrow_key_bound_keeps_16_bit_keys():
    # a1^130 weighs 260, past what an 8-bit key holds (127): an override
    # list is packed at 16 bits, so the checks report as they do there
    tree = chain_tree(2)
    heavy = Polynomial.variable(XVar(1, "a")) ** 130
    gens = [(pair, g + heavy if pair == ("a", "b") else g) for pair, g in j_ideal_generators(tree)]
    v = Verifier(tree, generators=gens)
    assert v.order.digit_bits == 16 and Verifier(tree).order.digit_bits == 8
    reports = [
        (r.name, r.passed, r.params, r.witness)
        for r in v.run_basic() + v.check_relation_lifts() + [v.check_flat_basic(), v.check_flat_p2()]
    ]
    assert reports == [
        ("specialization", False, {"generators": 3},
         "g('a', 'b'): u->0 gave a1^130 + a1*b2; difference a1^130"),
        ("homogeneity", False, {"generators": 2},
         "g(a,b): monomial a1*b2 has degree a1+b2 but a1^130 has 130*a1"),
        ("deg-T", True, {"instances": 2}, None),
        ("deg-S", True, {"instances": 3}, None),
        ("deg-ST", True, {"instances": 0}, None),
        ("deg-D", True, {"instances": 3}, None),
        ("relation-lift-x2", False, {"instances": 1}, "(a,b,c)=(a,a,b): factorization mismatch"),
        ("relation-lift-x1", False, {"instances": 3}, "(a,b,c)=(a,b,b): factorization mismatch"),
        ("flat-basic", True, {"instances": 1}, None),
        ("flat-p2", True, {"instances": 3}, None),
    ]
