"""The flatness checks certify the generators as J's reduced basis.

On a passing run_full the relation lifts, whose membership is the S-pair
reduction, and flat-basic / flat-p2, whose zero remainders give each
S-polynomial a representation below its lcm, make the generators the
reduced basis by Buchberger's criterion, so buchberger does not run.
Whenever a condition fails, buchberger builds the basis and the reports
are those of a verifier whose basis was built first.
"""

import pytest

from lpdeform import (
    DomainError,
    Monomial,
    Polynomial,
    ResourceLimitError,
    Verifier,
    XVar,
    all_rooted_trees,
    buchberger,
)
from lpdeform import groebner as groebner_module
from lpdeform import verifier as verifier_module
from lpdeform.verifier import CERTIFYING
from lpdeform.groebner import _entry, _iadd, _spairs

from conftest import chain_tree, fixture_trees, load_tree, sign_flip_mutants, star_tree, tree_from

WIDE_TREES = [
    "a < b\na < c\na < d\na < e\na < f\nb < g\n",
    "a < b\na < c\na < d\na < e\na < f\nf < g\n",
]


@pytest.fixture
def buchberger_calls(monkeypatch):
    calls = []
    real = verifier_module.buchberger
    monkeypatch.setattr(
        verifier_module, "buchberger", lambda *a, **k: calls.append(a) or real(*a, **k)
    )
    return calls


def report_rows(reports):
    return [(r.name, r.passed, r.witness, r.params) for r in reports]


def reference_verifier(tree, **kwargs):
    """A verifier whose basis buchberger builds before any check runs, so
    every membership test reduces modulo it."""
    v = Verifier(tree, **kwargs)
    v.basis
    return v


def run_checks(v, names):
    reports = []
    for name in names:
        got = getattr(v, "check_" + name)()
        reports += got if isinstance(got, list) else [got]
    return reports


def test_run_full_certifies_every_small_tree(buchberger_calls):
    # the 85 rooted trees up to 7 nodes, star-6 and the 9 tree fixtures
    trees = [*all_rooted_trees(7), star_tree(6), *fixture_trees()]
    assert len(trees) == 85 + 1 + 9
    for tree in trees:
        v = Verifier(tree)
        assert all(r.passed for r in v.run_full(max_degree=2))
        assert buchberger_calls == [], tree.covers
        want = buchberger([g for _, g in v._packed_generators()], v.order)
        assert v.basis._leads == want._leads, tree.covers


@pytest.mark.parametrize("text", WIDE_TREES, ids=["wide-b", "wide-f"])
def test_the_certificate_enumerates_no_pairs(monkeypatch, text):
    # the relation lifts cover every non-coprime pair of a rooted tree, so
    # no pair is enumerated anywhere: buchberger does not run and neither
    # the first membership test nor the certificate enumerates one
    calls = []
    real = groebner_module._spairs
    monkeypatch.setattr(groebner_module, "_spairs", lambda *a: calls.append(a) or real(*a))
    v = Verifier(tree_from(text))
    assert all(r.passed for r in v.run_full(max_degree=2))
    assert v._certified() is not None and v.basis._leads == v._certified()
    assert calls == []


def test_compare_hilbert_alone_builds_the_basis_with_buchberger(buchberger_calls):
    v = Verifier(star_tree(3))
    assert v.compare_hilbert(3).passed
    assert len(buchberger_calls) == 1
    # and a later suite reduces modulo that basis: buchberger is not called again
    assert all(r.passed for r in v.run_full(max_degree=3))
    assert len(buchberger_calls) == 1


def test_a_partial_suite_does_not_certify(buchberger_calls):
    # flat-basic and flat-p2 pass, but no lift was checked
    v = Verifier(star_tree(3))
    assert v.check_flat_basic().passed and v.check_flat_p2().passed
    assert v.compare_hilbert(2).passed
    assert len(buchberger_calls) == 1


def test_each_condition_of_the_certificate_is_needed():
    def certifying_run():
        v = Verifier(star_tree(3))
        assert all(r.passed for r in run_checks(v, ["flat_basic", "flat_p2", "relation_lifts"]))
        return v

    v = certifying_run()
    assert v._certified() is not None
    # a lead that is not the quadric of its pair
    v = certifying_run()
    (p, q), g = v._generators[1]
    v._generators[1] = ((q, p), g)
    assert v._certified() is None
    # a lead dividing a tail term
    v = certifying_run()
    (lp, ln, tail), other = v._entries[0], v._entries[1]
    v._entries[0] = (lp, ln, tail + ((other[1], 1),))
    assert v._certified() is None
    # a lead that is the quadric of an incomparable pair: no relation lift
    # covers the non-coprime pairs b1c2 makes with b1b2, a1c2 and c1c2, so
    # the generators are no basis although all four certifying checks pass
    tree = star_tree(3)
    extra = Polynomial.term(Monomial.from_pairs([(XVar(1, "b"), 1), (XVar(2, "c"), 1)]))
    gens = [*Verifier(tree).generators, (("b", "c"), extra)]
    v = Verifier(tree, generators=gens)
    assert all(r.passed for r in run_checks(v, ["flat_basic", "flat_p2", "relation_lifts"]))
    assert v._certified() is None
    assert v.basis._leads == buchberger([g for _, g in gens], v.order)._leads
    assert len(v.basis) == 12
    # a certifying check that did not pass
    v = certifying_run()
    v._passed.discard("flat-p2")
    assert v._certified() is None


def patch(ctx, method, change):
    orig = getattr(ctx, method)
    setattr(ctx, method, lambda *args: change(ctx, args, orig(*args)))


def times_root_x1(ctx, args, f):
    return ctx._times(f, ctx.x_packed(1, ctx.tree.root))


def plus_root_x2_at(target):
    def change(ctx, args, f):
        return _iadd(dict(f), ctx.x_packed(2, ctx.tree.root)) if args == target else f
    return change


# name -> (tree, the checks run before the patch, the patch, the checks after)
WITHHOLDING = {
    # T(a) is scaled alike on both sides of flat-p2, which stays in J, but
    # neither lift equals its factorization any more
    "broken-lift": (
        chain_tree(3), [], ("t_full_packed", times_root_x1),
        ["flat_basic", "flat_p2", "relation_lifts"],
    ),
    # one flat-basic instance leaves a nonzero remainder; the lifts ran first
    "flat-basic-remainder": (
        star_tree(2), ["relation_lifts", "flat_p2"], ("s_op_packed", plus_root_x2_at(("a", "b"))),
        ["flat_basic"],
    ),
    # one flat-p2 instance leaves a nonzero remainder; the lifts ran first
    "flat-p2-remainder": (
        chain_tree(3), ["relation_lifts", "flat_basic"],
        ("cover_product_r_packed", plus_root_x2_at(("a", "b"))), ["flat_p2"],
    ),
}


def run_withholding(v, before, patched, after):
    v.run_basic()  # fills the context's memo of the generators
    reports = run_checks(v, before)
    patch(v.ctx, *patched)
    return reports + run_checks(v, after) + [v.compare_hilbert(3)]


@pytest.mark.parametrize("case", list(WITHHOLDING))
def test_a_failed_condition_withholds_the_certificate(case, buchberger_calls):
    tree, before, patched, after = WITHHOLDING[case]
    v = Verifier(tree)
    reports = run_withholding(v, before, patched, after)
    failed = [r for r in reports if not r.passed]
    assert [r.name for r in failed] == {
        "broken-lift": ["relation-lift-x2", "relation-lift-x1"],
        "flat-basic-remainder": ["flat-basic"],
        "flat-p2-remainder": ["flat-p2"],
    }[case]
    kind = "factorization mismatch" if case == "broken-lift" else ": remainder "
    assert kind in failed[0].witness
    # the certificate was withheld: buchberger built the basis
    assert len(buchberger_calls) == 1
    want = buchberger([g for _, g in v._packed_generators()], v.order)
    assert v.basis._leads == want._leads
    # and the reports are those of a verifier with the basis built first
    ref = reference_verifier(tree)
    assert report_rows(reports) == report_rows(run_withholding(ref, before, patched, after))


def test_sign_flip_mutants_report_as_with_the_basis_built_first(buchberger_calls):
    # a mutant that fails a certifying check gets buchberger's basis; the
    # one-node tree's mutant is still a single generator, its own basis
    certified = 0
    for key, tree, gens in sign_flip_mutants(3):
        calls = len(buchberger_calls)
        v = Verifier(tree, generators=gens)
        reports = v.run_full(max_degree=3)
        passed = CERTIFYING <= {r.name for r in reports if r.passed}
        assert len(buchberger_calls) - calls == (not passed), key
        certified += passed
        ref = reference_verifier(tree, generators=gens)
        assert report_rows(reports) == report_rows(ref.run_full(max_degree=3)), key
    assert certified == 1


def test_the_fallback_basis_starts_from_the_verifiers_entries(buchberger_calls):
    # the membership tests made the generators' packed entries: buchberger
    # takes that list, leaves it as it was and returns the basis it builds
    # from the generators themselves
    built = 0
    for key, tree, gens in sign_flip_mutants(4):
        v = Verifier(tree, generators=gens)
        v.run_full(max_degree=2)
        if not buchberger_calls:
            continue
        [(handed, order)] = buchberger_calls
        buchberger_calls.clear()
        packed = [g for _, g in v._packed_generators() if g]
        assert handed is v._entries and handed == [_entry(g, order) for g in packed], key
        assert v.basis._leads == buchberger([g for _, g in gens], order)._leads, key
        built += 1
    assert built == 48


def test_no_nonzero_generator_is_the_zero_ideal():
    v = Verifier(chain_tree(1), generators=[])
    assert len(v.basis) == 0 and v.basis.leading_monomials() == ()
    with pytest.raises(DomainError, match="no nonzero generators"):
        buchberger([], v.order)
    by_name = {r.name: r for r in v.run_full(max_degree=2)}
    assert not by_name["specialization"].passed
    assert by_name["specialization"].witness == "0 deformed generators vs 1 letterplace generators"
    assert by_name["flat-p2"].passed  # its one instance is the zero polynomial
    assert not by_name["hilbert"].passed


# -- the budgets keep buchberger's contract ------------------------------------

BUDGET_TREES = {
    "star2": load_tree("star2"),
    "chain3": load_tree("chain3"),
    "tree7": load_tree("tree7"),
    "wide-b": tree_from(WIDE_TREES[0]),
    "wide-f": tree_from(WIDE_TREES[1]),
}


def outcome(call):
    try:
        call()
    except ResourceLimitError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("name", list(BUDGET_TREES))
def test_budget_trips_are_buchbergers(name):
    tree = BUDGET_TREES[name]
    probe = Verifier(tree)
    order = probe.order
    gens = [g for _, g in probe._packed_generators()]
    keys = [k for k, _, _ in _spairs([_entry(g, order) for g in gens], [], order)]
    weight = max(-(-k >> order.mask.bit_length()) for k in keys)
    budgets = [{"max_pairs": n} for n in range(len(keys) + 2)]
    budgets += [{"max_weight": w} for w in range(weight + 2)]
    trips = 0
    for budget in budgets:
        want = outcome(lambda: buchberger(gens, order, **budget))
        got = outcome(lambda: Verifier(tree, **budget).run_full(max_degree=1))
        assert got == want, (budget, got, want)
        trips += want is not None
    assert trips == len(keys) + weight


@pytest.mark.parametrize("name", ["star2", "chain3", "tree7"])
def test_a_budget_that_holds_every_pair_gets_buchbergers_basis(name, buchberger_calls):
    # max_pairs at the non-coprime count holds every pair buchberger charges,
    # but not all n(n-1)/2 pairs, so the first membership test leaves the
    # budget to buchberger, which builds the basis there
    tree = BUDGET_TREES[name]
    probe = Verifier(tree)
    order = probe.order
    gens = [g for _, g in probe._packed_generators()]
    pairs = len(_spairs([_entry(g, order) for g in gens], [], order))
    assert pairs < len(gens) * (len(gens) - 1) // 2
    v = Verifier(tree, max_pairs=pairs)
    assert report_rows(v.run_full(max_degree=2)) == report_rows(probe.run_full(max_degree=2))
    assert len(buchberger_calls) == 1
    assert v.basis._leads == buchberger(gens, order)._leads


def test_budget_trips_on_mutants_are_buchbergers():
    # generators that are no basis: buchberger's loop grows the basis and
    # processes more pairs than the generators have, so a budget can pass
    # the charge at the first membership test and still trip the loop later
    late = 0
    for key, tree, gens in sign_flip_mutants(3):
        probe = Verifier(tree, generators=gens)
        order, packed = probe.order, [g for _, g in probe._packed_generators()]
        charged = len(_spairs([_entry(g, order) for g in packed], [], order))
        for field in ("max_pairs", "max_weight"):
            budget = {field: 0}
            while True:
                want = outcome(lambda: buchberger(packed, order, **budget))
                got = outcome(lambda: Verifier(tree, generators=gens, **budget).run_full(max_degree=1))
                assert got == want, (key, budget, got, want)
                late += want is not None and field == "max_pairs" and budget[field] >= charged
                if want is None:
                    break
                budget[field] += 1
    assert late > 0
