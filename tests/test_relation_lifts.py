"""The relation lifts, decided from per-generator residues.

Verifier.check_relation_lifts builds neither a lift nor its factorization:
it compares two shifted residues, made once per generator (see its
docstring).  These tests hold its reports to the Polynomial oracle's
predicate, which builds both: the first instance whose lift differs from
its factorization fails with "factorization mismatch", else the first whose
lift has a u-free monomial fails with "lift has a u-free monomial", and a
missing generator fails the first instance that needs it.  The reports
must agree in verdict, instance count and witness.
"""

from itertools import combinations

import pytest

from lpdeform import (
    Monomial,
    Polynomial,
    ResourceLimitError,
    Verifier,
    XVar,
    j_ideal_generators,
    rooted_tree_shapes,
    shape_to_tree,
)
from lpdeform.groebner import _iadd

from conftest import (
    PolynomialContext,
    chain_tree,
    sign_flip_mutants,
    star_tree,
    tree_key,
    u_free,
    x_poly,
)


def oracle_reports(tree, gens=None):
    """(name, passed, params, witness) of both lift checks, from lifts and
    factorizations built as Polynomials, instance by instance in the
    checks' order."""
    ctx = PolynomialContext(tree)
    g = dict(ctx.j_ideal_generators() if gens is None else gens)
    t, s, r = ctx.t_full, ctx.s_op, ctx.cover_product_r

    def fault(abc, m, p, n, q, factorization):
        label = "(a,b,c)=({},{},{})".format(*abc)
        for pair in (p, q):
            if pair not in g:
                return f"{label}: no generator g{pair} to lift"
        lift = m * g[p] - n * g[q]
        if lift != factorization():
            return f"{label}: factorization mismatch"
        if not u_free(lift).is_zero:
            return f"{label}: lift has a u-free monomial"
        return None

    def flat_p2(a, b):
        return x_poly(1, a) * t(b) - t(a) * r(a, b) * x_poly(1, b)

    x2 = (
        fault(
            (a, b, c), x_poly(2, c), (a, b), x_poly(2, b), (a, c),
            lambda a=a, b=b, c=c: t(a) * (x_poly(2, b) * s(a, c) - x_poly(2, c) * s(a, b)),
        )
        for a in tree
        for b, c in combinations(tree.above(a), 2)
    )
    x1 = (
        fault(
            (a, b, c), x_poly(1, b), (a, c), x_poly(1, a), (b, c),
            lambda a=a, b=b, c=c: s(b, c) * flat_p2(a, b),
        )
        for a in tree
        for b in tree.above(a)
        for c in tree.above(b)
    )
    return [report("relation-lift-x2", x2), report("relation-lift-x1", x1)]


def report(name, faults):
    n, witness = 0, None
    for witness in faults:
        n += 1
        if witness is not None:
            break
    return name, witness is None, {"instances": n}, witness


def lift_reports(tree, gens=None):
    return [
        (r.name, r.passed, r.params, r.witness)
        for r in Verifier(tree, generators=gens).check_relation_lifts()
    ]


def trees(max_nodes):
    for n in range(1, max_nodes + 1):
        for shape in rooted_tree_shapes(n):
            yield shape_to_tree(shape)


def test_every_tree_up_to_7_nodes_agrees_with_the_oracle():
    count = 0
    for tree in trees(7):
        count += 1
        got = lift_reports(tree)
        assert got == oracle_reports(tree), tree_key(tree)
        assert all(passed for _, passed, _, _ in got)
    assert count == 85


def test_the_sign_flip_mutants_agree_with_the_oracle():
    failed, count = 0, 0
    for key, tree, gens in sign_flip_mutants(5):
        count += 1
        got = lift_reports(tree, gens)
        assert got == oracle_reports(tree, gens), key
        failed += sum(not passed for _, passed, _, _ in got)
    assert count == 156 and failed > 0


def term_mutants(max_nodes):
    """(key, tree, generator list) for each deletion of one term of one
    generator and each scaling of one term's coefficient by 3 and by -1,
    over the rooted trees with up to max_nodes nodes."""
    for tree in trees(max_nodes):
        gens = j_ideal_generators(tree)
        for k, (pair, g) in enumerate(gens):
            for mono, coeff in sorted(g.terms.items(), key=repr):
                for change, factor in (("drop", 0), ("times 3", 3), ("negate", -1)):
                    terms = dict(g.terms)
                    terms[mono] = coeff * factor
                    mutated = list(gens)
                    mutated[k] = (pair, Polynomial({m: c for m, c in terms.items() if c}))
                    yield f"{tree_key(tree)} g{pair} {change} {mono}", tree, mutated


def test_single_term_changes_agree_with_the_oracle():
    witnesses, count = set(), 0
    for key, tree, gens in term_mutants(4):
        count += 1
        got = lift_reports(tree, gens)
        assert got == oracle_reports(tree, gens), key
        witnesses.update(w.split(": ", 1)[1] for _, _, _, w in got if w)
    # a changed generator changes its residue h = g + T S, so the first
    # lift that reads it fails on its factorization
    assert witnesses == {"factorization mismatch"}
    assert count > 300


def test_a_deleted_generator_fails_the_lift_that_needs_it():
    count = 0
    for tree in trees(4):
        gens = j_ideal_generators(tree)
        for k in range(len(gens)):
            count += 1
            kept = gens[:k] + gens[k + 1:]
            got = lift_reports(tree, kept)
            assert got == oracle_reports(tree, kept), (tree_key(tree), gens[k][0])
            pair = gens[k][0]
            assert any(w and w.endswith(f": no generator g{pair} to lift") for _, _, _, w in got)
    assert count == 49


def test_an_override_that_breaks_x1_only():
    # on the chain a < b, x2 reads g(a,a) and g(a,b) alone: three times
    # g(b,b) breaks the x1 lift b1 g(a,b) - a1 g(b,b) and nothing else
    tree = chain_tree(2)
    gens = [(pair, g * 3 if pair == ("b", "b") else g) for pair, g in j_ideal_generators(tree)]
    got = lift_reports(tree, gens)
    assert got == oracle_reports(tree, gens)
    assert got == [
        ("relation-lift-x2", True, {"instances": 1}, None),
        ("relation-lift-x1", False, {"instances": 3}, "(a,b,c)=(a,b,b): factorization mismatch"),
    ]


def test_a_u_free_term_in_a_t_block_fails_the_u_positivity_clause():
    # T(a) on the chain a < b gains the u-free term a2 before the
    # generators are built from it.  Each h = g + T S is still p1*q2, so
    # every factorization holds, but g(a,a) gains the u-free -a2*b1 (S_a(a)
    # is b1 plus u-terms), so x2's u-free part b2 g0(a,a) - a2 g0(a,b) is
    # -a2*b1*b2; x1's b1 g0(a,b) - a1 g0(b,b) still cancels
    v = Verifier(chain_tree(2))
    ctx = v.ctx
    t_a = dict(ctx.t_full_packed("a"))
    t_a.update(ctx.x_packed(2, "a"))
    ctx._memo["t_full_packed", "a"] = t_a
    x2, x1 = v.check_relation_lifts()
    assert not x2.passed
    assert x2.witness == "(a,b,c)=(a,a,b): lift has a u-free monomial"
    assert x1.passed
    assert "relation-lift-x2" not in v._passed


# a block, patched with + root2 after the generators were built from it
# -> the lift reports; the lift checks read the blocks the factorizations
# go through, as the flat checks do
PATCHED_BLOCKS = {
    "R(a,b)": (("cover_product_r_packed", "a", "b"), [
        ("relation-lift-x2", True, {"instances": 4}, None),
        ("relation-lift-x1", False, {"instances": 4}, "(a,b,c)=(a,b,b): factorization mismatch"),
    ]),
    "S_a(b)": (("s_op_packed", "a", "b"), [
        ("relation-lift-x2", False, {"instances": 1}, "(a,b,c)=(a,a,b): factorization mismatch"),
        ("relation-lift-x1", True, {"instances": 10}, None),
    ]),
    "T(b)": (("t_full_packed", "b"), [
        ("relation-lift-x2", False, {"instances": 4}, "(a,b,c)=(b,b,c): factorization mismatch"),
        ("relation-lift-x1", False, {"instances": 4}, "(a,b,c)=(a,b,b): factorization mismatch"),
    ]),
}


@pytest.mark.parametrize("block", list(PATCHED_BLOCKS))
def test_a_block_patched_after_the_generators_fails_the_lifts_through_it(block):
    key, want = PATCHED_BLOCKS[block]
    v = Verifier(chain_tree(3))
    ctx = v.ctx
    ctx.generators_packed()
    ctx._memo[key] = _iadd(dict(ctx._memo[key]), ctx.x_packed(2, "a"))
    assert [(r.name, r.passed, r.params, r.witness) for r in v.check_relation_lifts()] == want


def test_an_override_past_the_key_bound_raises_at_its_lift():
    # g(a,b) + b2^32767 weighs 32,767, the 16-bit key bound; times c2 it
    # would pass the bound, so the first lift that multiplies it raises
    # MonomialOrder.key's error, before any residue is compared
    tree = star_tree(2)
    heavy = Polynomial({Monomial.from_pairs([(XVar(2, "b"), 32767)]): 1})
    gens = [(pair, g + heavy if pair == ("a", "b") else g) for pair, g in j_ideal_generators(tree)]
    with pytest.raises(ResourceLimitError, match="monomial weight 32768 exceeds 32767, the packed-key bound"):
        Verifier(tree, generators=gens).check_relation_lifts()
