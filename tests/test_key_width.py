"""The width of the packed exponent digits.

A DeformationContext keys its monomials with 8-bit digits when its stated
weight bound fits an 8-bit key, and with 16-bit digits otherwise.  These
tests hold the bound to every key the suite forms, and the narrow context
to the 16-bit one, output for output.  The packed degree checks write a
term's multidegree in the order's own digits, so they are held to the
Monomial path at both widths, digit extremes included.
"""

import contextlib
import io
import re
from itertools import combinations

import pytest

from lpdeform import (
    DeformationContext,
    Monomial,
    MultiDegree,
    NotHomogeneousError,
    Polynomial,
    UVar,
    Verifier,
    XVar,
    all_rooted_trees,
    buchberger,
    homogeneous_degree,
    monomial_degree,
    monomial_order_for,
)
from lpdeform import cli, deformation
from lpdeform import verifier as verifier_module
from lpdeform.grading import _degree_table

from conftest import chain_tree, poset_text, sign_flip_mutants, star_tree, tree_from


def heaviest(f, order):
    """The weight of the packed polynomial's lead, its heaviest term (0 if
    it has none): the smallest minus key, shifted past the digits."""
    return -(min(f) >> order.mask.bit_length()) if f else 0


def test_the_context_states_its_bound_from_the_positivity_weights():
    # twice the heaviest quadric root1*root2, 2(n + 1) on n nodes; 8-bit
    # digits hold weight 127, so up to 62 nodes
    for m, bits in [(0, 8), (61, 8), (62, 16)]:
        ctx = DeformationContext(tree_from("".join(f"r < l{k}\n" for k in range(m)) or "elem r"))
        assert ctx.weight_bound == 2 * (m + 2)
        assert ctx.order.digit_bits == bits
    assert DeformationContext(star_tree(3), wide=True).order.digit_bits == 16


def test_the_weight_bound_holds_every_key_the_suite_forms(monkeypatch):
    # the blocks of the memo, every product the checks form (the products
    # each instance sums, whose leads multiply to its heaviest key, and the
    # relation lifts' residues g + T S and g + T R S with T R), the
    # instances, the lifts' residues shifted by their monomials, and the
    # lcms of the generators' leads.  The instances are recorded, not
    # reduced: a division by the homogeneous generators forms no key
    # heavier than its instance
    trees, weights, order = 0, [], None
    addmul, mul = verifier_module._addmul, verifier_module._mul

    def recording_addmul(acc, f, g, sign=1):
        if f and g:
            weights.append(heaviest(f, order) + heaviest(g, order))
        return addmul(acc, f, g, sign)

    def recording_mul(f, g, order_):
        if f and g:
            weights.append(heaviest(f, order) + heaviest(g, order))
        return mul(f, g, order_)

    monkeypatch.setattr(verifier_module, "_addmul", recording_addmul)
    monkeypatch.setattr(verifier_module, "_mul", recording_mul)
    for tree in all_rooted_trees(8):
        trees += 1
        v = Verifier(tree)
        ctx, order = v.ctx, v.order
        assert order.digit_bits == 8
        weights.clear()
        lift_fault = v._lift_fault

        def recording_lift_fault(label, m, left, left0, n, right, right0):
            weights.extend(heaviest(f, order) for f in (left, left0, right, right0))
            weights.extend(heaviest(m, order) + heaviest(f, order) for f in (left, left0))
            weights.extend(heaviest(n, order) + heaviest(f, order) for f in (right, right0))
            return lift_fault(label, m, left, left0, n, right, right0)

        v._lift_fault = recording_lift_fault
        v._member = lambda label, f: weights.append(heaviest(f, order))
        # the generators hold every block the basic suite reads
        ctx.generators_packed()
        reports = [v.check_flat_basic(), *v.check_lemma_identities(), v.check_flat_p2(),
                   *v.check_relation_lifts()]
        assert all(r.passed for r in reports[-2:]), tree
        weights += [heaviest(val, order) for key, val in ctx._memo.items() if key[0] != "_matrix_rows"]
        leads = [order.monomial(-min(g)) for _, g in ctx.generators_packed()]
        weights += [order.weight(a.lcm(b)) for a, b in combinations(leads, 2)]
        # the verifier's cheap bound: the two heaviest leads together
        weights.append(sum(sorted(order.weight(m) for m in leads)[-2:]))
        assert max(weights) <= ctx.weight_bound, tree
    assert trees == 200


def run_lp(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, re.sub(r'"elapsed": [0-9.e-]+', '"elapsed": 0', out.getvalue()), err.getvalue()


def outputs(trees, tmp_path):
    """Per tree: the digit width, the run_full(max_degree=3) reports without
    their times, and the `lp gens`, `lp check` and `lp info` --json runs."""
    out = []
    for k, tree in enumerate(trees):
        path = tmp_path / f"t{k}.poset"
        path.write_text(poset_text(tree))
        v = Verifier(tree)
        reports = [(r.name, r.passed, r.params, r.witness) for r in v.run_full(max_degree=3)]
        runs = [
            run_lp([*command, str(path), *flags, "--json"])
            for command, flags in [
                (["gens"], ["--ideal", "J"]),
                (["check"], []),
                (["check"], ["--suite", "full", "--max-degree", "3"]),
                (["info"], []),
            ]
        ]
        out.append((v.order.digit_bits, reports, runs))
    return out


def test_the_narrow_context_gives_the_16_bit_outputs(monkeypatch, tmp_path):
    trees = list(all_rooted_trees(5))
    narrow = outputs(trees, tmp_path)
    monkeypatch.setattr(deformation, "NARROW_BITS", 16)
    wide = outputs(trees, tmp_path)
    assert [bits for bits, _, _ in narrow] == [8] * 17
    assert [bits for bits, _, _ in wide] == [16] * 17
    assert [rest for _, *rest in narrow] == [rest for _, *rest in wide]


def test_buchberger_on_a_narrow_context_order_is_the_16_bit_one():
    # the sign-flip mutants grow their bases, within the narrow bound
    for _, tree, gens in sign_flip_mutants(4):
        order = DeformationContext(tree).order
        polys = [g for _, g in gens]
        basis = buchberger(polys, order)
        assert order.digit_bits == 8 and basis.order is order
        assert basis.polys == buchberger(polys, monomial_order_for(tree)).polys



def degree_checked_blocks(verifier):
    """The packed polynomials the basic suite's degree checks read: the
    generators (homogeneity) and the T, S, ST and D blocks (the laws)."""
    blocks = []
    degree = verifier._degree

    def recording_degree(label, f, want, of=" = "):
        blocks.append(f)
        return degree(label, f, want, of)

    verifier._degree = recording_degree
    verifier.check_homogeneity()
    verifier.check_degree_formulas()
    return blocks


@pytest.mark.parametrize("wide", [False, True])
def test_packed_degrees_decode_to_the_monomial_path(wide):
    # every term of every degree-checked block, on every rooted tree of up
    # to 7 nodes, in the 8-bit context's order and in the 16-bit one
    trees = terms = 0
    for tree in all_rooted_trees(7):
        trees += 1
        v = Verifier(tree)
        v.ctx = DeformationContext(tree, wide=wide)
        order = v.order = v.ctx.order
        assert order.digit_bits == (16 if wide else 8)
        table = _degree_table(tree, order)
        seen = {n for f in degree_checked_blocks(v) for n in f}
        for n in seen:
            assert table.decode(table.degree(n)) == monomial_degree(tree, order.monomial(-n)), tree
        terms += len(seen)
    assert trees == 85 and terms > 10_000


@pytest.mark.parametrize("wide, top", [(False, 127), (True, 32_767)])
def test_packed_degree_digits_reach_the_key_bound(wide, top):
    # chain a < b < c: deg b2 = b2, deg u[a,b] = b1 + b2 - c1 - a2, both of
    # weight 1, so their top powers fill a degree digit either way
    tree = chain_tree(3)
    order = DeformationContext(tree, wide=wide).order
    assert order.max_weight == top
    b2 = Monomial.var(XVar(2, "b"), top)
    uab = Monomial.var(UVar("a", "b"), top)
    unit = MultiDegree.unit
    want = {
        b2: top * unit(2, "b"),
        uab: top * (unit(1, "b") + unit(2, "b") - unit(1, "c") - unit(2, "a")),
    }
    for m, deg in want.items():
        assert monomial_degree(tree, m) == deg
        assert homogeneous_degree(tree, {-order.key(m): 1}, order) == deg
    pair = Polynomial({b2: 1, uab: -1})
    with pytest.raises(NotHomogeneousError) as unpacked:
        homogeneous_degree(tree, pair)
    with pytest.raises(NotHomogeneousError) as packed:
        homogeneous_degree(tree, {-order.key(b2): 1, -order.key(uab): -1}, order)
    assert str(packed.value) == str(unpacked.value)
    assert packed.value.witness == unpacked.value.witness
