"""Heap admission in the division kernel, the certificate's tail test and
the Hilbert layer's divisibility test.

With a divisor memo, `groebner._reduce` looks each term's divisor up as the
term enters its working dict and pushes only the terms some lead divides;
the others wait in the dict, where later products may still cancel them,
and what is left there is the remainder.  Every remainder here is compared
with the scan's (the same call without a memo), item by item and in order.
"""

import heapq
import random

import pytest

from lpdeform import (
    Monomial,
    MonomialOrder,
    Verifier,
    XVar,
    all_rooted_trees,
    buchberger,
    parse_polynomial,
    parse_poset,
)
from lpdeform import grading
from lpdeform import groebner
from lpdeform import verifier as verifier_module
from lpdeform.groebner import _divisible, _divisor_memo, _entry, _reduce, _tail_reducible

from conftest import sign_flip_mutants

WIDE_TREE = "a < b\na < c\na < d\na < e\na < f\nb < g\n"
X, Y, Z = XVar(1, "x"), XVar(1, "y"), XVar(1, "z")


def divides(order, lead, n):
    """Whether the monomial of minus key `lead` divides that of minus key
    n, read off the exponents."""
    return all(a >= b for a, b in zip(order.exponents(n), order.exponents(lead)))


def spy_memo_reductions(monkeypatch):
    """Patch groebner._reduce and verifier._reduce so that each reduction
    with a memo is checked against the scan; returns the (remainder,
    scan) pairs."""
    real, seen = groebner._reduce, []

    def spy(work, leads, mask, guard, memo=None):
        if memo is None:
            return real(work, leads, mask, guard)
        want = real(dict(work), leads, mask, guard)
        got = real(work, leads, mask, guard, memo)
        seen.append((list(got.items()), list(want.items())))
        return got

    monkeypatch.setattr(groebner, "_reduce", spy)
    monkeypatch.setattr(verifier_module, "_reduce", spy)
    return seen


def test_memo_remainders_are_the_scans_in_order(monkeypatch):
    seen = spy_memo_reductions(monkeypatch)
    for n in range(1, 7):
        for tree in all_rooted_trees(n):
            assert all(r.passed for r in Verifier(tree).run_full(max_degree=2))
    mutants = list(sign_flip_mutants(4))
    caught = sum(
        not all(r.passed for r in Verifier(tree, generators=gens).run_full(max_degree=2))
        for _, tree, gens in mutants
    )
    assert len(mutants) == 49 and caught == 48
    assert all(got == want for got, want in seen)
    # not vacuous: thousands of reductions, hundreds of nonzero remainders
    assert len(seen) > 4000 and sum(bool(want) for _, want in seen) > 150


def recorded_instances(verifier):
    """The generators' packed entries of `verifier` and the packed
    instances its flatness and lemma checks test for membership."""
    instances = []
    verifier._member = lambda label, f: instances.append(f)
    verifier.check_flat_basic()
    verifier.check_lemma_identities()
    verifier.check_flat_p2()
    order = verifier.order
    return [_entry(g, order) for _, g in verifier._packed_generators() if g], instances


def test_no_irreducible_term_enters_the_heap(monkeypatch):
    cases = [recorded_instances(Verifier(parse_poset(WIDE_TREE)))]
    # sign-flip mutants: their instances leave nonzero remainders
    cases += [recorded_instances(Verifier(tree, generators=gens))
              for _, tree, gens in list(sign_flip_mutants(3))[:6]]
    orders = [Verifier(parse_poset(WIDE_TREE)).order] + [
        Verifier(tree, generators=gens).order for _, tree, gens in list(sign_flip_mutants(3))[:6]
    ]
    entered = []
    real_push, real_heapify = heapq.heappush, heapq.heapify
    monkeypatch.setattr(heapq, "heappush", lambda h, n: entered.append(n) or real_push(h, n))
    monkeypatch.setattr(heapq, "heapify", lambda h: entered.extend(h) or real_heapify(h))
    reduced = nonzero = pushed = 0
    for (leads, instances), order in zip(cases, orders):
        memo = _divisor_memo(leads, order)
        for f in instances:
            want = _reduce(dict(f), leads, order.mask, order.guard)
            entered.clear()
            rem = _reduce(dict(f), leads, order.mask, order.guard, memo)
            assert rem == want
            assert all(any(divides(order, e[1], n) for e in leads) for n in entered)
            reduced, nonzero, pushed = reduced + 1, nonzero + bool(rem), pushed + len(entered)
    assert reduced > 250 and nonzero > 5 and pushed > 1000


def test_the_remainder_comes_in_ascending_minus_key():
    order = MonomialOrder([X, Y, Z], {X: 1, Y: 1, Z: 1}, digit_bits=8)
    leads = [_entry({-order.key(Monomial.from_pairs([(X, 1), (Y, 1)])): 1,
                     -order.key(Monomial.var(Z)): -1}, order)]
    f = {-order.key(m): c for m, c in (
        (Monomial.var(Z), 5),
        (Monomial.from_pairs([(X, 2), (Y, 1)]), 1),
        (Monomial.from_pairs([(Y, 3)]), 2),
        (Monomial.var(X), 3),
    )}
    rem = _reduce(dict(f), leads, order.mask, order.guard, _divisor_memo(leads, order))
    assert list(rem) == sorted(rem) and len(rem) == 4
    assert list(rem.items()) == list(_reduce(dict(f), leads, order.mask, order.guard).items())


def test_the_certificate_tail_test_finds_a_reducible_tail_term():
    v = Verifier(parse_poset("a < b\na < c\na < d\n"))
    assert all(r.passed for r in v.run_full(max_degree=2))
    entries, memo, guard = v._entries, v._divisors, v.order.guard
    assert not any(_tail_reducible(tail, entries, guard, memo) for _, _, tail in entries)
    # a tail term another lead divides: the lead of entry 1 times a u-digit
    _, n1, _ = entries[1]
    u = min(n for _, _, tail in entries for n, _ in tail if n & v.ctx.umask)
    term = n1 + (u & v.ctx.umask)
    assert _tail_reducible(((term, 1),), entries, guard, memo)
    assert _divisible((term & v.order.mask,), entries[1:2], guard)
    # in the certificate, with a fresh memo
    v = Verifier(parse_poset("a < b\na < c\na < d\n"))
    assert all(r.passed for r in v.run_full(max_degree=2)) and v._certified() is not None
    lp, ln, tail = v._entries[0]
    v._entries[0] = (lp, ln, tail + ((term, 1),))
    v._divisors = _divisor_memo(v._entries, v.order)
    assert v._certified() is None


def test_a_repeated_generator_is_not_certified():
    # both copies pass condition 1; the certificate's lead test sees that
    # one quadric divides the other, and buchberger drops the copy
    tree = parse_poset("a < b\na < c\n")
    gens = [*Verifier(tree).generators]
    v = Verifier(tree, generators=[*gens, gens[1]])
    reports = [v.check_flat_basic(), v.check_flat_p2(), *v.check_relation_lifts()]
    assert all(r.passed for r in reports)
    assert v._certified() is None
    assert v.basis._leads == buchberger([g for _, g in gens], v.order)._leads
    assert len(v.basis) == len(gens)


def random_entries(rng, order, count):
    variables = order.variables
    entries = []
    for _ in range(count):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            mono = Monomial.from_pairs(
                (v, rng.randint(1, 3)) for v in rng.sample(variables, rng.randint(1, 2))
            )
            terms[-order.key(mono)] = rng.choice([-2, -1, 1, 3])
        entries.append(_entry(terms, order))
    return entries


@pytest.mark.parametrize("bits", [8, 16])
def test_tail_test_of_all_leads_is_the_kept_leads_test(bits):
    # buchberger asks whether some lead of its whole list divides a tail
    # term; the tail reduction divides by the other kept leads.  The answers
    # agree: a dropped lead is a multiple of a kept one, and a lead divides
    # no monomial below it
    order = MonomialOrder([X, Y, Z], {X: 1, Y: 2, Z: 1}, digit_bits=bits)
    rng, guard, mask = random.Random(bits), order.guard, order.mask
    reducible = dropped = 0
    for _ in range(300):
        leads = random_entries(rng, order, rng.randint(2, 6))
        kept = []
        for entry in sorted(leads, key=lambda e: -e[1]):
            if not _divisible((entry[0],), kept, guard):
                kept.append(entry)
        memo = _divisor_memo(leads, order)
        for entry in kept:
            others = [e for e in kept if e is not entry]
            want = _divisible((n & mask for n, _ in entry[2]), others, guard)
            assert _tail_reducible(entry[2], leads, guard, memo) == want
            reducible += want
        dropped += len(kept) < len(leads)
    assert reducible > 50 and dropped > 50


def test_buchberger_tail_reduces_past_a_dropped_lead(monkeypatch):
    # x^2 comes first, so the memo's divisor of y^4 - x^2's tail term is the
    # entry that minimalization drops; x, which is kept, divides it too
    order = MonomialOrder([X, Y], {X: 1, Y: 1}, digit_bits=8)
    gens = [parse_polynomial(t, [X, Y]) for t in ("x1^2", "x1", "y1^4 - x1^2")]
    memos = []
    real = groebner._tail_reducible
    monkeypatch.setattr(
        groebner, "_tail_reducible", lambda *a: memos.append(a[3]) or real(*a)
    )
    basis = buchberger(gens, order)
    assert list(basis) == [parse_polynomial(t, [X, Y]) for t in ("x1", "y1^4")]
    # nothing was appended, so the generators' memo answered, and named the
    # dropped x^2 for the tail term
    digits, found = memos[0]
    x2 = -order.key(Monomial.from_pairs([(X, 2)]))
    assert found[x2 & digits][1] == x2
    assert all(m is memos[0] for m in memos) and len(memos) == 2


def old_divides(a, b):
    return all(b.get(i, 0) >= e for i, e in a.items())


def test_hilbert_divisibility_is_the_old_test():
    rng = random.Random(5)

    def lead():
        k = rng.randint(0, 4)
        return {i: rng.randint(1, 3) for i in rng.sample(range(6), k)}

    pairs = [(lead(), lead()) for _ in range(3000)] + [({}, {}), ({}, {0: 1}), ({0: 1}, {})]
    assert all(grading._divides(a, b) == old_divides(a, b) for a, b in pairs)
    assert sum(grading._divides(a, b) for a, b in pairs) > 300
