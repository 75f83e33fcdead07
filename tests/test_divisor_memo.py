"""The division kernel's divisor memo and the lcm keys of buchberger's pairs.

`groebner._reduce` looks each popped term's divisor up in a memo kept with
a fixed lead list, keyed by the term's digits at the leads' variables.
Every remainder here is compared with a reference scan written below: the
first dividing lead in basis order, found by testing every lead.
"""

import random
from fractions import Fraction

import pytest

from lpdeform import (
    GroebnerBasis,
    Monomial,
    MonomialOrder,
    ResourceLimitError,
    UVar,
    XVar,
    buchberger,
    monomial_order_for,
    parse_polynomial,
)
from lpdeform import groebner
from lpdeform.groebner import _divisor_memo, _entry, _reduce, _spairs
from lpdeform.polynomials import _as_coeff, _pack_terms

from conftest import sign_flip_mutants

X, Y, Z = XVar(1, "x"), XVar(1, "y"), XVar(1, "z")
U, W = UVar("y", "x"), UVar("z", "x")
VARIABLES = [X, Y, Z, U, W]
WEIGHTS = {X: 1, Y: 2, Z: 1, U: 1, W: 3}


def scan_reduce(work, leads, order):
    """The remainder of the packed `work` (not consumed) by the entries
    `leads`: the largest term first, divided by the first entry in basis
    order whose lead divides it, found by testing every lead's exponents."""
    work, remainder = dict(work), {}
    while work:
        n = min(work)
        c = work.pop(n)
        digits = order.exponents(n)
        lead = next(
            (e for e in leads if all(a >= b for a, b in zip(digits, order.exponents(e[1])))),
            None,
        )
        if lead is None:
            remainder[n] = c
            continue
        q = n - lead[1]
        for gn, gc in lead[2]:
            s = work.get(gn + q, 0) - c * gc
            if s:
                work[gn + q] = s
            else:
                work.pop(gn + q, None)
    return remainder


def random_packed(rng, order, n_terms, max_exp):
    terms = {}
    for _ in range(n_terms):
        chosen = rng.sample(VARIABLES, rng.randint(1, 3))
        mono = Monomial.from_pairs((v, rng.randint(1, max_exp)) for v in chosen)
        terms[-order.key(mono)] = Fraction(rng.choice([-3, -2, -1, 1, 2, 5]), rng.choice([1, 1, 2]))
    return terms


@pytest.mark.parametrize("bits", [8, 16])
def test_one_memo_serves_many_normal_forms(bits):
    order = MonomialOrder(VARIABLES, WEIGHTS, digit_bits=bits)
    rng = random.Random(bits)
    leads = [_entry(random_packed(rng, order, 3, 2), order) for _ in range(6)]
    lead_monomials = [order.monomial(-n) for _, n, _ in leads]
    # not vacuous: a lead with a square and a lead with a u-digit
    assert any(e > 1 for m in lead_monomials for _, e in m.pairs)
    assert any(isinstance(v, UVar) for m in lead_monomials for v in m.variables())
    memo = _divisor_memo(leads, order)
    reduced = 0
    for _ in range(40):
        f = random_packed(rng, order, 6, 4)
        want = scan_reduce(f, leads, order)
        assert _reduce(dict(f), leads, order.mask, order.guard, memo) == want
        assert _reduce(dict(f), leads, order.mask, order.guard) == want
        reduced += want != f
    assert reduced > 20
    # the memo keys the digits at the leads' variables only, and holds the
    # divisor the scan found or None
    digits, found = memo
    assert found and all(p & ~digits == 0 for p in found)
    assert None in found.values() and any(e is not None for e in found.values())


def test_a_basis_keeps_one_memo_for_its_normal_forms():
    order = MonomialOrder(VARIABLES, WEIGHTS, digit_bits=8)
    polys = [parse_polynomial(t, VARIABLES) for t in ("x1^2*y1 - z1", "y1*z1 - u[y,x]")]
    basis = buchberger(polys, order)
    memo = basis._memo
    rng = random.Random(3)
    for _ in range(20):
        f = random_packed(rng, order, 5, 3)
        want = scan_reduce(f, basis._leads, order)
        assert basis.normal_form(groebner._unpack(f, order)) == groebner._unpack(want, order)
    assert basis._memo is memo and memo[1]
    # a basis of given polynomials has one too
    basis = GroebnerBasis(polys, order)
    assert basis.normal_form(polys[0] * polys[1]).is_zero and basis._memo[1]


def test_the_first_dividing_lead_in_basis_order_is_taken():
    order = MonomialOrder([X, Y, Z], {X: 1, Y: 1, Z: 1}, digit_bits=8)
    g1, g2 = (_pack_terms(parse_polynomial(t, [X, Y, Z]), order) for t in ("x1*y1 - z1", "x1 - y1"))
    f = _pack_terms(parse_polynomial("x1^2*y1", [X, Y, Z]), order)
    # both leads divide x^2*y; by x*y first it is x*z, then y*z by x; by x
    # first it is x*y^2, then y^3
    for gens, want in (((g1, g2), "y1*z1"), ((g2, g1), "y1^3")):
        leads = [_entry(g, order) for g in gens]
        memo = _divisor_memo(leads, order)
        for _ in range(2):  # the second reduction reads the memo
            rem = _reduce(dict(f), leads, order.mask, order.guard, memo)
            assert rem == scan_reduce(f, leads, order)
            assert rem == _pack_terms(parse_polynomial(want, [X, Y, Z]), order)


def spy_reduce(monkeypatch, mode):
    """Patch groebner._reduce: 'scan' drops every memo; 'stale' keeps the
    generators' memo for the loop's list after it grows.  Returns the
    memos passed, in call order."""
    real, memos, first = groebner._reduce, [], {}

    def spy(work, leads, mask, guard, memo=None):
        memos.append(memo)
        first.setdefault("leads", (leads, memo))
        if mode == "scan":
            memo = None
        elif mode == "stale" and memo is None and leads is first["leads"][0]:
            memo = first["leads"][1]
        return real(work, leads, mask, guard, memo)

    monkeypatch.setattr(groebner, "_reduce", spy)
    return memos


def test_buchberger_drops_the_memo_when_the_basis_grows(monkeypatch):
    # the pair's S-polynomial is x - y: neither x^2*y nor x*y^2 divides x,
    # so the memo holds "no divisor" for x's digits; the appended lead x
    # divides it
    variables = [X, Y]
    order = MonomialOrder(variables, {X: 1, Y: 1}, digit_bits=8)
    gens = [parse_polynomial(t, variables) for t in ("x1^2*y1 - 1", "x1*y1^2 - 1")]
    want = [parse_polynomial(t, variables) for t in ("x1 - y1", "y1^3 - 1")]
    with monkeypatch.context() as patch:
        memos = spy_reduce(patch, None)
        assert list(buchberger(gens, order)) == want
    x = -order.key(Monomial.var(X))
    digits, found = memos[0]
    assert found[x & digits] is None
    # the loop went on with the scan, not with that entry
    assert memos.count(memos[0]) == 1 and None in memos[1:]
    with monkeypatch.context() as patch:
        spy_reduce(patch, "scan")
        assert list(buchberger(gens, order)) == want
    # a memo kept past the append would leave x in every remainder
    with monkeypatch.context() as patch:
        spy_reduce(patch, "stale")
        with pytest.raises(ResourceLimitError):
            buchberger(gens, order, max_pairs=200)


def test_sign_flip_mutants_get_the_scans_bases(monkeypatch):
    cases = [([g for _, g in gens], monomial_order_for(tree)) for _, tree, gens in sign_flip_mutants(4)]
    with monkeypatch.context() as patch:
        spy_reduce(patch, "scan")
        want = [buchberger(gens, order)._leads for gens, order in cases]
    bases = [buchberger(gens, order)._leads for gens, order in cases]
    assert len(cases) == 49 and bases == want


@pytest.mark.parametrize("bits", [8, 16])
def test_pair_keys_are_the_order_keys_of_the_lcms(bits):
    order = MonomialOrder(VARIABLES, WEIGHTS, digit_bits=bits)
    rng = random.Random(bits + 1)
    top = 9 if bits == 8 else 2000
    formed = 0
    for _ in range(30):
        monomials = [
            Monomial.from_pairs((v, rng.randint(1, top)) for v in rng.sample(VARIABLES, rng.randint(1, 4)))
            for _ in range(5)
        ]
        monomials = [m for m in monomials if order.weight(m) <= order.max_weight // 2]
        leads = [_entry({-order.key(m): 1}, order) for m in monomials]
        pairs = _spairs(leads, [], order)
        want = [
            (order.key(monomials[k].lcm(monomials[t])), t, k)
            for k in range(len(monomials))
            for t in range(k)
            if monomials[k].lcm(monomials[t]) != monomials[k].mul(monomials[t])
        ]
        assert pairs == want
        formed += len(pairs)
    assert formed > 50


def per_entry_tail_reduction(leads, reducible, order):
    """The reduced basis as buchberger made it from its final entries
    `leads`: the minimal ones, largest lead first, each whose tail is
    `reducible` reduced, lead included, by a list of the other minimal
    entries, on the scan."""
    kept = []
    for entry in sorted(leads, key=lambda e: -e[1]):
        digits = order.exponents(entry[1])
        if not any(all(a >= b for a, b in zip(digits, order.exponents(k[1]))) for k in kept):
            kept.append(entry)
    assert len(kept) == len(reducible)
    entries = []
    for entry, tail_reducible in zip(kept, reducible):
        if tail_reducible:
            _, n, tail = entry
            rem = scan_reduce({n: 1, **dict(tail)}, [e for e in kept if e is not entry], order)
            entry = _entry({nm: _as_coeff(c) for nm, c in rem.items()}, order)
        entries.append(entry)
    return entries


@pytest.mark.parametrize("bits", [8, 16])
def test_final_tail_reduction_gives_the_per_entry_reduction(bits, monkeypatch):
    # buchberger asks _tail_reducible once per minimal entry, in basis
    # order, and reduces the tails it answers True for through the memo
    order = MonomialOrder(VARIABLES, WEIGHTS, digit_bits=bits)
    rng = random.Random(bits)
    real, asked = groebner._tail_reducible, []

    def spy(tail, leads, guard, memo):
        answer = real(tail, leads, guard, memo)
        asked.append((leads, answer))
        return answer

    monkeypatch.setattr(groebner, "_tail_reducible", spy)
    ran = 0
    for _ in range(30):
        asked.clear()
        basis = buchberger([random_packed(rng, order, 2, 2) for _ in range(4)], order)
        [leads] = {id(leads): leads for leads, _ in asked}.values()
        reducible = [answer for _, answer in asked]
        assert basis._leads == per_entry_tail_reduction(leads, reducible, order)
        ran += sum(reducible)
    assert ran > 10
