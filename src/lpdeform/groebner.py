"""Buchberger's algorithm, reduced bases, and normal forms.

Buchberger's algorithm is the textbook one: normal selection strategy
(smallest S-pair lcm first), the coprime-leading-term criterion, full tail
reduction at the end.  Two budgets turn runaway computations into
ResourceLimitError instead of hangs, both checked once per processed
S-pair:

  * a cap on the number of processed S-pairs;
  * a cap on the weighted degree of the pair's lcm.  In a weighted-degree
    order a lead has the largest weight of its polynomial and a division
    step never raises weight, so no monomial created while reducing the
    pair outweighs its lcm.

The verifier reduces many structured polynomials modulo one fixed basis, so
the division kernel `_divide` is where the time goes.  It reduces exactly
like the textbook division (largest term first, first dividing lead in
basis order, so the remainder and every intermediate coefficient are the
same), but on packed exponents (Monagan & Pearce, "Sparse polynomial
division using a heap", J. Symb. Comp. 2011):

  * a monomial is one int, minus its order key N = -MonomialOrder.key(m),
    which is linear: a product is N(g) + N(q), a quotient N(m) - N(lead);
    N is at once the working dict's key and the heap key (the smallest N
    is the largest monomial);
  * "lead divides m" is one guarded subtraction on the exponent digits
    P = N & order.mask: ((P_m | G) - P_lead) & G == G, G = order.guard;
  * input terms are packed on each call, through MonomialOrder.key, which
    raises ResourceLimitError past the encoding's bound (weight 2**15 - 1;
    a division step never raises weight, so checking the input is enough);
    only the remainder is unpacked, its coefficients made canonical;
  * each lead's packed entry is prepared once by `_lead`, per
    GroebnerBasis and per lead Buchberger adds.
"""

from __future__ import annotations

import heapq
from fractions import Fraction

from .errors import DomainError, ResourceLimitError
from .polynomials import Polynomial, _as_coeff

DEFAULT_MAX_PAIRS = 1_000_000
DEFAULT_MAX_WEIGHT = 10_000


def _monic(f, order):
    _, c = order.leading_term(f)
    return f * (Fraction(1) / c) if c != 1 else f


def _lead(g, order):
    """The packed entry (P, N, tail) of monic g that _divide takes: N is
    minus the key of g's leading monomial, P = N & order.mask its
    exponents, and tail the (minus key, coefficient) pairs of its other
    terms."""
    keys = {order.key(m): c for m, c in g.terms.items()}
    k = max(keys)
    del keys[k]
    return -k & order.mask, -k, tuple((-km, c) for km, c in keys.items())


def _divide(f, leads, order):
    """Complete division remainder of f by the _lead entries `leads` (see
    the module docstring)."""
    key = order.key
    mask, guard = order.mask, order.guard
    # minus keys: the smallest is the largest monomial, and a product's is
    # the sum of its factors'
    work = {-key(m): c for m, c in f.terms.items()}
    heap = list(work)
    heapq.heapify(heap)
    pop, push = heapq.heappop, heapq.heappush
    remainder = {}
    while heap:
        n = pop(heap)
        c = work.pop(n, None)
        if c is None:
            continue  # cancelled after it was pushed
        p = (n & mask) | guard
        for pl, nl, tail in leads:
            if (p - pl) & guard == guard:
                break
        else:
            remainder[n] = c
            continue
        # the lead is monic, so the head term cancels exactly
        q = n - nl
        for gn, gc in tail:
            t = gn + q
            s = work.get(t)
            if s is None:
                work[t] = -c * gc
                push(heap, t)
            else:
                s -= c * gc
                if s:
                    work[t] = s
                else:
                    del work[t]
    monomial = order.monomial
    return Polynomial({monomial(-n): _as_coeff(c) for n, c in remainder.items()})


def s_polynomial(f, g, order):
    mf, cf = order.leading_term(f)
    mg, cg = order.leading_term(g)
    l = mf.lcm(mg)
    tf = Polynomial.term(l.div(mf), Fraction(1) / cf)
    tg = Polynomial.term(l.div(mg), Fraction(1) / cg)
    return f * tf - g * tg


class GroebnerBasis:
    """A reduced Groebner basis: monic generators, no monomial of any
    generator divisible by another generator's leading monomial, sorted by
    leading monomial.  This form is unique for (ideal, order), so equal
    ideals produce structurally equal bases."""

    def __init__(self, polys, order):
        self.order = order
        self.polys = tuple(_monic(g, order) for g in polys)
        self._leads = [_lead(g, order) for g in self.polys]

    def __iter__(self):
        return iter(self.polys)

    def __len__(self):
        return len(self.polys)

    def __eq__(self, other):
        return (
            isinstance(other, GroebnerBasis)
            and self.polys == other.polys
            and self.order.variables == other.order.variables
        )

    def leading_monomials(self):
        return tuple(self.order.monomial(-n) for _, n, _ in self._leads)

    def normal_form(self, f):
        """The unique remainder of f modulo this basis (zero iff f lies in
        the ideal)."""
        return _divide(f, self._leads, self.order)

    def contains(self, f):
        return self.normal_form(f).is_zero

    def __repr__(self):
        return f"GroebnerBasis({len(self.polys)} polys)"


def normal_form(f, basis):
    return basis.normal_form(f)


def buchberger(gens, order, max_pairs=DEFAULT_MAX_PAIRS, max_weight=DEFAULT_MAX_WEIGHT):
    """Reduced Groebner basis of the ideal generated by `gens`.

    Raises ResourceLimitError when more than max_pairs S-pairs are
    processed or a processed S-pair's lcm has weighted degree above
    max_weight (which bounds every monomial its reduction creates).
    Deterministic: the unique reduced basis, sorted by leading monomial.
    """
    G = []
    for f in gens:
        if f.is_zero:
            continue
        G.append(_monic(f, order))
    if not G:
        raise DomainError("no nonzero generators")

    leads = [_lead(g, order) for g in G]
    lm = [order.monomial(-n) for _, n, _ in leads]
    heap = []
    for i in range(len(G)):
        for j in range(i):
            heapq.heappush(heap, (order.key(lm[i].lcm(lm[j])), j, i))

    processed = 0
    while heap:
        _, i, j = heapq.heappop(heap)
        l = lm[i].lcm(lm[j])
        if l == lm[i].mul(lm[j]):
            continue  # coprime leading terms: S-pair reduces to zero
        processed += 1
        if processed > max_pairs:
            raise ResourceLimitError(f"S-pair budget of {max_pairs} exceeded")
        if order.weight(l) > max_weight:
            raise ResourceLimitError(f"S-pair lcm weight exceeded {max_weight}")
        s = s_polynomial(G[i], G[j], order)
        r = _divide(s, leads, order)
        if r.is_zero:
            continue
        r = _monic(r, order)
        k = len(G)
        G.append(r)
        leads.append(_lead(r, order))
        lm.append(order.monomial(-leads[k][1]))
        for t in range(k):
            heapq.heappush(heap, (order.key(lm[k].lcm(lm[t])), t, k))

    # minimalize: drop any generator whose lead is divisible by another's
    by_key = sorted(range(len(G)), key=lambda i: order.key(lm[i]))
    kept = []
    for i in by_key:
        if not any(lm[j].divides(lm[i]) for j in kept):
            kept.append(i)
    # tail-reduce each survivor against the others
    reduced = []
    for i in kept:
        others = [leads[j] for j in kept if j != i]
        reduced.append(_divide(G[i], others, order) if others else G[i])
    reduced.sort(key=lambda g: order.key(order.leading_monomial(g)))
    return GroebnerBasis(reduced, order)
