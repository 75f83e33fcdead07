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
same) but:

  * the next term comes from a heap keyed on the single-int order key
    (MonomialOrder.key), pushed once when a monomial enters the working
    set; entries cancelled since are skipped;
  * each lead's term list is prepared once by `_lead`, per GroebnerBasis
    and per lead Buchberger adds.
"""

from __future__ import annotations

import heapq
from fractions import Fraction

from .errors import DomainError, ResourceLimitError
from .polynomials import Polynomial

DEFAULT_MAX_PAIRS = 1_000_000
DEFAULT_MAX_WEIGHT = 10_000


def _monic(f, order):
    _, c = order.leading_term(f)
    return f * (Fraction(1) / c) if c != 1 else f


def _lead(g, order):
    """The (leading monomial, terms) entry of monic g that _divide takes."""
    return order.leading_monomial(g), tuple(g.terms.items())


def _divide(f, leads, order):
    """Complete division remainder of f by the _lead entries `leads` (see
    the module docstring)."""
    key = order.key
    work = dict(f.terms)
    # keys are unique per monomial, so heap entries only ever tie on
    # duplicates of one monomial (cancelled, then created again)
    heap = [(-key(m), m) for m in work]
    heapq.heapify(heap)
    pop, push = heapq.heappop, heapq.heappush
    remainder = {}
    while heap:
        m = pop(heap)[1]
        c = work.get(m)
        if c is None:
            continue  # cancelled after it was pushed
        for lm, terms in leads:
            if lm.divides(m):
                break
        else:
            remainder[m] = c
            del work[m]
            continue
        q = m.div(lm)
        # the lead is monic, so the head term cancels exactly
        for gm, gc in terms:
            t = gm.mul(q)
            s = work.get(t)
            if s is None:
                work[t] = -c * gc
                push(heap, (-key(t), t))
            else:
                s -= c * gc
                if s:
                    work[t] = s
                else:
                    del work[t]
    return Polynomial(remainder)


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
        return tuple(lm for lm, _ in self._leads)

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
    lm = [l for l, _ in leads]
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
        lm.append(leads[k][0])
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
