"""Buchberger's algorithm, reduced bases, and normal forms.

`buchberger` runs one loop over the S-pairs of its monic generators:
normal selection strategy (smallest S-pair lcm first), the
coprime-leading-term criterion (a pair with coprime leads costs one AND of
the leads' supports and is never queued), full tail reduction at the end.
Each S-pair is built from the packed entries below, as the two tails
shifted by their quotient keys, and reduced once by the division kernel,
with no Polynomial built and no Fraction made for a monic basis.  A zero
remainder costs nothing more; a nonzero one becomes a new basis element,
made by the textbook step: s_polynomial, _divide, then _pack.  Generators
that already are the reduced basis, as the deformed generators of a rooted
tree are, come out of the loop with every S-pair reduced to zero and no
lead dividing another lead or a tail term (Buchberger's criterion), so
they are returned as they were packed.

Two budgets turn runaway computations into ResourceLimitError instead of
hangs, both checked once per processed S-pair:

  * a cap on the number of processed S-pairs;
  * a cap on the weighted degree of the pair's lcm.  In a weighted-degree
    order a lead has the largest weight of its polynomial and a division
    step never raises weight, so no monomial created while reducing the
    pair outweighs its lcm.

The verifier reduces many structured polynomials modulo one fixed basis, so
the division kernel `_reduce` is where the time goes.  It reduces exactly
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
    the support of P, the guard bits of its nonzero digits, is
    ((P | G) - L) & G, with L the low bit of every digit;
  * a packed polynomial is a dict minus key -> coefficient.  `_pack_terms`
    packs a Polynomial through MonomialOrder.key, which raises
    ResourceLimitError past the encoding's bound (weight 2**15 - 1), and
    `_unpack` is its inverse, with canonical coefficients; `_divide` is
    pack -> `_reduce` -> unpack.  A division step never raises weight, so
    checking the input is enough;
  * `_mul`, `_add` and `_sub` are the ring operations on packed
    polynomials, so a caller such as the verifier builds its instances
    packed and unpacks only a nonzero remainder.  `_mul` checks its result
    against the key bound, with MonomialOrder.key's error: two operands
    within the bound have exponent digits below 2**15, so their sum cannot
    carry into the next digit;
  * each polynomial of a basis is made monic and packed once, by `_pack`,
    with one MonomialOrder.key call per term.
"""

from __future__ import annotations

import heapq
from fractions import Fraction

from .errors import DomainError, ResourceLimitError
from .polynomials import DIGIT_BITS, MAX_KEY_WEIGHT, Polynomial, _as_coeff, key_bound_error

DEFAULT_MAX_PAIRS = 1_000_000
DEFAULT_MAX_WEIGHT = 10_000


def _pack_terms(f, order):
    """The packed polynomial of f: minus key -> coefficient."""
    key = order.key
    return {-key(m): c for m, c in f.terms.items()}


def _unpack(work, order):
    """The Polynomial of the packed polynomial `work`, with canonical
    coefficients."""
    monomial = order.monomial
    return Polynomial({monomial(-n): _as_coeff(c) for n, c in work.items()})


def _mul(f, g, order):
    """The packed product f * g: a product of monomials is one addition.
    Raises MonomialOrder.key's ResourceLimitError when a term of the
    product passes the key bound."""
    if len(f) < len(g):
        f, g = g, f
    if len(g) == 1:
        # a term times a polynomial: the keys stay distinct, nothing cancels
        [(n2, c2)] = g.items()
        acc = {n + n2: c * c2 for n, c in f.items()}
    else:
        acc = {}
        get = acc.get
        for n2, c2 in g.items():
            for n, c in f.items():
                t = n + n2
                s = get(t, 0) + c * c2
                if s:
                    acc[t] = s
                else:
                    del acc[t]
    if acc:
        # the smallest minus key is the heaviest monomial: -(N >> 16n) is its
        # weight, the exponent digits being below B**n
        w = -(min(acc) >> order.mask.bit_length())
        if w > MAX_KEY_WEIGHT:
            raise key_bound_error(w)
    return acc


def _add(f, g, sign=1):
    """The packed sum f + sign * g."""
    acc = dict(f)
    for n, c in g.items():
        s = acc.get(n, 0) + sign * c
        if s:
            acc[n] = s
        else:
            del acc[n]
    return acc


def _sub(f, g):
    """The packed difference f - g."""
    return _add(f, g, -1)


def _pack(f, order):
    """Monic f and its packed entry (P, N, tail) for _reduce, from one
    order.key call per term: N is minus the key of f's leading monomial,
    P = N & order.mask its exponents, and tail the (minus key, coefficient)
    pairs of monic f's other terms."""
    if f.is_zero:
        raise DomainError("the zero polynomial has no leading term")
    work = _pack_terms(f, order)
    n = min(work)
    lc = work[n]
    if lc != 1:
        inv = Fraction(1) / lc
        f = f * inv
        work = {nm: _as_coeff(inv * c) for nm, c in work.items()}
    return f, (n & order.mask, n, tuple((nm, c) for nm, c in work.items() if nm != n))


def _reduce(work, leads, mask, guard):
    """Complete division remainder, {minus key: coefficient}, of the packed
    polynomial `work` (minus key -> coefficient; consumed) by the entries
    `leads` (see the module docstring)."""
    # minus keys: the smallest is the largest monomial, and a product's is
    # the sum of its factors'
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
    return remainder


def _divide(f, leads, order):
    """Complete division remainder of f by the packed entries `leads`."""
    return _unpack(_reduce(_pack_terms(f, order), leads, order.mask, order.guard), order)


def s_polynomial(f, g, order):
    mf, cf = order.leading_term(f)
    mg, cg = order.leading_term(g)
    l = mf.lcm(mg)
    sf, sg = f * l.div(mf), g * l.div(mg)
    if cf != 1:
        sf = sf * (Fraction(1) / cf)
    if cg != 1:
        sg = sg * (Fraction(1) / cg)
    return sf - sg


class GroebnerBasis:
    """A reduced Groebner basis: monic generators, no monomial of any
    generator divisible by another generator's leading monomial, sorted by
    leading monomial.  This form is unique for (ideal, order), so equal
    ideals produce structurally equal bases."""

    def __init__(self, polys, order):
        self._set([_pack(g, order) for g in polys], order)

    @classmethod
    def _from_packed(cls, packed, order):
        """The basis of (monic polynomial, packed entry) pairs from _pack,
        taken as they are."""
        basis = cls.__new__(cls)
        basis._set(packed, order)
        return basis

    def _set(self, packed, order):
        self.order = order
        self.polys = tuple(g for g, _ in packed)
        self._leads = [entry for _, entry in packed]

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
    G, leads = [], []
    for f in gens:
        if not f.is_zero:
            g, entry = _pack(f, order)
            G.append(g)
            leads.append(entry)
    if not G:
        raise DomainError("no nonzero generators")

    mask, guard = order.mask, order.guard
    low = guard >> (DIGIT_BITS - 1)  # the low bit of every exponent digit
    max_key = MAX_KEY_WEIGHT * (mask + 1)
    shift = mask.bit_length()
    lm = [order.monomial(-n) for _, n, _ in leads]
    support = []  # per lead, the guard bits of its nonzero digits

    def new_pairs(k):
        """Heap entries (lcm key, t, k) of lead k's non-coprime pairs with
        the leads before it; records lead k's support."""
        pk, nk, _ = leads[k]
        sk = ((pk | guard) - low) & guard
        support.append(sk)
        pairs = []
        for t in range(k):
            if support[t] & sk:
                pairs.append((order.key(lm[k].lcm(lm[t])), t, k))
            elif -(nk + leads[t][1]) > max_key:
                # a coprime lcm is the product, and its key the sum; past
                # the encoding's bound, order.key raises its error
                order.key(lm[k].mul(lm[t]))
        return pairs

    heap = [pair for k in range(len(G)) for pair in new_pairs(k)]
    heapq.heapify(heap)
    processed = 0
    while heap:
        k, i, j = heapq.heappop(heap)
        processed += 1
        if processed > max_pairs:
            raise ResourceLimitError(f"S-pair budget of {max_pairs} exceeded")
        # k = w * B**n - (exponent digits < B**n), so w = -(-k // B**n)
        if -(-k >> shift) > max_weight:
            raise ResourceLimitError(f"S-pair lcm weight exceeded {max_weight}")
        # the S-polynomial of monic f_i, f_j is (l/lead_i) tail_i - (l/lead_j) tail_j
        (_, ni, ti), (_, nj, tj) = leads[i], leads[j]
        work = _sub({n - k - ni: c for n, c in ti}, {n - k - nj: c for n, c in tj})
        if not _reduce(work, leads, mask, guard):
            continue
        # the new element comes from the textbook step, where the
        # perfbench tracer counts the basis elements an S-pair adds
        g, entry = _pack(_divide(s_polynomial(G[i], G[j], order), leads, order), order)
        G.append(g)
        leads.append(entry)
        lm.append(order.monomial(-entry[1]))
        for pair in new_pairs(len(G) - 1):
            heapq.heappush(heap, pair)

    # minimalize: drop any element whose lead a smaller kept lead divides
    kept = []
    for i in sorted(range(len(G)), key=lambda i: -leads[i][1]):
        p = leads[i][0] | guard
        if not any((p - leads[j][0]) & guard == guard for j in kept):
            kept.append(i)
    # a survivor no kept lead divides a tail term of is reduced already;
    # tail-reduce the others.  The leads stay, so the result is sorted by lead
    exponents = [leads[j][0] for j in kept]
    packed = []
    for i in kept:
        terms = [(n & mask) | guard for n, _ in leads[i][2]]
        if any((p - pl) & guard == guard for p in terms for pl in exponents):
            others = [leads[j] for j in kept if j != i]
            packed.append(_pack(_divide(G[i], others, order), order))
        else:
            packed.append((G[i], leads[i]))
    return GroebnerBasis._from_packed(packed, order)
