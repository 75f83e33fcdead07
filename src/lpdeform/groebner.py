"""Buchberger's algorithm, reduced bases, and normal forms.

`buchberger` packs its generators once at entry (packed polynomials,
below, as the verifier hands them, pass unchanged) and runs one loop over
their S-pairs: normal selection strategy (smallest S-pair lcm first), the
coprime-leading-term criterion (a pair with coprime leads costs one AND of
the leads' supports and is never queued), full tail reduction at the end.
Each S-pair is built from the packed entries, as the two tails shifted by
their quotient keys, and reduced once by the division kernel, with no
Polynomial built and no Fraction made for a monic basis.  A zero remainder
costs nothing more; a nonzero one becomes a new basis element, the
`_entry` of that remainder.  That pair also runs the textbook step,
s_polynomial then _divide, which the basis does not use: the perfbench
tracer counts S-pairs and added elements there, until a benchmark change
moves those counters.  Generators that already are the reduced basis, as
the deformed generators of a rooted tree are, come out of the loop with
every S-pair reduced to zero and no lead dividing another lead or a tail
term (Buchberger's criterion), so they are returned as they were packed.
A GroebnerBasis holds packed entries and unpacks its Polynomials only when
`polys` is first read.

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
  * a packed polynomial is a dict minus key -> coefficient.
    `polynomials._pack_terms` packs a Polynomial through MonomialOrder.key,
    which raises ResourceLimitError past the encoding's bound (weight
    2**15 - 1), and `_unpack` is its inverse, with canonical coefficients;
    `_divide` is pack -> `_reduce` -> unpack.  A division step never raises
    weight, so checking the input is enough;
  * `_mul`, `_add` and `_sub` are the ring operations on packed
    polynomials, and `_addmul` and `_iadd` their in-place forms, so the
    deformation context builds its blocks packed and the verifier its
    instances, unpacking only a nonzero remainder.  `_mul` checks its result
    against the key bound, with MonomialOrder.key's error: two operands
    within the bound have exponent digits below 2**15, so their sum cannot
    carry into the next digit;
  * each polynomial of a basis is packed once, a Polynomial by
    `_pack_terms` with one MonomialOrder.key call per term, and made monic
    by `_entry`.
"""

from __future__ import annotations

import heapq
from fractions import Fraction

from .errors import DomainError, ResourceLimitError
from .polynomials import DIGIT_BITS, MAX_KEY_WEIGHT, Polynomial, _as_coeff, _pack_terms, key_bound_error

DEFAULT_MAX_PAIRS = 1_000_000
DEFAULT_MAX_WEIGHT = 10_000


def _unpack(work, order):
    """The Polynomial of the packed polynomial `work`, with canonical
    coefficients."""
    monomial = order.monomial
    return Polynomial({monomial(-n): _as_coeff(c) for n, c in work.items()})


def _addmul(acc, f, g, sign=1):
    """acc += sign * f * g on packed polynomials, in place; returns acc."""
    if len(f) < len(g):
        f, g = g, f
    get = acc.get
    for n2, c2 in g.items():
        c2 *= sign
        for n, c in f.items():
            t = n + n2
            s = get(t, 0) + c * c2
            if s:
                acc[t] = s
            else:
                del acc[t]
    return acc


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
        acc = _addmul({}, f, g)
    if acc:
        # the smallest minus key is the heaviest monomial: -(N >> 16n) is its
        # weight, the exponent digits being below B**n
        w = -(min(acc) >> order.mask.bit_length())
        if w > MAX_KEY_WEIGHT:
            raise key_bound_error(w)
    return acc


def _iadd(acc, g, sign=1):
    """acc += sign * g on packed polynomials, in place; returns acc."""
    for n, c in g.items():
        s = acc.get(n, 0) + sign * c
        if s:
            acc[n] = s
        else:
            del acc[n]
    return acc


def _add(f, g, sign=1):
    """The packed sum f + sign * g."""
    return _iadd(dict(f), g, sign)


def _sub(f, g):
    """The packed difference f - g."""
    return _iadd(dict(f), g, -1)


def _entry(work, order):
    """The packed entry (P, N, tail) of the monic multiple of the packed
    polynomial `work`, for _reduce: N is the minus key of its leading
    monomial, P = N & order.mask its exponents, and tail the (minus key,
    coefficient) pairs of its other terms."""
    if not work:
        raise DomainError("the zero polynomial has no leading term")
    n = min(work)
    lc = work[n]
    if lc != 1:
        inv = Fraction(1) / lc
        work = {nm: _as_coeff(inv * c) for nm, c in work.items()}
    return n & order.mask, n, tuple((nm, c) for nm, c in work.items() if nm != n)


def _entry_polynomial(entry, order):
    """The monic Polynomial of a packed entry."""
    _, n, tail = entry
    work = dict(tail)
    work[n] = 1
    return _unpack(work, order)


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
    ideals produce structurally equal bases.

    The basis is held as packed entries; a basis from `buchberger` unpacks
    `polys` at its first read."""

    def __init__(self, polys, order):
        self.order = order
        self._leads = [_entry(_pack_terms(g, order), order) for g in polys]
        self._polys = None

    @classmethod
    def _from_packed(cls, entries, order):
        """The basis of the packed entries from _entry, taken as they are."""
        basis = cls((), order)
        basis._leads = entries
        return basis

    @property
    def polys(self):
        if self._polys is None:
            self._polys = tuple(_entry_polynomial(e, self.order) for e in self._leads)
        return self._polys

    def __iter__(self):
        return iter(self.polys)

    def __len__(self):
        return len(self._leads)

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
    """Reduced Groebner basis of the ideal generated by `gens`, Polynomials
    or packed polynomials (minus key -> coefficient, left unchanged).

    Raises ResourceLimitError when more than max_pairs S-pairs are
    processed or a processed S-pair's lcm has weighted degree above
    max_weight (which bounds every monomial its reduction creates).
    Deterministic: the unique reduced basis, sorted by leading monomial.
    """
    packed = (f if isinstance(f, dict) else _pack_terms(f, order) for f in gens)
    leads = [_entry(f, order) for f in packed if f]
    if not leads:
        raise DomainError("no nonzero generators")
    G = [None] * len(leads)  # G[i]: a Polynomial multiple of element i, or None until needed

    def element(i):
        if G[i] is None:
            G[i] = _entry_polynomial(leads[i], order)
        return G[i]

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

    heap = [pair for k in range(len(leads)) for pair in new_pairs(k)]
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
        rem = _reduce(work, leads, mask, guard)
        if not rem:
            continue
        # the textbook step, the perfbench tracer's counting point; its
        # remainder feeds only later textbook steps
        G.append(_divide(s_polynomial(element(i), element(j), order), leads, order))
        leads.append(_entry({nm: _as_coeff(c) for nm, c in rem.items()}, order))
        lm.append(order.monomial(-leads[-1][1]))
        for pair in new_pairs(len(leads) - 1):
            heapq.heappush(heap, pair)

    # minimalize: drop any element whose lead a smaller kept lead divides
    kept = []
    for i in sorted(range(len(leads)), key=lambda i: -leads[i][1]):
        p = leads[i][0] | guard
        if not any((p - leads[j][0]) & guard == guard for j in kept):
            kept.append(i)
    # a survivor no kept lead divides a tail term of is reduced already;
    # tail-reduce the others.  The leads stay, so the result is sorted by lead
    exponents = [leads[j][0] for j in kept]
    entries = []
    for i in kept:
        _, n, tail = leads[i]
        terms = [(nm & mask) | guard for nm, _ in tail]
        if any((p - pl) & guard == guard for p in terms for pl in exponents):
            work = dict(tail)
            work[n] = 1
            rem = _reduce(work, [leads[j] for j in kept if j != i], mask, guard)
            entries.append(_entry({nm: _as_coeff(c) for nm, c in rem.items()}, order))
        else:
            entries.append(leads[i])
    return GroebnerBasis._from_packed(entries, order)
