"""Buchberger's algorithm, reduced bases, and normal forms.

`buchberger` packs its generators once at entry (`_entries`: a packed
polynomial, below, is taken as it is, and the packed entries the verifier
already holds pass unchanged) and runs one loop over their S-pairs:
normal selection strategy (smallest S-pair lcm first), the
coprime-leading-term criterion (a pair with coprime leads costs one AND of
the leads' supports and is never queued; the others' lcm keys are formed
on the packed digits, see `_spairs`), full tail reduction at the end.
Each S-pair is built from the packed entries, as the two tails shifted by
their quotient keys, and reduced once by the division kernel, with no
Polynomial built and no Fraction made for a monic basis.  A zero remainder
costs nothing more; a nonzero one becomes a new basis element, the
`_entry` of that remainder.  That pair also runs the textbook step,
s_polynomial then _divide, on its two monic entries unpacked at the call
(the loop keeps no Polynomial), which the basis does not use: the perfbench
tracer counts S-pairs and added elements there, until a benchmark change
moves those counters.  Generators that already are the reduced basis, as
the deformed generators of a rooted tree are, come out of the loop with
every S-pair reduced to zero and no lead dividing another lead or a tail
term (Buchberger's criterion), so they are returned as they were packed.
On a passing suite the verifier does not run the loop for them: its
flatness checks reduce a factor of each S-pair instead, and it certifies
the generators with the loop's lead and tail divisibility test
(`_divisible`); see verifier.py.  The loop
still runs for compare_hilbert on its own (`lp hilbert`), for a partial
suite and for generators that fail a check.  A GroebnerBasis holds packed
entries and unpacks its Polynomials only when `polys` is first read.

Two budgets turn runaway computations into ResourceLimitError instead of
hangs, both checked once per processed S-pair:

  * a cap on the number of processed S-pairs;
  * a cap on the weighted degree of the pair's lcm.  In a weighted-degree
    order a lead has the largest weight of its polynomial and a division
    step never raises weight, so no monomial created while reducing the
    pair outweighs its lcm.

The order's key bound (127 with 8-bit digits, 32,767 with 16-bit ones) is
a third limit, and the order keeps its width: a generator or an S-pair
lcm past the bound raises MonomialOrder.key's ResourceLimitError.

The verifier reduces many structured polynomials modulo one fixed basis, so
the division kernel `_reduce` is where the time goes.  It reduces exactly
like the textbook division (largest term first, first dividing lead in
basis order, so the remainder and every intermediate coefficient are the
same), but on packed exponents (Monagan & Pearce, "Sparse polynomial
division using a heap", J. Symb. Comp. 2011):

  * a monomial is one int, minus its order key N = -MonomialOrder.key(m),
    which is linear: a product is N(g) + N(q), a quotient N(m) - N(lead);
    N is at once the working dict's key and the heap key (the smallest N
    is the largest monomial).  Its exponent digits are the order's width,
    8 or 16 bits, and every reader below takes the width from the order;
  * "lead divides m" is one guarded subtraction on the exponent digits
    P = N & order.mask: ((P_m | G) - P_lead) & G == G, G = order.guard;
    the support of P, the guard bits of its nonzero digits, is
    ((P | G) - L) & G, with L the low bit of every digit;
  * a packed polynomial is a dict minus key -> coefficient.
    `polynomials._pack_terms` packs a Polynomial through MonomialOrder.key,
    which raises ResourceLimitError past the encoding's bound (the order's
    max_weight, 2**7 - 1 with 8-bit digits and 2**15 - 1 with 16-bit
    ones), and `_unpack` is its inverse, with canonical coefficients;
    `_divide` is pack -> `_reduce` -> unpack.  A division step never raises
    weight, so checking the input is enough;
  * `_mul` is the product of packed polynomials, and `_addmul` and `_iadd`
    accumulate a product or a sum in place, so the deformation context
    builds its blocks packed and the verifier each instance in one new
    dict, unpacking only a nonzero remainder.  `_check_product`, which
    `_mul` calls first, checks a product against the key bound from the
    factors' leads, with MonomialOrder.key's error: two operands within the
    bound have exponent digits below the guard bit, so their sum cannot
    carry;
  * each polynomial of a basis is packed once, a Polynomial by
    `_pack_terms` with one MonomialOrder.key call per term, and made monic
    by `_entry`.

The divisor memo.  Which lead, if any, is the first in basis order to
divide a monomial depends only on the monomial's digits at the variables
the leads use: a lead divides m when each of its nonzero digits is at most
m's, and its zero digits test nothing.  So with D the mask of the digits
where some lead is nonzero (`_divisor_memo`), every monomial with the same
digits N & D has the same divisor, and `_reduce` keeps it in a dict
keyed by N & D, with None for "no lead divides".  A term whose digits are
new is scanned as before, and the scan's answer is stored; so the memo
finds the very entry the scan would, and every remainder, coefficient,
witness and budget trip is the scan's.  For the leads of J, the quadrics
p1*q2, D covers only x-digits, and the terms of a check's instances have
few distinct x-parts (151 and 93 on the two `wide` benchmark trees), so
nearly every step is one dict lookup instead of a test per lead.

A memo is valid only while its lead list does not change, so it is kept
with a list that never does:

  * the verifier's generator entries, made once (verifier.py);
  * a GroebnerBasis's `_leads`, whose `normal_form` uses it too;
  * buchberger's list of generators, up to the first appended element.
    From there on the loop goes back to the scan: a new lead can divide a
    monomial the old ones could not, and where the basis grows (the sign
    flips of the `mutants` benchmark) a memo started again at each append
    hit on only about a quarter of the terms and cost more than it saved.
    A loop that appends nothing, as on generators that are the basis,
    keeps the memo throughout.

buchberger's textbook step (`_divide` on the pair's S-polynomial) and its
final tail reduction, whose lists serve one reduction each, scan.
"""

from __future__ import annotations

import heapq
from fractions import Fraction

from .errors import DomainError, ResourceLimitError
from .polynomials import Polynomial, _as_coeff, _pack_terms, key_bound_error

DEFAULT_MAX_PAIRS = 1_000_000
DEFAULT_MAX_WEIGHT = 10_000
_UNSEEN = object()  # _reduce's memo has no entry for these digits yet


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


def _check_product(f, g, order):
    """Raise MonomialOrder.key's ResourceLimitError when a term of the
    packed product f * g passes the key bound.  The heaviest term, lead(f) *
    lead(g), never cancels; its minus key N = min(f) + min(g) is the
    smallest, and -(N >> bn) its weight, b the order's digit width, the
    exponent digits being below B**n."""
    if f and g:
        w = -((min(f) + min(g)) >> order.mask.bit_length())
        if w > order.max_weight:
            raise key_bound_error(w, order.max_weight)


def _mul(f, g, order):
    """The packed product f * g: a product of monomials is one addition.
    Raises MonomialOrder.key's ResourceLimitError, before multiplying, when
    a term of the product passes the key bound."""
    _check_product(f, g, order)
    if len(f) < len(g):
        f, g = g, f
    if len(g) == 1:
        # a term times a polynomial: the keys stay distinct, nothing cancels
        [(n2, c2)] = g.items()
        return {n + n2: c * c2 for n, c in f.items()}
    return _addmul({}, f, g)


def _iadd(acc, g, sign=1):
    """acc += sign * g on packed polynomials, in place; returns acc."""
    for n, c in g.items():
        s = acc.get(n, 0) + sign * c
        if s:
            acc[n] = s
        else:
            del acc[n]
    return acc


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


def _divisor_memo(leads, order):
    """An empty divisor memo for the fixed entry list `leads`, for _reduce:
    (D, {}), D the digit mask of the leads' nonzero digits (the guard bits
    of their supports, widened to whole digits).  The dict maps a term's
    digits at D to the first entry of `leads`, in basis order, whose lead
    divides the term, or to None when none does."""
    guard, bits = order.guard, order.digit_bits
    low = guard >> (bits - 1)  # the low bit of every exponent digit
    support = 0
    for pl, _, _ in leads:
        support |= ((pl | guard) - low) & guard
    return (support << 1) - (support >> (bits - 1)), {}


def _reduce(work, leads, mask, guard, memo=None):
    """Complete division remainder, {minus key: coefficient}, of the packed
    polynomial `work` (minus key -> coefficient; consumed) by the entries
    `leads` (see the module docstring).  With `memo`, the
    `_divisor_memo(leads, order)` of this very list, each term's divisor is
    looked up by the term's digits at the leads' variables, and scanned for
    only the first time those digits are met."""
    found = None
    if memo is not None:
        mask, found = memo
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
        p = n & mask
        if found is None or (lead := found.get(p, _UNSEEN)) is _UNSEEN:
            pg = p | guard
            for lead in leads:
                if (pg - lead[0]) & guard == guard:
                    break
            else:
                lead = None
            if found is not None:
                found[p] = lead
        if lead is None:
            remainder[n] = c
            continue
        # the lead is monic, so the head term cancels exactly
        q = n - lead[1]
        for gn, gc in lead[2]:
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


def _divide(f, leads, order, memo=None):
    """Complete division remainder of f by the packed entries `leads`."""
    return _unpack(_reduce(_pack_terms(f, order), leads, order.mask, order.guard, memo), order)


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
        self._memo = _divisor_memo(self._leads, order)  # the leads never change
        self._polys = None

    @classmethod
    def _from_packed(cls, entries, order):
        """The basis of the packed entries from _entry, taken as they are."""
        basis = cls((), order)
        basis._leads = entries
        basis._memo = _divisor_memo(entries, order)
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
        return _divide(f, self._leads, self.order, self._memo)

    def contains(self, f):
        return self.normal_form(f).is_zero

    def __repr__(self):
        return f"GroebnerBasis({len(self.polys)} polys)"


def normal_form(f, basis):
    return basis.normal_form(f)


def _spairs(leads, seen, order):
    """Heap entries (lcm key, t, k) of the non-coprime pairs t < k of the
    packed entries `leads`, for every k from len(seen) on; `seen` holds
    (P, weight, support) per lead already paired, P its exponent digits and
    the support the guard bits of its nonzero digits, and grows to
    len(leads).  A coprime pair is never an entry, and its lcm is never
    formed.

    The lcm's key is formed on the digits, as MonomialOrder.key would give
    it: its digits are the digit-wise maximum of the two leads' (one
    guarded subtraction marks the digits where P_k >= P_t), and its weight
    is w(k) + w(t) - w(gcd), the gcd's digits being P_k + P_t minus the
    lcm's, nonzero only on the shared support.  An lcm past the key bound
    raises MonomialOrder.key's error."""
    guard, bits = order.guard, order.digit_bits
    low = guard >> (bits - 1)  # the low bit of every exponent digit
    shift, digit = order.mask.bit_length(), (1 << bits) - 1
    weights = [order.weights[v] for v in order.variables]
    pairs = []
    for k in range(len(seen), len(leads)):
        pk, nk, _ = leads[k]
        wk, sk = -(nk >> shift), ((pk | guard) - low) & guard
        for t, (pt, wt, st) in enumerate(seen):
            common = st & sk
            if not common:
                continue
            ge = ((pk | guard) - pt) & guard  # the digits where P_k >= P_t
            lcm = pt ^ ((pk ^ pt) & (ge - (ge >> (bits - 1))))
            gcd, w = pk + pt - lcm, wk + wt
            while common:
                g = common & -common
                common ^= g
                i = g.bit_length() // bits - 1  # the shared digit's variable
                w -= weights[i] * ((gcd >> bits * i) & digit)
            if w > order.max_weight:
                raise key_bound_error(w, order.max_weight)
            pairs.append(((w << shift) - lcm, t, k))
        seen.append((pk, wk, sk))
    return pairs


def _divisible(exponents, leads, guard):
    """Whether the lead of one of the packed entries `leads` divides one of
    the packed exponents (N & order.mask) in `exponents`."""
    pls = [pl for pl, _, _ in leads]
    return any((q - pl) & guard == guard for q in (p | guard for p in exponents) for pl in pls)


def _entries(gens, order):
    """The packed entries of the nonzero elements of `gens`: Polynomials,
    packed polynomials (minus key -> coefficient, left unchanged) or the
    packed entries of `_entry`, which pass as they are."""
    return [
        f if type(f) is tuple else _entry(f if isinstance(f, dict) else _pack_terms(f, order), order)
        for f in gens
        if f
    ]


def buchberger(gens, order, max_pairs=DEFAULT_MAX_PAIRS, max_weight=DEFAULT_MAX_WEIGHT):
    """Reduced Groebner basis of the ideal generated by `gens`, as
    `_entries` takes them (the caller's entries are not modified).

    Raises ResourceLimitError when more than max_pairs S-pairs are
    processed or a processed S-pair's lcm has weighted degree above
    max_weight (which bounds every monomial its reduction creates).
    Deterministic: the unique reduced basis, sorted by leading monomial.

    The order keeps its digit width: a generator or an S-pair lcm that
    passes its key bound (127 with 8-bit digits) raises
    MonomialOrder.key's ResourceLimitError.
    """
    leads = _entries(gens, order)
    if not leads:
        raise DomainError("no nonzero generators")
    mask, guard = order.mask, order.guard
    shift = mask.bit_length()
    seen = []
    heap = _spairs(leads, seen, order)
    # the divisor memo of the generators' list, until the first append
    memo = _divisor_memo(leads, order)
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
        work = _iadd({n - k - ni: c for n, c in ti}, {n - k - nj: c for n, c in tj}, -1)
        rem = _reduce(work, leads, mask, guard, memo)
        if not rem:
            continue
        # the textbook step, the perfbench tracer's counting point, on the
        # two monic entries; its remainder is not used
        fi, fj = _entry_polynomial(leads[i], order), _entry_polynomial(leads[j], order)
        _divide(s_polynomial(fi, fj, order), leads, order)
        leads.append(_entry({nm: _as_coeff(c) for nm, c in rem.items()}, order))
        memo = None  # the list changed: the scan finds each divisor from here on
        for pair in _spairs(leads, seen, order):
            heapq.heappush(heap, pair)

    # minimalize: drop any element whose lead a smaller kept lead divides
    kept = []
    for entry in sorted(leads, key=lambda e: -e[1]):
        if not _divisible((entry[0],), kept, guard):
            kept.append(entry)
    # a survivor no kept lead divides a tail term of is reduced already;
    # tail-reduce the others.  The leads stay, so the result is sorted by lead
    entries = []
    for entry in kept:
        _, n, tail = entry
        others = [e for e in kept if e is not entry]
        if _divisible((nm & mask for nm, _ in tail), others, guard):
            work = dict(tail)
            work[n] = 1
            rem = _reduce(work, others, mask, guard)
            entries.append(_entry({nm: _as_coeff(c) for nm, c in rem.items()}, order))
        else:
            entries.append(entry)
    return GroebnerBasis._from_packed(entries, order)
