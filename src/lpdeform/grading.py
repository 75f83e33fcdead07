"""The multigrading of B(2,P) and the weighted (coarsened) Hilbert function.

The grading group is free on the symbols p1, p2 (one pair per poset
element); we reuse XVar objects as those symbols.  Writing

    hat(p) = p2 - sum over children b of b1,

the variables are graded by

    deg x_{i,p}  = p_i
    deg u_{q,p}  = p1 - q2 + hat(p)
    deg u_{0,r}  = r1 + hat(r)          (r the root).

This grading admits a strictly positive coarsening: give every p2 weight 1
and every p1 weight 1 + (sum of the children's p1 weights); then every
u-parameter comes out at weight 1 (the root's at 2), so weighted degree is
a genuine grading with finite-dimensional pieces — that's what the
truncated Hilbert function counts.

The grading is linear, so a multidegree packs into one int.  Give each
symbol k a digit place(k) and let B = 2**b be the digit base; a
multidegree sum_k c_k * (symbol k) is then the int

    D = sum_k c_k * B**place(k)

with signed digits c_k, which decode as balanced digits, -B/2 <= c_k <
B/2.  Every coefficient of a variable's degree is -1, 0 or 1, so |c_k| is
at most the monomial's total degree, and D decodes exactly while that
stays below B/2.  A tree keeps a table of packed degrees per layout while
it lives.  The table holds D_v for every variable v of the ring, all
entered when it is built by one rule from the symbols' units B**place(k):
the u-parameters as above, with p1 + hat(p) packed once per element.  A
monomial's degree is sum e * D_v, and homogeneity compares one int per
term.  Only a degree that a report or a witness shows is decoded back to
MultiDegree.

A Polynomial's monomials use 32-bit digits, symbol k at place k along
x_variables(tree): a monomial of total degree 2**31 or more raises
ResourceLimitError instead of a degree whose digits could have carried.

A packed monomial of a MonomialOrder on the tree's variables (see
groebner.py) uses the order's own b-bit digits, symbol p_i at the place of
its x-variable x_{i,p} (a symbol the order lacks goes past the order's
last digit).  Its minus key holds its exponents in the same places, so its
x-part's degree is its x-digits as they are, one AND, and its u-digits are
summed against their u-parameters' codes chunk by chunk: the span of
u-digits is cut into the order's chunks of CHUNK_BITS bits, and one table
per chunk keeps the code of each chunk value it meets (see ChunkTable in
polynomials.py).  A sum of digits times codes is linear, and no digit
carries into the next, so the chunks' codes add up to the digit-by-digit
sum.  Its total degree is at most its weight, which the order keeps within
max_weight = 2**(b-1) - 1, its key bound (127 or 32,767), so every digit
decodes exactly and no bound is checked.
"""

from __future__ import annotations

import weakref
from collections import Counter
from functools import partial
from itertools import count

from .errors import DomainError, NotATreeError, NotHomogeneousError, ResourceLimitError, UnknownVariableError
from .letterplace import _parameters_of, parameter_pairs, ring_variables, x_variables
from .polynomials import CHUNK_BITS, CHUNK_MASK, MAX_KEY_WEIGHT, ChunkTable, MonomialOrder, UVar, XVar, _check_weight
from .posets import as_rooted_tree

DEGREE_DIGIT_BITS = 32
MAX_PACKED_DEGREE = (1 << (DEGREE_DIGIT_BITS - 1)) - 1  # largest total degree packed


class MultiDegree:
    """An element of the free abelian group on the symbols p1, p2."""

    __slots__ = ("coords", "_hash")

    def __init__(self, coords):
        # trusted: dict symbol -> nonzero int
        self.coords = coords
        self._hash = None

    @staticmethod
    def zero():
        return _ZERO_DEGREE

    @staticmethod
    def unit(place, element):
        return MultiDegree({XVar(place, element): 1})

    @property
    def is_zero(self):
        return not self.coords

    def __add__(self, other):
        acc = dict(self.coords)
        for sym, c in other.coords.items():
            s = acc.get(sym, 0) + c
            if s:
                acc[sym] = s
            else:
                acc.pop(sym, None)
        return MultiDegree(acc)

    def __neg__(self):
        return MultiDegree({sym: -c for sym, c in self.coords.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n == 0:
            return _ZERO_DEGREE
        return MultiDegree({sym: n * c for sym, c in self.coords.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, MultiDegree) and self.coords == other.coords

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self.coords.items()))
        return self._hash

    def render(self):
        if not self.coords:
            return "0"
        bits = []
        for sym in sorted(self.coords):
            c = self.coords[sym]
            mag = f"{abs(c)}*" if abs(c) != 1 else ""
            bits.append(("-" if c < 0 else ("+" if bits else "")) + mag + sym.render())
        return "".join(bits)

    def __repr__(self):
        return f"MultiDegree({self.render()})"


_ZERO_DEGREE = MultiDegree({})


def hat_degree(tree, p):
    """hat(p) = p2 - sum of b1 over the children b of p (NotATreeError off a tree)."""
    return MultiDegree({XVar(2, p): 1, **{XVar(1, b): -1 for b in as_rooted_tree(tree).children(p)}})


def variable_degree(tree, v):
    """The multidegree of a ring variable of B(2,P), P any poset."""
    if isinstance(v, XVar):
        if v.element not in tree:
            raise UnknownVariableError(f"{v!r}: {v.element!r} is not a poset element")
        return MultiDegree.unit(v.place, v.element)
    if isinstance(v, UVar):
        p, q = v.lower, v.upper
        if p not in tree:
            raise UnknownVariableError(f"{v!r}: {p!r} is not a poset element")
        try:
            tree = as_rooted_tree(tree)
        except NotATreeError:
            raise UnknownVariableError(f"{v!r}: only a rooted tree has parameters") from None
        if q not in _parameters_of(tree, p):
            if q is None:
                raise UnknownVariableError(f"{v!r}: empty upper slot is for the root")
            raise UnknownVariableError(f"{v!r} is not a parameter of this tree")
        deg = MultiDegree.unit(1, p) + hat_degree(tree, p)
        return deg if q is None else deg - MultiDegree.unit(2, q)
    raise UnknownVariableError(f"unsupported variable {v!r}")


def _degree_codes(poset, units):
    """The packed degrees of the poset's variables, and hat(p) for each
    element of a rooted tree (None otherwise), given `units`, the symbols'
    codes keyed in x_variables(poset) order: the x-variables are their
    units and, on a rooted tree, u_{q,p} -> p1 + hat(p) - q2 and u_{0,r} ->
    r1 + hat(r), with hat(p) packed once per element."""
    codes = dict(units)
    try:
        tree = as_rooted_tree(poset)
    except NotATreeError:
        return codes, None  # no parameters
    ext, unit = tree.linear_extension(), list(units.values())
    x1, x2 = dict(zip(ext, unit[::2])), dict(zip(ext, unit[1::2]))
    hat = {p: x2[p] - sum(map(x1.get, tree.children(p))) for p in ext}
    for q, p in parameter_pairs(tree):
        codes[UVar(q, p)] = x1[p] + hat[p] - (0 if q is None else x2[q])
    return codes, hat


def _chunk_code(ucodes, digits):
    """The sum of e * code(u) over one chunk's u-digits e."""
    return sum(c * e for c, e in zip(ucodes, digits) if e)


class _DegreeTable:
    """The packed degrees of one poset's variables (see the module docstring
    for the two layouts), all entered up front: the symbols, which are the
    x-variables, and on a rooted tree the u-parameters.  With no order the
    digits are 32 bits wide, symbol k at digit k along x_variables(poset);
    with a MonomialOrder they are the order's own, each symbol at the digit
    of its x-variable (a symbol the order lacks goes past its last digit),
    and `degree` maps a term's minus key to its code.  A variable missing
    from the table is foreign, and raises variable_degree's error."""

    __slots__ = ("codes", "hat", "order", "degree", "_bits", "_slots", "_chunks")

    def __init__(self, poset, order=None):
        symbols = x_variables(poset)
        if order is None:
            bits, places = DEGREE_DIGIT_BITS, range(len(symbols))
        else:
            bits, index = order.digit_bits, order.index
            places = [index.get(s) for s in symbols]
            if None in places:
                past = count(len(index))
                places = [next(past) if i is None else i for i in places]
        units = {s: 1 << bits * i for s, i in zip(symbols, places)}
        self.codes, self.hat = _degree_codes(poset, units)
        self.order, self._bits, self._slots = order, bits, (places, symbols)
        self._chunks = None
        self.degree = None if order is None else self._packed(poset, order, places, units)

    def _packed(self, poset, order, places, units):
        """The degree code of a term of `order` from its minus key n: the
        x-digits of n as they are, plus e * code(u) for each nonzero
        u-digit e, read chunk by chunk from the span of digits that holds
        the u's, u = n >> shift & umask.  `_chunks` holds one ChunkTable
        per chunk of that span, the lowest first, mapping a chunk value to
        its digits' sum of e * code(u)."""
        bits, variables, codes = order.digit_bits, order.variables, self.codes
        xs = set(places)
        us = [i for i in range(len(variables)) if i not in xs]
        lo, hi = (us[0], us[-1] + 1) if us else (0, 0)
        try:
            ucodes = [0 if i in xs else codes[variables[i]] for i in range(lo, hi)]
        except KeyError as exc:
            variable_degree(poset, exc.args[0])  # raises for a foreign variable
            raise
        xmask = ((1 << bits) - 1) * sum(units.values()) & order.mask
        shift, umask, k = bits * lo, (1 << bits * (hi - lo)) - 1, order.chunk_digits
        chunks = self._chunks = [
            ChunkTable(order.chunk_exponents, partial(_chunk_code, ucodes[i : i + k]))
            for i in range(0, hi - lo, k)
        ]

        def degree(n):
            c = n & xmask
            u = n >> shift & umask
            for chunk in chunks:
                if not u:
                    break
                v = u & CHUNK_MASK
                if v:
                    c += chunk[v]
                u >>= CHUNK_BITS
            return c

        return degree

    def decode(self, code):
        """The MultiDegree of a code: balanced digits, -B/2 <= c < B/2, at
        the symbols' places."""
        bits, coords, at = self._bits, {}, 0
        mask, top = (1 << bits) - 1, (1 << (bits - 1)) - 1
        for place, sym in sorted(zip(*self._slots)):
            if not code:
                break
            code >>= bits * (place - at)
            at = place
            c = code & mask
            if c > top:
                c -= 1 << bits
            if c:
                coords[sym] = c
            code -= c
        return MultiDegree(coords)

    def code(self, tree, mono):
        """The packed degree of a monomial of B(2,P), P = tree, in the
        32-bit layout."""
        codes = self.codes
        try:
            code = sum(codes[v] * e for v, e in mono.pairs)
        except KeyError as exc:
            variable_degree(tree, exc.args[0])  # raises for a foreign variable
            raise
        total = mono.degree()
        if total > MAX_PACKED_DEGREE:
            raise ResourceLimitError(
                f"monomial of total degree {total} exceeds {MAX_PACKED_DEGREE}, "
                "the packed-degree bound"
            )
        return code

    def common(self, tree, f):
        """The code of the common degree of f's terms: f a Polynomial in the
        32-bit table, a packed polynomial of the order in an order's.  Raises
        NotHomogeneousError with a two-monomial witness otherwise."""
        order = self.order
        if order is None:
            terms, code = f.terms, partial(self.code, tree)
        else:
            terms, code = f, self.degree
        it = iter(terms)
        m0 = next(it)
        d0 = code(m0)
        for m in it:
            d = code(m)
            if d != d0:
                if order is not None:
                    m0, m = order.monomial(-m0), order.monomial(-m)
                deg0, deg = self.decode(d0), self.decode(d)
                raise NotHomogeneousError(
                    f"monomial {m0!r} has degree {deg0.render()} but {m!r} has {deg.render()}",
                    m0,
                    deg0,
                    m,
                    deg,
                )
        return d0


# tree -> its 32-bit _DegreeTable, and tree -> the _DegreeTable of the last
# order asked for; a table holds no reference to its tree, so it goes when
# the tree does
_tables = weakref.WeakKeyDictionary()
_order_tables = weakref.WeakKeyDictionary()


def _degree_table(tree, order=None):
    if order is None:
        table = _tables.get(tree)
        if table is None:
            table = _tables[tree] = _DegreeTable(tree)
    else:
        table = _order_tables.get(tree)
        if table is None or table.order is not order:
            table = _order_tables[tree] = _DegreeTable(tree, order)
    return table


def monomial_degree(tree, mono):
    """The multidegree of a monomial of B(2,P)."""
    table = _degree_table(tree)
    return table.decode(table.code(tree, mono))


def homogeneous_degree(tree, f, order=None):
    """The common multidegree of f's monomials (zero polynomial: degree 0).
    f is a Polynomial, or a packed polynomial of `order` (minus key ->
    coefficient), whose monomials are decoded only for a witness.

    Raises NotHomogeneousError with a two-monomial witness otherwise.
    """
    if not f:
        return MultiDegree.zero()
    table = _degree_table(tree, order)
    return table.decode(table.common(tree, f))


def positivity_witness(tree):
    """Strictly positive integer weights that coarsen the multigrading.

    Returns an ordered map over ring_variables(tree), written down from the
    tree as the module docstring derives it: p2 -> 1, p1 -> 1 + the
    children's p1, u_{q,p} -> 1 and the root's u_{0,r} -> 2.  A poset that
    is no rooted tree raises NotATreeError.
    """
    tree = as_rooted_tree(tree)
    d1 = {}
    for p in reversed(tree.linear_extension()):
        d1[p] = 1 + sum(d1[b] for b in tree.children(p))
    weights = {}
    for v in ring_variables(tree):
        if isinstance(v, XVar):
            weights[v] = d1[v.element] if v.place == 1 else 1
        else:
            weights[v] = 2 if v.upper is None else 1
    return weights


def monomial_order_for(poset):
    """The package's working order on B(2,P), reverse-lex tie-break: when
    P's Hasse diagram is a rooted tree, the positivity witness's weights
    and keys (x before u); otherwise weight 1 on x_variables(P)."""
    try:
        weights = positivity_witness(poset)
    except NotATreeError:
        weights = dict.fromkeys(x_variables(poset), 1)
    return MonomialOrder(weights, weights)


def _divides(a, b):
    """Whether the lead a divides the lead b, each a dict variable index ->
    exponent.  Every lead holds positive exponents only (Monomial.pairs
    does, and _split drops a zero one), so a divisor's variables are among
    b's: that set test runs first, and the exponents are compared after."""
    return a.keys() <= b.keys() and all(b[i] >= e for i, e in a.items())


def _numerator(leads, weights, bound):
    """Coefficients t^0..t^bound of K(t), the Hilbert series numerator of
    R/(leads), a lead a dict variable index -> exponent.  Coprime leads give
    K = prod(1 - t^w(lead)), a unit lead 1 - t^0 = 0; else x^e, e the least
    exponent of x, the variable in the most leads, splits K(I) = K(I + (x^e)) +
    t^(e w(x)) K(I : x^e) (Bigatti 1997).  The leads are made minimal here,
    once: colons would pile up leads another divides (20-chain @40: 3.2
    million calls, not 39)."""
    leads = sorted(leads, key=lambda lead: sum(lead.values()))
    leads = [a for j, a in enumerate(leads) if not any(_divides(b, a) for b in leads[:j])]
    return _split(leads, weights, bound)


def _split(leads, weights, bound):
    """_numerator on minimal leads.  The sum's leads (the x-free ones and
    x^e) stay minimal, and so do the colon's leads that had x, lowered by
    x^e alike; only a lowered lead free of x can divide an x-free lead, and
    those x-free leads are dropped."""
    [(x, n)] = Counter(i for lead in leads for i in lead).most_common(1) or [(None, 0)]
    if n < 2:
        k = [int(d == 0) for d in range(bound + 1)]
        for w in (sum(weights[i] * e for i, e in lead.items()) for lead in leads):
            for d in range(bound, w - 1, -1):  # times 1 - t^w
                k[d] -= k[d - w]
        return k
    e = min(lead[x] for lead in leads if x in lead)
    free = [lead for lead in leads if x not in lead]
    k = _split(free + [{x: e}], weights, bound)
    shift = weights[x] * e
    if shift <= bound:
        lowered = [{i: f - e * (i == x) for i, f in g.items() if i != x or f > e}
                   for g in leads if x in g]
        drop = [g for g in lowered if x not in g]
        free = [a for a in free if not any(_divides(g, a) for g in drop)]
        for d, c in enumerate(_split(lowered + free, weights, bound - shift), start=shift):
            k[d] += c
    return k


def _check_degree(max_degree):
    """Reject a max_degree that is not an int, or one past the key bound."""
    if isinstance(max_degree, bool) or not isinstance(max_degree, int):
        raise DomainError(f"max_degree must be an int, got {max_degree!r}")
    if max_degree > MAX_KEY_WEIGHT:
        raise ResourceLimitError(f"max_degree {max_degree} exceeds {MAX_KEY_WEIGHT}, the key bound")


def truncated_hilbert(leads, weights, max_degree):
    """Dimensions of the weighted-degree pieces 0..max_degree of R/(leads),
    R the polynomial ring on exactly the variables listed in `weights` and
    `leads` a list of monomials.

    Counts the monomials of each weight that no lead divides.  By
    Macaulay's theorem this is the Hilbert function of any ideal whose
    initial ideal the leads generate, so pass a Groebner basis's leading
    monomials for that ideal.  The counts are K(t) / prod_v (1 - t^w(v)),
    truncated: K from _numerator, each 1 / (1 - t^w) a prefix sum of stride
    w.  A negative max_degree gives []; `_check_degree` rejects the rest.
    A weight must be a positive int: with weight 0 a degree's piece is
    infinite.
    """
    _check_degree(max_degree)
    for v, w in weights.items():
        _check_weight(v, w)
    index = {v: i for i, v in enumerate(weights)}
    try:
        ideal = [{index[v]: e for v, e in lead.pairs} for lead in leads]
    except KeyError as exc:
        raise UnknownVariableError(f"{exc.args[0]!r} is not in this ring") from None
    counts = _numerator(ideal, list(weights.values()), max_degree)
    for w in weights.values():
        for d in range(w, max_degree + 1):
            counts[d] += counts[d - w]
    return counts
