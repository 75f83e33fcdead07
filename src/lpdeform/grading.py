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

The grading is linear, so each tree gets one table of packed degrees,
kept while the tree lives.  Number the symbols k = 0, 1, ... in the order
of x_variables(tree) and let B = 2**32; a multidegree sum_k c_k * (symbol
k) is then the int

    D = sum_k c_k * B**k

with signed digits c_k.  The table holds D_v for every variable v of the
ring, all entered when it is built: the u-parameters by the rule above,
with p1 + hat(p) packed once per element.  A monomial's degree is
sum e * D_v, and homogeneity compares one int per term.  Only the common
degree and the two degrees of a NotHomogeneousError witness are decoded
back to MultiDegree.

A packed monomial of the tree's MonomialOrder (see groebner.py) gets its
degree straight from its exponent digits, sum e * D_v over the nonzero
ones, without a Monomial: its total degree is at most its weight, which
the order keeps within its key bound (127 or 32,767, by its digit width),
so no bound is checked.

Decoding reads balanced digits, -B/2 <= c_k < B/2.  Every coefficient of
a variable's degree is -1, 0 or 1, so |c_k| is at most the monomial's
total degree: a monomial of total degree 2**31 or more raises
ResourceLimitError instead of a degree whose digits could have carried.
"""

from __future__ import annotations

import weakref
from collections import Counter
from itertools import compress
from operator import mul

from .errors import NotATreeError, NotHomogeneousError, ResourceLimitError, UnknownVariableError
from .letterplace import _parameters_of, parameter_pairs, ring_variables, x_variables
from .polynomials import MAX_KEY_WEIGHT, MonomialOrder, UVar, XVar
from .posets import as_rooted_tree

DEGREE_DIGIT_BITS = 32
MAX_PACKED_DEGREE = (1 << (DEGREE_DIGIT_BITS - 1)) - 1  # largest total degree packed
_DIGIT_MASK = (1 << DEGREE_DIGIT_BITS) - 1


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
    """hat(p) = p2 - sum of b1 over the children b of p."""
    return MultiDegree({XVar(2, p): 1, **{XVar(1, b): -1 for b in tree.children(p)}})


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


class _DegreeTable:
    """The packed degrees of one poset's variables (see the module docstring
    for the encoding), all entered up front: the symbols, which are the
    x-variables, and on a rooted tree the u-parameters.  A variable missing
    from the table is foreign, and raises variable_degree's error."""

    __slots__ = ("symbols", "codes", "_order", "_packed")

    def __init__(self, poset):
        self.symbols = tuple(x_variables(poset))
        codes = self.codes = {s: 1 << DEGREE_DIGIT_BITS * k for k, s in enumerate(self.symbols)}
        self._order = self._packed = None
        try:
            tree = as_rooted_tree(poset)
        except NotATreeError:
            return  # no parameters
        x1 = {p: codes[XVar(1, p)] for p in tree}
        hat = {p: codes[XVar(2, p)] - sum(map(x1.get, tree.children(p))) for p in tree}
        for q, p in parameter_pairs(tree):
            codes[UVar(q, p)] = x1[p] + hat[p] - (0 if q is None else codes[XVar(2, q)])

    def packed(self, tree, order):
        """The packed degree of a packed monomial of `order`, a MonomialOrder
        on the tree's variables, from its minus key; kept for the last order
        asked for."""
        if self._order is not order:
            try:
                codes = [self.codes[v] for v in order.variables]
            except KeyError as exc:
                variable_degree(tree, exc.args[0])  # raises for a foreign variable
                raise
            exponents = order.exponents

            def degree(n):
                e = exponents(n)
                return sum(map(mul, compress(e, e), compress(codes, e)))

            self._order, self._packed = order, degree
        return self._packed

    def decode(self, code):
        coords = {}
        for sym in self.symbols:
            if not code:
                break
            c = code & _DIGIT_MASK
            if c > MAX_PACKED_DEGREE:
                c -= 1 << DEGREE_DIGIT_BITS
            if c:
                coords[sym] = c
            code = (code - c) >> DEGREE_DIGIT_BITS
        return MultiDegree(coords)

    def code(self, tree, mono):
        """The packed degree of a monomial of B(2,P), P = tree."""
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


# tree -> _DegreeTable; a table holds no reference to its tree, so it goes
# when the tree does
_tables = weakref.WeakKeyDictionary()


def _degree_table(tree):
    table = _tables.get(tree)
    if table is None:
        table = _tables[tree] = _DegreeTable(tree)
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
    table = _degree_table(tree)
    if order is None:
        terms, code = f.terms, lambda m: table.code(tree, m)
    else:
        terms, code = f, table.packed(tree, order)
    it = iter(terms)
    m0 = next(it)
    d0 = code(m0)
    for m in it:
        d = code(m)
        if d != d0:
            if order is not None:
                m0, m = order.monomial(-m0), order.monomial(-m)
            deg0, deg = table.decode(d0), table.decode(d)
            raise NotHomogeneousError(
                f"monomial {m0!r} has degree {deg0.render()} but {m!r} has {deg.render()}",
                m0,
                deg0,
                m,
                deg,
            )
    return table.decode(d0)


def positivity_witness(tree):
    """Strictly positive integer weights that coarsen the multigrading.

    Returns an ordered map over ring_variables(tree), written down from the
    tree as the module docstring derives it: p2 -> 1, p1 -> 1 + the
    children's p1, u_{q,p} -> 1 and the root's u_{0,r} -> 2.
    """
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


def monomial_order_for(tree):
    """The package's working order on B(2,P): positivity-witness weights,
    reverse-lex tie-break, the witness's keys (x before u) as variables."""
    weights = positivity_witness(tree)
    return MonomialOrder(weights, weights)


def _divides(a, b):
    return all(b.get(i, 0) >= e for i, e in a.items())


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


def truncated_hilbert(leads, weights, max_degree):
    """Dimensions of the weighted-degree pieces 0..max_degree of R/(leads),
    R the polynomial ring on exactly the variables listed in `weights` and
    `leads` a list of monomials.

    Counts the monomials of each weight that no lead divides.  By
    Macaulay's theorem this is the Hilbert function of any ideal whose
    initial ideal the leads generate, so pass a Groebner basis's leading
    monomials for that ideal.  The counts are K(t) / prod_v (1 - t^w(v)),
    truncated: K from _numerator, each 1 / (1 - t^w) a prefix sum of stride
    w.  A max_degree above MAX_KEY_WEIGHT raises ResourceLimitError.
    """
    if max_degree > MAX_KEY_WEIGHT:
        raise ResourceLimitError(f"max_degree {max_degree} exceeds {MAX_KEY_WEIGHT}, the key bound")
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
