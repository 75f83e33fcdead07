"""The deformed ideal J(2,P) of a rooted tree, via the T/S/D recursion.

For each comparable pair p <= q the deformed generator is

    g(p, q) = p1*q2 - T(p) * S_p(q2),

where T(p) collects the first-order deformation of p1*p2 read off the
cotangent module (one term q2*u_{q,p} per parameter of p), and S_p is the
substitution operator that rewrites q2 modulo the deformed relations of the
subtree under p.  S_p(q2) factors as R(p,q) * D(q)^q: a product of child
minors D(a)^b along the chain from p to q, times the full minor D(q)^q.

The minors come from the child matrix M(a) whose rows are indexed by the
children b^1..b^m of a and whose columns by (b^0=a, b^1, .., b^m), with
entries S_{b^i} T_{b^i} (b^j).

A DeformationContext owns the tree's MonomialOrder and builds every block
in the division kernel's packed form (groebner.py): a dict minus order key
-> coefficient, where a variable v is the single term
{-order._packed[v]: 1} and a product of monomials is one int addition.
The *_packed methods memoize T_c(b), T(b), the matrix entries, the
cofactor minors of each M(a), the generalized minors, R, S and the
generators in one memo: each block is built once and kept for as long as
the context lives, across every check and the basis (clear_memos() drops
them all; results are pure, so that is observationally transparent).  A
block equal to another one (S_a(b) = R(a,b) when b is maximal, R(a,b) =
D(a)^b when b covers a) is the same dict.  The verifier and the basis read
these dicts and never change them.  Every new block is charged to a term
budget: past max_terms the context raises ResourceLimitError.

The order's exponent digits are 8 bits wide when the context's
weight_bound fits an 8-bit key (weight 127), and 16 bits otherwise.  The
bound is written down up front from the positivity weights (p2 -> 1, p1 ->
s(p), the number of nodes at or above p): twice the heaviest quadric,
root1*root2, so 2(n + 1) on n nodes, and 8 bits up to 62 nodes.  Every
block is homogeneous, and the degree laws give its weight: T_c(b) and T(b)
weigh 2, S_p(q2) s(p) - 1, the entry S_x T_x(b) 1 at the parent and s(x)
otherwise (a column's weight, so a minor of M(a) weighs at most s(a)),
R(a,b) s(a) - s(b) and g(p,q) s(p) + 1.  The verifier's instances are
signed sums of products of two blocks: flat-basic weighs s(p), the lemma
identities at most s(p) + 2, flat-p2 s(a) + 2, the lifts s(a) + 2 (x2) and
s(a) + s(b) + 1 <= 2n + 1 (x1, with b = a allowed), and the lcm of two
generator leads that share a variable at most 2n.  The sum of the two
heaviest leads, which the verifier weighs before its first membership
test, is the bound itself.  Division by homogeneous generators, and
buchberger on pairs within the bound, never form a heavier monomial.
Polynomials from outside the recursion are not covered: an override
generator list (the verifier passes wide=True) works at 16 bits, so the
16-bit key bound and its errors stay its own; `lp gens --compare` keeps a
narrow context and reads the fixture in a separate 16-bit order; and
`s_op_linear` forms its image on Polynomials.  The order keeps its width:
a monomial past its key bound raises ResourceLimitError.

The public methods without the suffix (t_sub, t_full, st_entry, matrix_m,
minor_d, minor_d_child, generalized_minor, cover_product_r, s_op,
s_op_linear, deformed_generator, j_ideal_generators) are the boundary to
Polynomials: each unpacks its block at every call, and no Polynomial is
kept.  Unpacking costs about as much as the expansion, so the verifier and
`lp gens` stay on the packed side.
"""

from __future__ import annotations

import functools

from .errors import (
    DomainError,
    LeafError,
    MinorIndexError,
    NotComparableError,
    RelationError,
    ResourceLimitError,
    ShapeError,
)
from .grading import positivity_witness
from .groebner import _addmul, _iadd, _mul, _unpack
from .letterplace import comparable_pairs
from .polynomials import DIGIT_BITS, Monomial, MonomialOrder, Polynomial, PolyMatrix, UVar, XVar
from .posets import as_rooted_tree

# star-8 holds 1,147,989 terms in its memo, 362,961 of them in its generators
DEFAULT_MAX_TERMS = 5_000_000
NARROW_BITS = 8  # the digit width of a context whose weight bound fits it
_ONE = {0: 1}  # the packed unit, compared with and never handed out


def _inversions(seq):
    return sum(
        1 for i in range(len(seq)) for j in range(i + 1, len(seq)) if seq[i] > seq[j]
    )


def _memoized(build):
    """A block method memoized on its arguments for the life of the
    context; `build` charges each new dict it makes to the term budget."""
    name = build.__name__

    @functools.wraps(build)
    def method(self, *args):
        key = (name, *args)
        val = self._memo.get(key)
        if val is None:
            val = self._memo[key] = build(self, *args)
        return val

    return method


def _unpacked(packed):
    """The Polynomial method over a packed one: unpacks at every call."""

    def method(self, *args):
        return _unpack(getattr(self, packed.__name__)(*args), self.order)

    method.__doc__ = packed.__doc__
    return method


class DeformationContext:
    """All recursion state for one rooted tree."""

    def __init__(self, tree, max_terms=DEFAULT_MAX_TERMS, wide=False):
        """`wide` keeps 16-bit digits whatever the weight bound, for
        polynomials from outside the recursion, which it does not cover:
        an 8-bit order raises ResourceLimitError past weight 127."""
        self.tree = tree = as_rooted_tree(tree)
        weights = positivity_witness(tree)
        # the heaviest quadric is root1*root2; see the module docstring
        self.weight_bound = 2 * (weights[XVar(1, tree.root)] + weights[XVar(2, tree.root)])
        narrow = not wide and self.weight_bound < 1 << (NARROW_BITS - 1)
        self.order = order = MonomialOrder(weights, weights, NARROW_BITS if narrow else DIGIT_BITS)
        self.max_terms = max_terms
        self.terms = 0  # terms held by the memo, charged against max_terms
        self._memo = {}  # (method name, *arguments) -> packed block
        # minus keys of the variables, and the exponent digits of the u's
        keys = order._packed
        self._x = {(v.place, v.element): -k for v, k in keys.items() if isinstance(v, XVar)}
        self._u = {(v.upper, v.lower): -k for v, k in keys.items() if isinstance(v, UVar)}
        bits = order.digit_bits
        self.umask = sum(((1 << bits) - 1) << bits * order.index[v] for v in keys if isinstance(v, UVar))

    def clear_memos(self):
        self._memo.clear()
        self.terms = 0

    def _charge(self, work):
        """Count a new block's terms against max_terms; returns the block."""
        self.terms += len(work)
        if self.terms > self.max_terms:
            raise ResourceLimitError(f"generator expansion exceeded {self.max_terms} terms")
        return work

    def _times(self, f, g):
        """f * g, packed; a unit factor gives the other factor itself."""
        if f == _ONE:
            return g
        if g == _ONE:
            return f
        return self._charge(_mul(f, g, self.order))

    def x_packed(self, place, p):
        """The packed variable p1 or p2."""
        return {self._x[place, p]: 1}

    # -- the T family ------------------------------------------------------

    @_memoized
    def t_sub_packed(self, c, b):
        """T_c(b): the share of b's deformation owed to c, which must be
        b's parent or one of its siblings.

        Parent a:   T_a(b) = -a2 * u_{a,b}
        Sibling c:  T_c(b) = -sum_{q >= c} q2 * u_{q,b}
        """
        tree, x, u = self.tree, self._x, self._u
        a = tree.parent(b)
        if a is None:
            raise RelationError(f"{b!r} is the root; T_c(b) needs a non-root b")
        if c == a:
            return self._charge({x[2, a] + u[a, b]: -1})
        if c in tree.siblings(b):
            return self._charge({x[2, q] + u[q, b]: -1 for q in tree.above(c)})
        raise RelationError(f"{c!r} is neither the parent nor a sibling of {b!r}")

    @_memoized
    def t_full_packed(self, b):
        """T(b) = T_b(b): the root gets its single parameter; otherwise the
        negated sum of all parent/sibling shares."""
        tree = self.tree
        if b == tree.root:
            return self._charge({self._u[None, b]: 1})
        val = _iadd({}, self.t_sub_packed(tree.parent(b), b), -1)
        for c in tree.siblings(b):
            _iadd(val, self.t_sub_packed(c, b), -1)
        return self._charge(val)

    # -- the child matrix and its minors ------------------------------------

    @_memoized
    def st_entry_packed(self, x, b):
        """S_x T_x(b) for x among {parent(b), b, siblings of b}.

        The diagonal and parent cases are symbolic shortcuts:
            S_b T_b(b) = b1,   S_a T_a(b) = -u_{a,b};
        only the sibling case is a genuine composition S_c(T_c(b)), built
        straight from the parameters u_{q,b} that T_c(b) is made of:
            S_c T_c(b) = -sum_{q >= c} S_c(q2) * u_{q,b}.
        """
        tree = self.tree
        a = tree.parent(b)
        if a is None:
            raise RelationError(f"{b!r} is the root; matrix entries need children")
        if x == b:
            return self._charge({self._x[1, b]: 1})
        if x == a:
            return self._charge({self._u[a, b]: -1})
        if x in tree.siblings(b):
            val = {}
            for q in tree.above(x):
                _addmul(val, self.s_op_packed(x, q), {self._u[q, b]: -1})
            return self._charge(val)
        raise RelationError(f"{x!r} is not {b!r} or its parent or a sibling")

    @_memoized
    def _matrix_rows(self, a):
        """The rows of M(a) as tuples of packed entries."""
        kids = self.tree.children(a)
        if not kids:
            raise LeafError(f"{a!r} is maximal; M(a) needs children")
        return tuple(tuple(self.st_entry_packed(x, b) for x in (a,) + kids) for b in kids)

    @_memoized
    def _det(self, a, rows, cols):
        """The minor of M(a) on the given row and column indices, expanded
        along its first row; every sub-minor is memoized."""
        if not rows:
            return self._charge({0: 1})
        row, val, sign = self._matrix_rows(a)[rows[0]], {}, 1
        for t, j in enumerate(cols):
            if row[j]:
                _addmul(val, row[j], self._det(a, rows[1:], cols[:t] + cols[t + 1 :]), sign)
            sign = -sign
        return self._charge(val)

    def minor_d_packed(self, a, i):
        """D(a)^i = (-1)^i * |M(a) with column i deleted|; column 0 is a
        itself, column i >= 1 is the i-th child.  For maximal a only i = 0
        is defined and D(a)^a = 1."""
        return self.generalized_minor_packed(a, (i,), ())

    def minor_d_child_packed(self, a, b):
        """D(a)^b for a child b of a."""
        kids = self.tree.children(a)
        if b not in kids:
            raise RelationError(f"{b!r} is not a child of {a!r}")
        return self.minor_d_packed(a, 1 + kids.index(b))

    def generalized_minor_packed(self, a, cols, rows):
        """D(a)^{cols}_{rows}: delete the listed columns (subset of 0..m)
        and rows (subset of 1..m), |cols| = |rows| + 1, signed by
        (-1)^(sum(cols) + sum(rows) + inv(cols) + inv(rows)).

        The sign is antisymmetric in the written order of the indices and
        satisfies the Laplace expansion along any deleted row:
            D^I_K = sum_c entry(r, c) * D^{I+c}_{K+r}.
        """
        return self._generalized_minor(a, tuple(cols), tuple(rows))

    @_memoized
    def _generalized_minor(self, a, cols, rows):
        m = len(self.tree.children(a))
        if len(set(cols)) != len(cols) or len(set(rows)) != len(rows):
            raise MinorIndexError("repeated index in generalized minor")
        for i in cols:
            if not (0 <= i <= m):
                raise MinorIndexError(f"column {i} out of range 0..{m} for {a!r}")
        for k in rows:
            if not (1 <= k <= m):
                raise MinorIndexError(f"row {k} out of range 1..{m}")
        if len(cols) != len(rows) + 1:
            raise ShapeError(
                f"need one more deleted column than deleted rows, got "
                f"{len(cols)} columns and {len(rows)} rows"
            )
        det = self._det(
            a,
            tuple(r for r in range(m) if r + 1 not in rows),
            tuple(c for c in range(m + 1) if c not in cols),
        )
        if (sum(cols) + sum(rows) + _inversions(cols) + _inversions(rows)) % 2:
            return self._charge(_iadd({}, det, -1))
        return det

    # -- the S family --------------------------------------------------------

    @_memoized
    def cover_product_r_packed(self, a, b):
        """R(a,b): the product of D(p)^q over the covers p -< q on the chain
        from a up to b; R(a,a) = 1.  R(a,q) = R(a,parent(q)) * D(parent(q))^q
        for each q on the way up from the nearest R(a,q) the memo holds, and
        every R(a,q) made is kept, so each product is made and charged once."""
        tree, memo = self.tree, self._memo
        if not tree.le(a, b):
            raise NotComparableError(f"need {a!r} <= {b!r}")
        chain, q = [], b
        while q != a and ("cover_product_r_packed", a, q) not in memo:
            chain.append(q)
            q = tree.parent(q)
        val = memo.get(("cover_product_r_packed", a, q), _ONE)
        for q in reversed(chain):
            val = self._times(val, self.minor_d_child_packed(tree.parent(q), q))
            memo["cover_product_r_packed", a, q] = val
        return self._charge({0: 1}) if val is _ONE else val

    @_memoized
    def s_op_packed(self, a, b):
        """S_a(b2) = R(a,b) * D(b)^b for a <= b."""
        if not self.tree.le(a, b):
            raise NotComparableError(f"need {a!r} <= {b!r}")
        return self._times(self.cover_product_r_packed(a, b), self.minor_d_packed(b, 0))

    # -- the deformed ideal ---------------------------------------------------

    @_memoized
    def generator_packed(self, p, q):
        """g(p,q) = p1*q2 - T(p) * S_p(q2)."""
        if not self.tree.le(p, q):
            raise NotComparableError(f"need {p!r} <= {q!r}")
        val = {self._x[1, p] + self._x[2, q]: 1}
        return self._charge(_addmul(val, self.t_full_packed(p), self.s_op_packed(p, q), -1))

    def generators_packed(self):
        """All ((p,q), packed g(p,q)) in linear-extension order of the pairs."""
        return [((p, q), self.generator_packed(p, q)) for p, q in comparable_pairs(self.tree)]

    # -- the Polynomial boundary ------------------------------------------------

    t_sub = _unpacked(t_sub_packed)
    t_full = _unpacked(t_full_packed)
    st_entry = _unpacked(st_entry_packed)
    minor_d = _unpacked(minor_d_packed)
    minor_d_child = _unpacked(minor_d_child_packed)
    generalized_minor = _unpacked(generalized_minor_packed)
    cover_product_r = _unpacked(cover_product_r_packed)
    s_op = _unpacked(s_op_packed)
    deformed_generator = _unpacked(generator_packed)

    def matrix_m(self, a):
        """M(a): rows = children b^1..b^m of a, columns = (a, b^1, .., b^m),
        entry (j, i) = S_{column i} T_{column i} (b^j)."""
        return PolyMatrix([[_unpack(e, self.order) for e in row] for row in self._matrix_rows(a)])

    def s_op_linear(self, a, f):
        """Extend S_a over a polynomial whose every monomial is (one q2 with
        q >= a) times a product of u-parameters: the sum of S_a(q2) times
        the u-part over f's terms, formed on Polynomials, so the weight
        bound need not cover f."""
        out = Polynomial.zero()
        for mono, c in f.items():
            self.order.weight(mono)  # raises for a variable outside the ring
            xs = [(v, e) for v, e in mono.pairs if isinstance(v, XVar)]
            if len(xs) != 1 or xs[0] != (XVar(2, xs[0][0].element), 1):
                what = "is not q2 times a u-monomial" if xs else "has no place-2 variable"
                raise DomainError(f"monomial {mono!r} {what}")
            target = xs[0][0].element
            if not self.tree.le(a, target):
                raise DomainError(f"S_{a!r} hit {target!r}2 but {a!r} <= {target!r} fails")
            u_part = mono.div(Monomial.var(xs[0][0]))
            out = out + self.s_op(a, target) * Polynomial.term(u_part, c)
        return out

    def j_ideal_generators(self):
        """All ((p,q), g(p,q)) in linear-extension order of the pairs."""
        return [(pair, _unpack(g, self.order)) for pair, g in self.generators_packed()]


def j_ideal_generators(tree):
    return DeformationContext(tree).j_ideal_generators()
