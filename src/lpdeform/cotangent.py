"""Degree-0 first-order deformations of the letterplace quotient.

Each generator of the cotangent module in the relevant degrees sends one
quadric p1*p2 to a square-free monomial prescribed by a pair (D, U): an
inclusion-minimal lower-bound set D for everything strictly above p, and an
inclusion-minimal upper-bound set U for everything strictly below p, with D
living outside the ideal below p, U outside the filter above p, and no
element of D under an element of U.  The image is

    p1*p2  |->  (prod over r in D of r1) * (prod over s in U of s2).

For rooted trees this collapses: D is forced to be the child set of p and U
is a single element q with meet(q, p) = parent(p) (or empty for the root),
in bijection with the deformation parameters u_{q,p}."""

from __future__ import annotations

from collections import Counter

from .letterplace import parameter_pairs
from .posets import as_rooted_tree
from .polynomials import Monomial, XVar


class T1Generator:
    """One cotangent generator: p1*p2 |-> image, tagged with its (D, U)."""

    __slots__ = ("source", "lower_set", "upper_set", "image")

    def __init__(self, source, lower_set, upper_set, image):
        self.source = source
        self.lower_set = tuple(lower_set)
        self.upper_set = tuple(upper_set)
        self.image = image

    def key(self):
        return (self.source, self.lower_set, self.upper_set, self.image)

    def __eq__(self, other):
        return isinstance(other, T1Generator) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"T1Generator({self.source}: D={self.lower_set}, U={self.upper_set})"


def _image(lower_set, upper_set):
    pairs = [(XVar(1, r), 1) for r in lower_set]
    pairs += [(XVar(2, s), 1) for s in upper_set]
    return Monomial.from_pairs(pairs)


def _minimal_bound_sets(poset, targets, within, lower):
    """Inclusion-minimal S within `within` such that every target t admits
    s in S with t <= s (upper) or s <= t (lower=True).

    A set bounds every target exactly when it bounds the extremal ones (the
    maximal targets for upper bounds, the minimal for lower), and it is
    inclusion-minimal exactly when each member bounds an extremal target
    that no other member bounds.  Every minimal S holds a bounder of the
    first extremal target that a part of S leaves unbounded, so the search
    grows S from the empty set by one such bounder at a time, on an explicit
    stack.  A branch that takes the r-th bounder of a target leaves the r
    before it out for good, so no set is reached twice; a finished set is
    kept when it is minimal.  On a rooted tree each target of the lower
    search has one bounder, itself, and the upper search has one extremal
    target, so the search is linear in the pool.

    Deterministic: results sorted by size, then by linear-extension index
    tuple.  The trivial answer for no targets is the empty set.
    """
    targets = set(targets)
    if not targets:
        return [()]

    def bounds(s, t):
        return poset.le(s, t) if lower else poset.le(t, s)

    pos = poset.rank
    extremal = sorted(
        (t for t in targets if not any(u != t and bounds(u, t) for u in targets)),
        key=pos.__getitem__,
    )
    pool = sorted(within, key=pos.__getitem__)
    bounders = [[s for s in pool if bounds(s, t)] for t in extremal]
    covers = {}  # bounder -> the indices of the extremal targets it bounds
    for k, b in enumerate(bounders):
        for s in b:
            covers[s] = covers.get(s, frozenset()) | {k}
    found = []
    # (the set so far, the indices of the extremal targets it bounds, the
    # first index not yet looked at, and (k, r) for each member taken as the
    # r-th bounder of target k, r > 0: the r bounders before it stay out)
    stack = [((), frozenset(), 0, ())]
    while stack:
        chosen, covered, k, skips = stack.pop()
        while k < len(extremal) and k in covered:
            k += 1
        if k < len(extremal):
            for r, s in enumerate(bounders[k]):
                if not any(s in bounders[j][:rj] for j, rj in skips):
                    more = skips + ((k, r),) if r else skips
                    stack.append((chosen + (s,), covered | covers[s], k + 1, more))
            continue
        if len(chosen) > 1:
            count = Counter(t for s in chosen for t in covers[s])
            if not all(any(count[t] == 1 for t in covers[s]) for s in chosen):
                continue
        found.append(tuple(sorted(chosen, key=pos.__getitem__)))
    found.sort(key=lambda c: (len(c), tuple(pos[s] for s in c)))
    return found


def minimal_upper_bound_sets(poset, targets, within):
    """Inclusion-minimal U in `within` with every target below some member."""
    return _minimal_bound_sets(poset, targets, within, lower=False)


def minimal_lower_bound_sets(poset, targets, within):
    """Inclusion-minimal D in `within` with every target above some member."""
    return _minimal_bound_sets(poset, targets, within, lower=True)


def t1_generators(poset):
    """All cotangent generators of a finite poset, ordered by source
    element, then upper set, then lower set (lexicographically along the
    linear extension)."""
    out = []
    elements = set(poset.elements)
    for p in poset.linear_extension():
        upper_pool = elements - poset.filter_at_or_above(p)
        lower_pool = elements - poset.ideal_at_or_below(p)
        us = minimal_upper_bound_sets(poset, poset.strict_ideal_below(p), upper_pool)
        ds = minimal_lower_bound_sets(poset, poset.strict_filter_above(p), lower_pool)
        for u_set in us:
            for d_set in ds:
                if any(poset.le(r, s) for r in d_set for s in u_set):
                    continue
                out.append(T1Generator(p, d_set, u_set, _image(d_set, u_set)))
    return out


def t1_generators_tree(tree):
    """The rooted-tree shortcut: one generator per deformation parameter.

    For non-root p, D = children(p) and U = {q} for each q with
    meet(q, p) = parent(p); for the root, D = children(root) and U empty.
    Produces the same list as t1_generators, in the same order.
    """
    tree = as_rooted_tree(tree)
    out = []
    for q, p in parameter_pairs(tree):
        d_set = tree.children(p)
        u_set = () if q is None else (q,)
        out.append(T1Generator(p, d_set, u_set, _image(d_set, u_set)))
    return out
