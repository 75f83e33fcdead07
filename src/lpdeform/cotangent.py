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
    maximal targets for upper bounds, the minimal for lower), so the answer
    is the family of minimal transversals of the bounder sets B(t) of the
    extremal t, built by Berge's recurrence over them in ascending size,
    ties broken by rank: from the family holding only the empty set, keep
    each set that meets B(t), grow each set f that misses it into f + {s}
    for every s in B(t), and drop a grown set that holds a kept one.  No
    grown set holds another: f + {s} within f' + {s'} forces s = s' (f'
    misses B(t)), then f within f', so f = f' in a family of minimal sets.
    Nor does a kept set hold a grown f + {s}, since it would then hold f
    properly.  So the one containment test keeps the family minimal.  Once
    a bounder set is processed every member meets it, so a superset of it,
    which comes later, keeps the family as it is: no pairwise subset test
    is needed for that.  When the pool holds the extremal targets, as in
    t1_generators, each bounds itself and no other one, so no family is
    larger than the answer.  A pool that misses them can still make an
    intermediate family larger than the answer on some hypergraphs: the
    recurrence is not output-polynomial in general, and the search has no
    budget yet (ROADMAP.md, item 10).  On a rooted tree each target of the
    lower search has one bounder, itself, and the upper search has one
    extremal target, so the family stays small.

    Deterministic: results sorted by size, then by linear-extension index
    tuple.  The trivial answer for no targets is the empty set.
    """
    targets = set(targets)
    if not targets:
        return [()]

    def bounds(s, t):
        return poset.le(s, t) if lower else poset.le(t, s)

    pos, pool = poset.rank, set(within)
    hits = {
        t: {s for s in pool if bounds(s, t)}
        for t in targets
        if not any(u != t and bounds(u, t) for u in targets)
    }
    family = [frozenset()]
    for t in sorted(hits, key=lambda t: (len(hits[t]), pos[t])):
        hit = hits[t]
        kept = [f for f in family if f & hit]
        grown = [f | {s} for f in family if not f & hit for s in hit]
        family = kept + [g for g in grown if not any(k <= g for k in kept)]
    found = [tuple(sorted(f, key=pos.__getitem__)) for f in family]
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
